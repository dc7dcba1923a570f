// poll_server.hpp — a pinned polling process serving prioritized queues.
//
// Both LVRM and every VRI are modelled as PollServers: a loop pinned to one
// core that repeatedly (1) finds the highest-priority non-empty input queue,
// (2) dequeues a burst, (3) spends its service cost on the core as one
// event, (4) hands each item to the input's sink. This mirrors the thesis'
// non-blocking poll loops: control queues are checked before data queues
// (Sec 2.1), and within a priority class inputs are scanned round-robin so
// e.g. the TX queues of many VRIs cannot be starved by a hot RX ring.
//
// There is one serve path (DESIGN.md §9). A coalesced input's burst is up to
// its `batch` items; any other input's burst is one item, and its `batch`
// instead lets the loop stay on that input for that many consecutive serves.
// A per-item serve is therefore exactly a coalesced burst of one.
//
// Hot-path memory model: serving performs no heap allocation. The burst
// lives in a reused member buffer and the completion callback captures only
// `this`, which Core::run stores inline in its event slot (sim::Callback),
// so the simulated host overhead of a frame is not polluted by allocator
// noise. Input selection consults per-priority non-empty hints instead of
// scanning every queue: a control (priority 0) input with pending work is
// found without ever touching the data queues.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/core.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"

namespace lvrm::sim {

template <typename T>
class PollServer {
 public:
  /// Cost of serving one item (may depend on the item, e.g. per-byte copy).
  /// Receives a mutable reference: servers that must *decide* something to
  /// know the cost (LVRM's dispatch step) record the decision in the item.
  using CostFn = std::function<Nanos(T&)>;
  /// Invoked when service of an item completes (at the completion time).
  using Sink = std::function<void(T&&)>;
  /// Cost of serving a whole coalesced batch in one pass. Receives the batch
  /// mutably, like CostFn; may be cheaper than the sum of per-item costs
  /// (amortized lookups, one syscall for the burst).
  using BatchCostFn = std::function<Nanos(std::span<T>)>;
  /// Gate predicate: an input whose gate returns false is skipped by the
  /// scheduler as if empty, but its non-empty hint is NOT cleared — the
  /// work is still there, just temporarily owned by someone else (a steal
  /// in flight, DESIGN.md §17). Call kick() after the gate reopens.
  using GateFn = std::function<bool()>;
  /// Idle hook: invoked when the scan finds no serviceable input. Return
  /// true ONLY if the hook produced new work (e.g. stole a burst into one
  /// of this server's queues) — the scan then runs again. Returning true
  /// without producing work livelocks the loop.
  using IdleHook = std::function<bool()>;

  /// `pickup_latency` models the poll loop's discovery delay: when work
  /// arrives while the server is idle, one loop iteration over its sockets
  /// and queues passes before the item is noticed. Zero = immediate.
  PollServer(Simulator& sim, Core& core, OwnerId owner, std::string name = {},
             Nanos pickup_latency = 0)
      : sim_(sim),
        core_(&core),
        owner_(owner),
        name_(std::move(name)),
        pickup_latency_(pickup_latency) {}

  PollServer(const PollServer&) = delete;
  PollServer& operator=(const PollServer&) = delete;

  /// Registers an input queue. Lower `priority` is served first. The queue's
  /// observer is captured by this server. `batch` > 1 lets the server drain
  /// up to that many consecutive items from this input once selected (poll
  /// loops read NIC rings in bursts) before re-scanning priorities.
  ///
  /// With `coalesce` set, the burst is instead drained up-front and served
  /// as ONE core event: the costs of all drained items are summed and
  /// charged once, and every sink fires at the batch completion time in
  /// FIFO order. Items that arrive after the drain wait for the next batch —
  /// a coalesced burst is fixed at pick time. Without `coalesce` each serve
  /// is a burst of one item. Either way `batch_cost`, when provided, prices
  /// the drained span instead of `cost` per item. Returns the input index.
  std::size_t add_input(BoundedQueue<T>& q, int priority, CostFn cost,
                        Sink sink, CostCategory category = CostCategory::kUser,
                        std::size_t batch = 1, bool coalesce = false,
                        BatchCostFn batch_cost = {}) {
    inputs_.push_back(Input{&q, priority, std::move(cost), std::move(sink),
                            category, batch < 1 ? 1 : batch, coalesce,
                            std::move(batch_cost),
                            /*nonempty=*/!q.empty(), /*class_idx=*/0,
                            /*gate=*/{}});
    rebuild_classes();
    const std::size_t idx = inputs_.size() - 1;
    q.set_observer([this, idx] {
      note_nonempty(idx);
      if (pickup_latency_ > 0 && !serving_) {
        sim_.after(pickup_latency_, [this] { maybe_serve(); });
      } else {
        maybe_serve();
      }
    });
    return idx;
  }

  /// Starts/stops the loop. A stopped server leaves queued items in place.
  void start() {
    running_ = true;
    maybe_serve();
  }
  void stop() { running_ = false; }
  bool running() const { return running_; }

  /// Stops the loop and invokes `done` once the item (or batch) currently in
  /// service has completed and been delivered — immediately when already
  /// idle. Queued items stay in place, exactly as with stop(). Used by the
  /// reset-free drain: the backlog may only be migrated after the last
  /// in-flight item has egressed, or a same-flow frame redispatched to an
  /// idle sibling could overtake it.
  void quiesce(std::function<void()> done) {
    running_ = false;
    if (!serving_) {
      done();
      return;
    }
    on_quiesced_ = std::move(done);
  }

  /// Moves the server to a different core (models kernel migration in the
  /// "default" affinity policy). A migration penalty is charged to the new
  /// core as system time.
  void migrate(Core& new_core, Nanos penalty) {
    core_ = &new_core;
    core_->charge(penalty, CostCategory::kSystem);
  }

  Core& core() const { return *core_; }
  OwnerId owner() const { return owner_; }
  const std::string& name() const { return name_; }
  std::uint64_t served() const { return served_; }
  bool busy() const { return serving_; }

  // Telemetry accessors (plain counters; read at snapshot time only).
  /// Core events started: one per serve, whatever its burst size.
  std::uint64_t serve_events() const { return serve_events_; }
  /// Serves of coalesced inputs, and items moved by them. batch_items() /
  /// batches() is the realized coalescing factor.
  std::uint64_t batches() const { return batches_; }
  std::uint64_t batch_items() const { return batch_items_; }

  /// One-shot extra cost added to the next served item (used for e.g. a core
  /// allocation pass that preempts the LVRM loop).
  void add_oneshot_cost(Nanos cost) { oneshot_cost_ += cost; }

  /// Repairs a stale-HIGH non-empty hint after an EXTERNAL pop (a steal,
  /// recovery drain, or shed) emptied the queue behind the scheduler's
  /// back. Without this, a hot input's set hint makes every pick_input
  /// probe the empty queue first — the §9 stale-high repair fires once per
  /// scan instead of once, which on a stolen-dry link degenerates into a
  /// permanent extra probe per serve. Harmless when the queue still holds
  /// items or the hint is already clear.
  void repair_hint(std::size_t idx) {
    Input& in = inputs_[idx];
    if (in.nonempty && in.queue->empty()) {
      in.nonempty = false;
      --classes_[in.class_idx].nonempty_count;
    }
  }

  /// Installs the idle hook (see IdleHook). One per server; replaceable.
  void set_idle_hook(IdleHook hook) { idle_hook_ = std::move(hook); }

  /// Installs a gate predicate on input `idx` (see GateFn).
  void set_input_gate(std::size_t idx, GateFn gate) {
    inputs_[idx].gate = std::move(gate);
  }

  /// True while input `idx` is the one in service (a burst in flight, or an
  /// unexhausted batch continuation). Stealing from a queue its own server
  /// is mid-burst on would let the thief's frames overtake the victim's
  /// in-service ones.
  bool serving_input(std::size_t idx) const {
    return current_input_ == idx && (serving_ || batch_remaining_ > 0);
  }

  /// Re-arms the scheduler for input `idx` after its gate reopened (or
  /// after external pushes that bypassed the queue observer): refreshes
  /// the hint from the queue's actual state and kicks the serve loop.
  void kick(std::size_t idx) {
    if (!inputs_[idx].queue->empty()) note_nonempty(idx);
    maybe_serve();
  }

  /// Kicks the serve loop; harmless to call at any time.
  void maybe_serve() {
    if (!running_ || serving_) return;
    std::size_t idx = kNoInput;
    if (batch_remaining_ > 0 && current_input_ != kNoInput &&
        !inputs_[current_input_].queue->empty() &&
        gate_open(inputs_[current_input_])) {
      idx = current_input_;
      --batch_remaining_;
    } else {
      idx = pick_input();
      current_input_ = idx;
      // Coalesced inputs consume their whole burst in one serve; the
      // item-by-item continuation applies only to per-item inputs.
      batch_remaining_ = (idx == kNoInput || inputs_[idx].coalesce)
                             ? 0
                             : inputs_[idx].batch - 1;
    }
    if (idx == kNoInput) {
      // Nothing serviceable: give the idle hook (work stealing, §17) one
      // chance to manufacture work before the loop parks.
      if (idle_hook_ && !in_idle_hook_) {
        in_idle_hook_ = true;
        const bool retry = idle_hook_();
        in_idle_hook_ = false;
        if (retry) maybe_serve();
      }
      return;
    }
    serve(inputs_[idx]);
  }

 private:
  struct Input {
    BoundedQueue<T>* queue;
    int priority;
    CostFn cost;
    Sink sink;
    CostCategory category;
    std::size_t batch = 1;
    bool coalesce = false;
    BatchCostFn batch_cost;
    // Non-empty hint: set by the queue observer (which fires on every
    // empty->non-empty transition), cleared only when a scan observes the
    // queue actually empty. The hint can therefore be stale-HIGH (external
    // actors — recovery, shedding — pop/clear queues without telling us)
    // but never stale-LOW, so a set hint is always safe to probe and a
    // cleared hint is always safe to skip.
    bool nonempty = false;
    std::size_t class_idx = 0;
    // Optional gate (see GateFn): false = skip without clearing the hint.
    GateFn gate;
  };

  static bool gate_open(const Input& in) { return !in.gate || in.gate(); }

  struct PrioClass {
    int priority;
    std::vector<std::size_t> members;  // input indices, ascending
    std::size_t nonempty_count = 0;    // inputs with the hint set
  };

  static constexpr std::size_t kNoInput =
      std::numeric_limits<std::size_t>::max();

  void note_nonempty(std::size_t idx) {
    Input& in = inputs_[idx];
    if (!in.nonempty) {
      in.nonempty = true;
      ++classes_[in.class_idx].nonempty_count;
    }
  }

  void rebuild_classes() {
    classes_.clear();
    for (const Input& in : inputs_) {
      bool found = false;
      for (const PrioClass& c : classes_)
        if (c.priority == in.priority) found = true;
      if (!found) classes_.push_back(PrioClass{in.priority, {}, 0});
    }
    std::sort(classes_.begin(), classes_.end(),
              [](const PrioClass& a, const PrioClass& b) {
                return a.priority < b.priority;
              });
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (classes_[c].priority == inputs_[i].priority) {
          inputs_[i].class_idx = c;
          classes_[c].members.push_back(i);
          if (inputs_[i].nonempty) ++classes_[c].nonempty_count;
          break;
        }
      }
    }
  }

  /// Highest-priority non-empty input, round-robin within a priority class.
  /// Classes are scanned in ascending priority and the scan stops at the
  /// first class with genuinely pending work — a non-empty control input is
  /// found without inspecting any data queue. Within the class, the member
  /// closest to `rr_cursor_` in cyclic order wins, which is exactly the
  /// input the previous full cyclic scan would have selected.
  std::size_t pick_input() {
    const std::size_t n = inputs_.size();
    for (PrioClass& cls : classes_) {
      if (cls.nonempty_count == 0) continue;
      std::size_t best = kNoInput;
      std::size_t best_rank = n;
      for (std::size_t i : cls.members) {
        Input& in = inputs_[i];
        if (!in.nonempty) continue;
        // Gated input (steal in flight, §17): invisible to the scan, hint
        // intact — the work exists, it is just temporarily owned elsewhere.
        if (!gate_open(in)) continue;
        if (in.queue->empty()) {  // stale-high hint: repair and skip
          in.nonempty = false;
          --cls.nonempty_count;
          continue;
        }
        const std::size_t rank = (i + n - rr_cursor_) % n;
        if (rank < best_rank) {
          best_rank = rank;
          best = i;
        }
      }
      if (best != kNoInput) {
        rr_cursor_ = (best + 1) % n;
        return best;
      }
    }
    return kNoInput;
  }

  /// The one serve routine: drains a burst (up to `batch` items coalesced,
  /// else one), charges its cost as ONE core event, and delivers every item
  /// at the completion time.
  void serve(Input& in) {
    const std::size_t burst = in.coalesce ? in.batch : 1;
    batch_buf_.clear();
    while (batch_buf_.size() < burst && !in.queue->empty())
      batch_buf_.push_back(in.queue->pop());
    Nanos cost = 0;
    if (in.batch_cost) {
      cost = in.batch_cost(std::span<T>(batch_buf_));
    } else if (in.cost) {
      for (T& item : batch_buf_) cost += in.cost(item);
    }
    cost += oneshot_cost_;
    oneshot_cost_ = 0;
    serving_ = true;
    ++serve_events_;
    if (in.coalesce) {
      ++batches_;
      batch_items_ += batch_buf_.size();
    }
    core_->run(cost, in.category, owner_, [this] { complete_batch(); });
  }

  void complete_batch() {
    serving_ = false;
    // current_input_ only moves on a pick, and no pick happens mid-serve.
    const Input& in = inputs_[current_input_];
    // Swap into the (empty) drain buffer first: a sink may push into one of
    // our own inputs and reentrantly start the next serve, which refills
    // batch_buf_.
    std::swap(sink_buf_, batch_buf_);
    served_ += sink_buf_.size();
    if (in.sink)
      for (T& item : sink_buf_) in.sink(std::move(item));
    sink_buf_.clear();
    maybe_serve();
    notify_quiesced();
  }

  /// Fires a pending quiesce() callback once service has actually wound
  /// down (stop() keeps maybe_serve() from restarting it).
  void notify_quiesced() {
    if (serving_ || !on_quiesced_) return;
    auto done = std::move(on_quiesced_);
    on_quiesced_ = nullptr;
    done();
  }

  Simulator& sim_;
  Core* core_;
  OwnerId owner_;
  std::string name_;
  std::vector<Input> inputs_;
  std::vector<PrioClass> classes_;
  std::size_t rr_cursor_ = 0;
  Nanos pickup_latency_ = 0;
  std::size_t batch_remaining_ = 0;
  std::size_t current_input_ = kNoInput;
  bool running_ = false;
  bool serving_ = false;
  Nanos oneshot_cost_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t serve_events_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batch_items_ = 0;
  // Zero-alloc serving state: every serve reuses `batch_buf_`/`sink_buf_`
  // capacity, so no per-item heap allocation happens after warm-up.
  IdleHook idle_hook_;
  bool in_idle_hook_ = false;
  std::function<void()> on_quiesced_;
  std::vector<T> batch_buf_;
  std::vector<T> sink_buf_;
};

}  // namespace lvrm::sim
