// load_balancer.hpp — dispatching frames across a VR's VRIs (Sec 3.3).
//
// The VRI monitor picks a VRI for every incoming frame. Fig 3.3's three
// schemes ship — join-the-shortest-queue (by the load estimator's
// Average_Load), round-robin, and uniform random — and each can run
// frame-based or flow-based: the flow-based wrapper consults the
// connection-tracking FlowTable first and only falls through to the inner
// scheme for a flow's first frame, whose chosen VRI is then pinned
// ("VRI of added entry <- JSQ()/Rnd()/RR()").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "lvrm/types.hpp"
#include "net/flow.hpp"
#include "net/frame.hpp"

namespace lvrm {

/// What a balancer sees of each candidate VRI.
struct VriView {
  int index = -1;        // VRI slot index within the VR
  double load = 0.0;     // estimator's Average_Load (bigger = more loaded)
  bool suspect = false;  // health monitor: inside the fail-slow grace window
};

class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;
  virtual BalancerKind kind() const = 0;

  /// Picks among `vris` (non-empty, all valid/active). Returns the chosen
  /// element's `index`.
  virtual int pick(std::span<const VriView> vris) = 0;

  /// Dispatch-decision CPU cost on the LVRM core for `n` candidate VRIs.
  virtual Nanos decision_cost(std::size_t n) const = 0;
};

class JsqBalancer final : public LoadBalancer {
 public:
  BalancerKind kind() const override {
    return BalancerKind::kJoinShortestQueue;
  }
  int pick(std::span<const VriView> vris) override;
  Nanos decision_cost(std::size_t n) const override;
};

class RoundRobinBalancer final : public LoadBalancer {
 public:
  BalancerKind kind() const override { return BalancerKind::kRoundRobin; }
  int pick(std::span<const VriView> vris) override;
  Nanos decision_cost(std::size_t n) const override;

 private:
  std::size_t cursor_ = 0;
};

class RandomBalancer final : public LoadBalancer {
 public:
  explicit RandomBalancer(std::uint64_t seed) : rng_(seed) {}
  BalancerKind kind() const override { return BalancerKind::kRandom; }
  int pick(std::span<const VriView> vris) override;
  Nanos decision_cost(std::size_t n) const override;

 private:
  Rng rng_;
};

std::unique_ptr<LoadBalancer> make_balancer(BalancerKind kind,
                                            std::uint64_t seed);

/// Snapshot of one Dispatcher's counters. With a sharded dispatch plane
/// (DESIGN.md §11) every shard runs its own Dispatcher per VR; summing the
/// per-shard stats recovers the per-VR totals the gauges report.
struct DispatchStats {
  std::uint64_t decisions = 0;
  std::uint64_t flow_probes = 0;
  std::uint64_t flow_hits = 0;

  DispatchStats& operator+=(const DispatchStats& o) {
    decisions += o.decisions;
    flow_probes += o.flow_probes;
    flow_hits += o.flow_hits;
    return *this;
  }
};

/// Flow-aware dispatch wrapper implementing Fig 3.3's "balance(buffer)".
/// In frame mode it simply delegates; in flow mode it tracks 5-tuples.
class Dispatcher {
 public:
  /// Flow mode tracks 5-tuples in the classic linear-probing FlowTable.
  Dispatcher(std::unique_ptr<LoadBalancer> inner, BalancerGranularity gran,
             Nanos flow_idle_timeout = sec(30));

  /// Chooses a VRI for `frame`. `vris` lists the active candidates with
  /// their current loads.
  int dispatch(const net::FrameMeta& frame, std::span<const VriView> vris,
               Nanos now);

  /// Batch variant: decides for every frame of a drained burst in one pass,
  /// writing each frame's `dispatch_vri`, and returns the summed decision
  /// cost. Takes pointers so a mixed burst can be regrouped per VR without
  /// moving frames. In flow mode the burst is sorted (by index, frames stay
  /// in place) so frames of the same 5-tuple are adjacent and collapse to
  /// ONE flow-table probe + timestamp refresh — at line rate a burst is
  /// usually dominated by a handful of hot flows. Inner picks still happen
  /// once per distinct flow (or per frame in frame mode), so RR/random
  /// distributions and JSQ tie-breaking are unchanged; only redundant
  /// probes are elided.
  Nanos dispatch_batch(std::span<net::FrameMeta* const> frames,
                       std::span<const VriView> vris, Nanos now);

  /// CPU cost of the decision just taken (includes flow-table work when in
  /// flow mode; the thesis charges a times() timestamp update per lookup).
  Nanos decision_cost(std::size_t n_vris, bool flow_hit) const;

  /// Forgets pinned flows of a destroyed VRI; returns how many flows were
  /// unpinned (0 in frame mode, where nothing is tracked).
  std::size_t on_vri_destroyed(int vri);

  /// Pool-state generation, bumped by the owner whenever the candidate set
  /// could have changed health (a VRI activated/deactivated/drained/crashed,
  /// or a fail-slow suspicion flipped). While the generation is unchanged
  /// and the last scan found no suspect, healthy_pool() skips rescanning —
  /// before this cache, flow-pinned traffic paid a full candidate scan per
  /// frame even when nothing had changed for seconds. Generation 0 (the
  /// default) disables the cache, preserving the standalone-Dispatcher
  /// contract that views may change arbitrarily between calls.
  void set_pool_generation(std::uint64_t gen) { pool_generation_ = gen; }
  std::uint64_t pool_generation() const { return pool_generation_; }
  /// Full candidate scans performed (the regression surface for the cache).
  std::uint64_t pool_scans() const { return pool_scans_; }

  BalancerGranularity granularity() const { return granularity_; }
  const LoadBalancer& inner() const { return *inner_; }
  bool last_was_flow_hit() const { return last_flow_hit_; }
  const net::FlowTable& flow_table() const { return flows_; }

  /// Tracked flow entries / slot capacity of the flow table (feed the
  /// lvrm_flowtable_entries / lvrm_flowtable_occupancy gauges).
  std::size_t flow_entries() const { return flows_.size(); }
  std::size_t flow_slots() const { return flows_.bucket_count(); }

  /// Resize observer of the flow table (feeds the flowtable_resize audit
  /// events).
  void set_flow_resize_hook(net::FlowResizeHook hook) {
    flows_.set_resize_hook(std::move(hook));
  }

  // Telemetry accessors (plain counters; read at snapshot time only).
  /// Frames dispatched through either path.
  std::uint64_t decisions() const { return decisions_; }
  /// Flow-table probes (flow mode; one per frame classic, one per run in a
  /// batch) and the subset that hit a still-valid pinned VRI.
  std::uint64_t flow_probes() const { return flow_probes_; }
  std::uint64_t flow_hits() const { return flow_hits_; }
  DispatchStats stats() const {
    return DispatchStats{decisions_, flow_probes_, flow_hits_};
  }

 private:
  /// Suspect-aware candidate filtering shared by both dispatch paths: while
  /// any VRI is under fail-slow suspicion, steer to healthy siblings (fall
  /// back to the full set if none remain).
  std::span<const VriView> healthy_pool(std::span<const VriView> vris);

  /// Flow-mode decision for one 5-tuple, shared by both dispatch paths: a
  /// pin valid in the full set (`hit`), else a healthy-pool pick, pinned.
  int flow_pick(const net::FiveTuple& tuple, std::span<const VriView> vris,
                Nanos now, bool& hit);

  std::unique_ptr<LoadBalancer> inner_;
  BalancerGranularity granularity_;
  net::FlowTable flows_;
  bool last_flow_hit_ = false;
  std::uint64_t decisions_ = 0;
  std::uint64_t flow_probes_ = 0;
  std::uint64_t flow_hits_ = 0;
  std::uint64_t pool_generation_ = 0;   // 0 = cache disabled
  std::uint64_t pool_cached_gen_ = 0;   // generation of the last scan
  bool pool_cached_suspect_ = false;    // last scan's verdict
  std::uint64_t pool_scans_ = 0;
  // Reused across bursts so batch dispatch allocates nothing after warm-up.
  std::vector<VriView> pool_scratch_;
  std::vector<std::uint32_t> order_scratch_;
};

}  // namespace lvrm
