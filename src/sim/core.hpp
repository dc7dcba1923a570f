// core.hpp — a simulated CPU core as a serial execution resource.
//
// A Core runs one piece of work at a time. Work is tagged with an owner id
// (one per pinned process) and a cost category so the simulator can reproduce
// the `top`-style CPU breakdown of Fig 4.3 (user / system / softirq). When
// consecutive work items come from different owners — i.e. two processes
// time-share the core, as in the "same"-core affinity experiment — a context
// switch penalty is charged, which is exactly the effect Exp 2a measures.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "common/units.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace lvrm::sim {

/// CPU-time category, mirroring the columns of `top` used in Fig 4.3.
enum class CostCategory : std::uint8_t {
  kUser = 0,     // us: LVRM / VRI application code
  kSystem,       // sy: syscalls (raw sockets, shm ops, vfork)
  kSoftirq,      // si: kernel network stack servicing interrupts
  kCategoryCount
};

/// Owner id for context-switch tracking (arbitrary small ints; kNoOwner for
/// work that does not belong to a pinned process, e.g. kernel softirq).
using OwnerId = int;
inline constexpr OwnerId kNoOwner = -1;

class Core {
 public:
  Core(Simulator& sim, CoreId id, Nanos context_switch_cost)
      : sim_(sim), id_(id), ctx_cost_(context_switch_cost) {}

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  CoreId id() const { return id_; }

  /// True when the core can start new work right now.
  bool idle() const { return sim_.now() >= busy_until_; }

  Nanos busy_until() const { return busy_until_; }

  /// Runs `cost` nanoseconds of `owner`'s work starting no earlier than now,
  /// invoking `done` (any `void()` callable, or nullptr) at completion; the
  /// callable is constructed in its event slot. nullptr, a null function
  /// pointer and an empty Callback or std::function schedule nothing.
  /// Returns the completion time. If the core is currently busy the work
  /// starts when it frees up (callers that want explicit queueing —
  /// PollServer — only call this when idle()).
  template <typename F>
  Nanos run(Nanos cost, CostCategory cat, OwnerId owner, F&& done) {
    const Nanos end = account(cost, cat, owner);
    if (!Callback::is_null(done)) sim_.at(end, std::forward<F>(done));
    return end;
  }

  /// Charges cost synchronously without scheduling a callback; used for
  /// cheap bookkeeping work folded into a larger operation.
  void charge(Nanos cost, CostCategory cat);

  /// Moves `amount` of already-charged (or about-to-be-charged) busy time
  /// between accounting categories without touching busy_until. Lets a task
  /// charged wholesale to one category (e.g. a raw-socket recv syscall)
  /// attribute its user-space portion correctly for the Fig 4.3 breakdown.
  void reclassify(CostCategory from, CostCategory to, Nanos amount) {
    busy_[static_cast<std::size_t>(from)] -= amount;
    busy_[static_cast<std::size_t>(to)] += amount;
  }

  /// Busy nanoseconds accumulated in a category since construction/reset.
  Nanos busy(CostCategory cat) const {
    return busy_[static_cast<std::size_t>(cat)];
  }
  Nanos busy_total() const;
  std::uint64_t context_switches() const { return ctx_switches_; }

  void reset_accounting();

 private:
  // Books `cost` of `owner`'s work (plus any context switch) and returns
  // its completion time.
  Nanos account(Nanos cost, CostCategory cat, OwnerId owner);

  Simulator& sim_;
  CoreId id_;
  Nanos ctx_cost_;
  Nanos busy_until_ = 0;
  OwnerId last_owner_ = kNoOwner;
  std::array<Nanos, static_cast<std::size_t>(CostCategory::kCategoryCount)>
      busy_{};
  std::uint64_t ctx_switches_ = 0;
};

}  // namespace lvrm::sim
