// simulator.hpp — the virtual clock and event loop.
//
// Everything in the reproduction that the paper ran on wall-clock hardware
// (links, CPU cores, 1-second allocation periods, TCP timers) runs against
// this clock instead, which makes every figure deterministic and lets a
// "600-second" experiment finish in milliseconds of host time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace lvrm::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Nanos now() const { return now_; }

  /// Schedules `cb` (any `void()` callable) at absolute virtual time `at`
  /// (clamped to now). The callable is constructed in its event slot.
  template <typename F>
  EventId at(Nanos when, F&& cb) {
    return queue_.push(std::max(when, now_), std::forward<F>(cb));
  }

  /// Schedules `cb` after a relative delay.
  template <typename F>
  EventId after(Nanos delay, F&& cb) {
    return queue_.push(now_ + std::max<Nanos>(delay, 0), std::forward<F>(cb));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the queue drains or the clock passes `deadline`, whichever
  /// comes first. Events scheduled exactly at `deadline` still fire.
  void run_until(Nanos deadline);

  /// Runs until the queue drains, with a safety cap on the number of events
  /// (guards against accidental event storms in tests).
  void run_all(std::uint64_t max_events = 500'000'000ULL);

  /// Fires exactly one event if any is pending. Returns false when idle.
  bool step() {
    return queue_.fire_due(std::numeric_limits<Nanos>::max(), now_,
                           processed_);
  }

  std::uint64_t events_processed() const { return processed_; }
  bool idle() const { return queue_.empty(); }

 private:
  friend class EventLane;

  Nanos now_ = 0;
  EventQueue queue_;
  std::uint64_t processed_ = 0;
};

}  // namespace lvrm::sim
