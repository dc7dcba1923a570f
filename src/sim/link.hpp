// link.hpp — a point-to-point link with serialization, propagation and a
// bounded transmit queue.
//
// The testbed's 1-Gigabit links are where both line-rate ceilings and TCP
// congestion drops come from: a frame occupies the wire for bytes*8 ns, and
// frames arriving while the transmit queue is full are tail-dropped, which is
// the loss signal TCP Reno reacts to in Experiments 3c and 4.
//
// A frame that finds the wire busy waits in the transmit queue until its
// serialization starts; every frame is delivered once serialization and
// propagation are over. The wire frees up at non-decreasing times and
// propagation is fixed, so both kinds of event come in FIFO order, and each
// runs on its own EventLane (event_lane.hpp): a queued frame costs a ring
// slot, not a heap entry, and the heap holds at most one event per lane.
// The starts lane carries no callbacks; its length is the backlog.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/units.hpp"
#include "sim/event_lane.hpp"
#include "sim/simulator.hpp"

namespace lvrm::sim {

class Link {
 public:
  /// `queue_limit` is the transmit-queue depth in frames (excludes the frame
  /// currently on the wire), matching a NIC TX ring.
  Link(Simulator& sim, BitsPerSec rate, Nanos propagation,
       std::size_t queue_limit)
      : sim_(sim),
        rate_(rate),
        propagation_(propagation),
        queue_limit_(queue_limit),
        starts_(sim),
        deliveries_(sim) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Queues `bytes` for transmission; `deliver` (any `void()` callable, or
  /// nullptr) fires at the receiver once serialization + propagation
  /// complete. It is constructed in place in its delivery-lane slot. Returns
  /// false (tail drop) when the transmit queue is full.
  template <typename F>
  bool transmit(std::int64_t bytes, F&& deliver) {
    // A frame whose serialization has not begun occupies a TX-ring slot.
    const Nanos now = sim_.now();
    const bool wire_busy = wire_free_at_ > now;
    if (wire_busy && backlog() >= queue_limit_) {
      ++drops_;
      return false;
    }

    const Nanos start = std::max(now, wire_free_at_);
    const Nanos wire = wire_time(bytes, rate_);
    wire_free_at_ = start + wire;
    busy_time_ += wire;

    if (wire_busy) starts_.at(start, nullptr);
    deliveries_.at(wire_free_at_ + propagation_, std::forward<F>(deliver));
    ++accepted_;
    return true;
  }

  std::uint64_t delivered() const { return accepted_ - deliveries_.size(); }
  std::uint64_t drops() const { return drops_; }
  std::size_t backlog() const { return starts_.size(); }
  BitsPerSec rate() const { return rate_; }

  /// Nanoseconds the wire has been occupied (for utilization reporting).
  Nanos busy_time() const { return busy_time_; }

 private:
  Simulator& sim_;
  BitsPerSec rate_;
  Nanos propagation_;
  std::size_t queue_limit_;
  Nanos wire_free_at_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t drops_ = 0;
  Nanos busy_time_ = 0;
  EventLane starts_;      // one empty item per frame waiting for the wire
  EventLane deliveries_;  // one `deliver` per frame in flight
};

}  // namespace lvrm::sim
