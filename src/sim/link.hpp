// link.hpp — a point-to-point link with serialization, propagation and a
// bounded transmit queue.
//
// The testbed's 1-Gigabit links are where both line-rate ceilings and TCP
// congestion drops come from: a frame occupies the wire for bytes*8 ns, and
// frames arriving while the transmit queue is full are tail-dropped, which is
// the loss signal TCP Reno reacts to in Experiments 3c and 4.
//
// Deliveries fire in transmit order: the wire frees up at non-decreasing
// times and propagation is fixed, and equal times fire in push order. So the
// link keeps the pending `deliver` callbacks in a FIFO ring, and each
// delivery event captures only `this` and runs the ring's head.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
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
        queue_limit_(queue_limit) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Queues `bytes` for transmission; `deliver` fires at the receiver once
  /// serialization + propagation complete. Returns false (tail drop) when
  /// the transmit queue is full.
  bool transmit(std::int64_t bytes, Callback deliver);

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t drops() const { return drops_; }
  std::size_t backlog() const { return backlog_; }
  BitsPerSec rate() const { return rate_; }

  /// Nanoseconds the wire has been occupied (for utilization reporting).
  Nanos busy_time() const { return busy_time_; }

 private:
  void deliver_next();

  Simulator& sim_;
  BitsPerSec rate_;
  Nanos propagation_;
  std::size_t queue_limit_;
  Nanos wire_free_at_ = 0;
  std::size_t backlog_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t drops_ = 0;
  Nanos busy_time_ = 0;
  // Pending deliveries in transmit order: a ring of power-of-two size.
  std::vector<Callback> pending_;
  std::size_t pending_head_ = 0;
  std::size_t pending_count_ = 0;
};

}  // namespace lvrm::sim
