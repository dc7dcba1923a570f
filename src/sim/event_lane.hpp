// event_lane.hpp — a FIFO of events whose times never decrease, with only its
// head in the event heap.
//
// A link delivers frames in transmit order, and a constant host latency keeps
// arrival order. Scheduling each such delay with Simulator::at parks every
// in-flight frame in the heap: thousands of entries behind a full TCP
// bottleneck. An EventLane keeps them in its own ring and holds one heap
// event, for the head (htsim's pipes and queues do the same).
//
// Same events, same order: at() takes the item's EventId from the kernel at
// push time, exactly where Simulator::at would have, and the head event is
// queued under that reserved (at, id) key. Keys never decrease along a lane,
// so its head is its earliest item, and every item fires at the position its
// own at() would have had. EventIds, events_processed() and the firing order
// are those of one Simulator::at per item.
//
// The head event refers to the lane, so a lane with pending items must
// outlive any further run of its Simulator.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace lvrm::sim {

class EventLane {
 public:
  explicit EventLane(Simulator& sim) : sim_(sim) {}
  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  /// Schedules `cb` at `when` (clamped to now), as Simulator::at would. The
  /// clamped time must not be earlier than that of the lane's last pending
  /// item. Pending items cannot be cancelled.
  template <typename F>
  void at(Nanos when, F&& cb) {
    when = std::max(when, sim_.now_);
    assert(count_ == 0 || when >= slot(count_ - 1).at);
    if (count_ == ring_.size()) grow();
    Item& item = slot(count_);
    item.cb.emplace(std::forward<F>(cb));
    item.at = when;
    item.id = sim_.queue_.reserve();
    if (++count_ == 1) arm();
  }

  /// Schedules `cb` after a relative delay, as Simulator::after would.
  template <typename F>
  void after(Nanos delay, F&& cb) {
    at(sim_.now_ + std::max<Nanos>(delay, 0), std::forward<F>(cb));
  }

  /// Items pushed and not yet fired (the one firing now is not counted).
  std::size_t size() const { return count_; }

 private:
  struct Item {
    Nanos at = 0;
    EventId id = kInvalidEvent;
    Callback cb;
  };

  Item& slot(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }

  // Queues the head under its reserved key.
  void arm() {
    const Item& head = ring_[head_];
    sim_.queue_.push_reserved(head.at, head.id, [this] { fire(); });
  }

  // Pops the head and arms the next item before running the head's callback,
  // which may push onto this lane again.
  void fire() {
    Callback cb = std::move(ring_[head_].cb);
    head_ = (head_ + 1) & (ring_.size() - 1);
    if (--count_ > 0) arm();
    if (cb) cb.consume();
  }

  void grow() {
    std::vector<Item> grown(std::max<std::size_t>(8, 2 * ring_.size()));
    for (std::size_t i = 0; i < count_; ++i) grown[i] = std::move(slot(i));
    ring_.swap(grown);
    head_ = 0;
  }

  Simulator& sim_;
  std::vector<Item> ring_;  // power-of-two size
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace lvrm::sim
