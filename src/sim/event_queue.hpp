// event_queue.hpp — cancellable min-heap of timestamped events.
//
// Events pop in (time, insertion sequence) order, so simulation runs are
// fully deterministic regardless of heap internals. EventIds are handed out
// sequentially from 1 in push order; an EventLane (event_lane.hpp) takes its
// items' ids at its own push and queues them later under those ids.
//
// Nothing on the event path allocates once the queue has warmed up
// (DESIGN.md "Event kernel"):
//   * each callback is constructed in place in a slot of a chunked slab;
//     slots never move, so a callback runs where it lies while it schedules
//     more events, and freed slots are reused through a free list;
//   * the binary min-heap holds {at, id, slot} and every slot records its
//     heap position, so cancel() takes the entry out at once and the heap
//     holds only live events (TCP re-arms its RTO timer on every ACK);
//   * cancel() finds the slot of an id in a flat open-addressing table.
//     EventLane's head events cannot be cancelled and skip the table.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/callback.hpp"

namespace lvrm::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  using Callback = sim::Callback;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `cb` (any `void()` callable, or a Callback) to fire at absolute
  /// time `at`. Returns a handle usable with cancel().
  template <typename F>
  EventId push(Nanos at, F&& cb) {
    const std::uint32_t slot = fill_slot(std::forward<F>(cb));
    const EventId id = next_id_++;
    link(at, id, slot, true);
    return id;
  }

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled,
  /// currently-firing or unknown id is a no-op.
  void cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Earliest pending event time; only valid when !empty().
  Nanos next_time() const {
    assert(!empty());
    return heap_.front().at;
  }

  /// Pops and returns the earliest event. Only valid when !empty().
  struct Fired {
    Nanos at;
    EventId id;
    Callback cb;
  };
  Fired pop();

 private:
  friend class Simulator;
  friend class EventLane;

  static constexpr std::size_t kChunkSlots = 256;

  struct Entry {
    Nanos at;
    EventId id;
    std::uint32_t slot;
    bool indexed;  // in the id table, i.e. cancellable
  };
  // Min-heap order on (at, id): earlier time first, then insertion order.
  static bool before(const Entry& a, const Entry& b) {
    return a.at < b.at || (a.at == b.at && a.id < b.id);
  }

  struct IdSlot {
    EventId id = kInvalidEvent;  // kInvalidEvent marks an empty bucket
    std::uint32_t slot = 0;
  };

  Callback& callback(std::uint32_t slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }

  /// The Simulator's fused next_time() + pop(): if the earliest event is due
  /// at or before `deadline`, takes it off the heap and the id table (so
  /// cancelling it is a no-op from now on), advances `clock` to its time,
  /// counts it in `fired`, runs its callback in place and frees its slot.
  /// Returns false when nothing is due.
  bool fire_due(Nanos deadline, Nanos& clock, std::uint64_t& fired);

  template <typename F>
  std::uint32_t fill_slot(F&& cb) {
    if (free_.empty()) add_chunk();
    const std::uint32_t slot = free_.back();
    callback(slot).emplace(std::forward<F>(cb));
    free_.pop_back();
    return slot;
  }

  // EventLane's entry points. reserve() takes the next EventId, exactly as a
  // push() would, without queueing anything; push_reserved() later queues a
  // callback under that id. An event fires at its (at, id) key whenever it
  // entered the heap, so a reserved id keeps the place its push() would have.
  // Nobody holds a reserved id, so such an event stays out of the id table
  // and cancel() does not find it.
  EventId reserve() { return next_id_++; }
  template <typename F>
  void push_reserved(Nanos at, EventId id, F&& cb) {
    assert(id != kInvalidEvent && id < next_id_);
    link(at, id, fill_slot(std::forward<F>(cb)), false);
  }

  void add_chunk();
  void link(Nanos at, EventId id, std::uint32_t slot, bool indexed);

  // The helpers below run on every event. They are defined, and inlined,
  // in event_queue.cpp only.
  inline Entry detach_top();

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    heap_pos_[e.slot] = static_cast<std::uint32_t>(i);
  }
  inline void sift_up(std::size_t i, const Entry& e);
  inline void remove_at(std::size_t i);

  std::size_t id_bucket(EventId id) const {
    return static_cast<std::size_t>(id) & (ids_.size() - 1);
  }
  inline std::size_t id_distance(std::size_t bucket) const;
  inline std::size_t find_id(EventId id) const;
  inline void insert_id(EventId id, std::uint32_t slot);
  inline void erase_id_at(std::size_t bucket);

  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<std::uint32_t> free_;      // LIFO; capacity = total slots
  std::vector<std::uint32_t> heap_pos_;  // per slot, valid while queued
  std::vector<Entry> heap_;
  // id -> slot, Robin Hood linear probing, power-of-two size, at most half
  // full. Ids are sequential, so the identity hash puts live ids in distinct
  // buckets unless they lie a table size apart.
  std::vector<IdSlot> ids_;
  EventId next_id_ = 1;
};

}  // namespace lvrm::sim
