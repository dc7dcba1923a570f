#include "sim/event_queue.hpp"

#include <algorithm>

namespace lvrm::sim {

namespace {
constexpr std::size_t kNotFound = ~std::size_t{0};
constexpr std::size_t kMinIdBuckets = 64;
}  // namespace

EventQueue::EventQueue() : ids_(kMinIdBuckets) {}

void EventQueue::add_chunk() {
  const auto first = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
  chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
  heap_pos_.resize(chunks_.size() * kChunkSlots);
  // fire_due() returns slots to the free list from a destructor; reserving
  // every slot up front keeps that push_back from ever allocating.
  free_.reserve(chunks_.size() * kChunkSlots);
  for (std::uint32_t s = first + kChunkSlots; s-- > first;) free_.push_back(s);
}

void EventQueue::link(Nanos at, EventId id, std::uint32_t slot,
                      bool indexed) {
  if (indexed) insert_id(id, slot);
  heap_.push_back(Entry{});
  sift_up(heap_.size() - 1, Entry{at, id, slot, indexed});
}

void EventQueue::cancel(EventId id) {
  const std::size_t bucket = find_id(id);
  if (bucket == kNotFound) return;
  const std::uint32_t slot = ids_[bucket].slot;
  erase_id_at(bucket);
  remove_at(heap_pos_[slot]);
  // The queue is consistent before the callable's destructor runs, so the
  // destructor may itself push or cancel.
  callback(slot).reset();
  free_.push_back(slot);
}

EventQueue::Entry EventQueue::detach_top() {
  const Entry top = heap_.front();
  if (top.indexed) erase_id_at(find_id(top.id));
  remove_at(0);
  return top;
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  const Entry top = detach_top();
  Fired fired{top.at, top.id, std::move(callback(top.slot))};
  free_.push_back(top.slot);
  return fired;
}

bool EventQueue::fire_due(Nanos deadline, Nanos& clock, std::uint64_t& fired) {
  if (heap_.empty() || heap_.front().at > deadline) return false;
  const Entry top = detach_top();
  clock = std::max(clock, top.at);
  ++fired;
  struct Release {
    EventQueue& q;
    std::uint32_t slot;
    ~Release() { q.free_.push_back(slot); }
  } release{*this, top.slot};
  Callback& cb = callback(top.slot);
  if (cb) cb.consume();
  return true;
}

void EventQueue::sift_up(std::size_t i, const Entry& e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void EventQueue::remove_at(std::size_t i) {
  assert(i < heap_.size() && heap_pos_[heap_[i].slot] == i);
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (i == n) return;
  // Bottom-up: walk the hole down to a leaf along the smaller children, then
  // sift `last` up from there, past `i` if it belongs above. `last` came from
  // the bottom, so it rarely climbs far, and this saves the comparison with
  // `last` at every level on the way down.
  for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    place(i, heap_[child]);
    i = child;
  }
  sift_up(i, last);
}

// The id table is Robin Hood linear probing: along a probe run, entries sit
// in order of their home bucket. So find() stops at the first entry closer
// to its home than the probe is to the id's home, and erase shifts the run
// back only up to the next entry sitting at its home. Sequential ids mostly
// sit at home, which keeps both O(1).
std::size_t EventQueue::id_distance(std::size_t bucket) const {
  return (bucket - id_bucket(ids_[bucket].id)) & (ids_.size() - 1);
}

std::size_t EventQueue::find_id(EventId id) const {
  if (id == kInvalidEvent) return kNotFound;
  const std::size_t mask = ids_.size() - 1;
  for (std::size_t b = id_bucket(id), d = 0;; b = (b + 1) & mask, ++d) {
    if (ids_[b].id == id) return b;
    if (ids_[b].id == kInvalidEvent || id_distance(b) < d) return kNotFound;
  }
}

void EventQueue::insert_id(EventId id, std::uint32_t slot) {
  // The table holds the queued cancellable events, so at most heap_.size()
  // of them; keep it at most half full.
  if (2 * (heap_.size() + 1) > ids_.size()) {
    std::vector<IdSlot> old(2 * ids_.size());
    old.swap(ids_);
    for (const IdSlot& e : old)
      if (e.id != kInvalidEvent) insert_id(e.id, e.slot);
  }
  const std::size_t mask = ids_.size() - 1;
  IdSlot carry{id, slot};
  for (std::size_t b = id_bucket(id), d = 0;; b = (b + 1) & mask, ++d) {
    if (ids_[b].id == kInvalidEvent) {
      ids_[b] = carry;
      return;
    }
    const std::size_t resident = id_distance(b);
    if (resident < d) {  // the entry nearer its home yields the bucket
      std::swap(carry, ids_[b]);
      d = resident;
    }
  }
}

void EventQueue::erase_id_at(std::size_t bucket) {
  assert(bucket != kNotFound);
  const std::size_t mask = ids_.size() - 1;
  std::size_t hole = bucket;
  for (std::size_t b = (hole + 1) & mask;
       ids_[b].id != kInvalidEvent && id_distance(b) != 0; b = (b + 1) & mask) {
    ids_[hole] = ids_[b];
    hole = b;
  }
  ids_[hole] = IdSlot{};
}

}  // namespace lvrm::sim
