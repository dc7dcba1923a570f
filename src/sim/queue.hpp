// queue.hpp — bounded FIFO used as NIC rings and (simulated) IPC queues.
//
// This is the *simulation-side* queue: a passive bounded buffer with drop
// accounting and an observer hook that wakes the consuming PollServer. The
// real lock-free SPSC ring that the thesis ships between processes lives in
// src/queue/spsc_ring.hpp; inside the simulator, process placement is virtual,
// so a single-threaded ring with the same FIFO/bounded semantics stands in for
// it while queue *lengths*, drops and priorities behave identically.
//
// The ring's storage is a power of two that doubles on demand and stops once
// it holds `capacity` items; nothing is reserved up front, so a queue that
// hovers near empty stays a few slots large, and once warm a push or pop
// touches no allocator. A ring of trivially copyable items (FrameMeta) grows
// with realloc, which extends or remaps a large block instead of copying it,
// so filling a deep queue from empty touches each item's memory once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "common/units.hpp"

namespace lvrm::sim {

template <typename T>
class BoundedQueue {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "the ring is malloc'd");

 public:
  explicit BoundedQueue(std::size_t capacity, std::string name = {})
      : capacity_(capacity), name_(std::move(name)) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;
  ~BoundedQueue() {
    clear();
    std::free(ring_);
  }

  /// Attempts to enqueue; returns false (and counts a drop) when full.
  bool push(T item) {
    if (count_ >= capacity_) {
      ++drops_;
      return false;
    }
    if (count_ == slots_) grow();
    ::new (static_cast<void*>(slot(count_))) T(std::move(item));
    ++count_;
    ++enqueued_;
    if (count_ == 1 && on_nonempty_) on_nonempty_();
    return true;
  }

  /// Pops the head; only valid when !empty().
  T pop() {
    T* head = slot(0);
    T item = std::move(*head);
    head->~T();
    head_ = (head_ + 1) & (slots_ - 1);
    --count_;
    ++dequeued_;
    return item;
  }

  /// Peeks at the head without removing it; only valid when !empty().
  const T& front() const { return *slot(0); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t dequeued() const { return dequeued_; }

  const std::string& name() const { return name_; }

  /// Registers the wake-up hook invoked when the queue transitions from
  /// empty to non-empty (at most one observer; the consuming server).
  void set_observer(std::function<void()> fn) { on_nonempty_ = std::move(fn); }

  /// Destroys every queued item; the counters are kept.
  void clear() {
    for (std::size_t i = 0; i < count_; ++i) slot(i)->~T();
    head_ = 0;
    count_ = 0;
  }

 private:
  // Items live only in the slots [head_, head_ + count_) modulo slots_.
  T* slot(std::size_t i) const { return ring_ + ((head_ + i) & (slots_ - 1)); }

  // Doubles the ring (from 8 slots); only called when it is full.
  void grow() {
    const std::size_t old = slots_;
    const std::size_t grown = std::max<std::size_t>(8, 2 * old);
    if constexpr (std::is_trivially_copyable_v<T>) {
      // realloc keeps the items in place; the ones that wrapped around to
      // [0, head_) move up behind the others, to [old, old + head_).
      void* ring = std::realloc(ring_, grown * sizeof(T));
      if (ring == nullptr) throw std::bad_alloc();
      ring_ = static_cast<T*>(ring);
      std::memcpy(ring_ + old, ring_, head_ * sizeof(T));
    } else {
      T* ring = static_cast<T*>(std::malloc(grown * sizeof(T)));
      if (ring == nullptr) throw std::bad_alloc();
      for (std::size_t i = 0; i < count_; ++i) {
        T* from = slot(i);
        ::new (static_cast<void*>(ring + i)) T(std::move(*from));
        from->~T();
      }
      std::free(ring_);
      ring_ = ring;
      head_ = 0;
    }
    slots_ = grown;
  }

  std::size_t capacity_;
  std::string name_;
  T* ring_ = nullptr;      // malloc'd, slots_ items large
  std::size_t slots_ = 0;  // zero or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dequeued_ = 0;
  std::function<void()> on_nonempty_;
};

}  // namespace lvrm::sim
