// frame_pool.hpp — shared-memory frame arena + 32-bit descriptor handles.
//
// The thesis' LVRM moves packet bytes exactly once: the capture path writes a
// frame into a per-queue shm segment (Sec 3.8) and everything downstream
// passes *references* to it. FramePool is that economy for code that moves
// frames between real threads: frames live in cache-line-aligned slots
// inside a ShmArena segment (same shmget/shmat protocol the queues use) and
// the rings carry a 32-bit FrameHandle descriptor instead of the payload.
// The simulated LvrmSystem does not use it: no frame crosses real memory
// there, so its queues carry the FrameMeta itself (DESIGN.md §12).
//
// Handle layout — {generation:8 | slot index:24}:
//   * the index addresses one of up to 2^24 slots;
//   * the generation is bumped on every release, so a stale handle (kept
//     across a free, the classic use-after-free of descriptor schemes) is
//     caught by the debug-build validity asserts instead of silently reading
//     a recycled frame.
//
// Recycling runs through a lock-free SPSC free-list ring: slot indices are
// pushed at release and popped at acquire. That restricts the pool to ONE
// acquiring endpoint and ONE releasing endpoint at a time: ingress acquires,
// TX completion / drop paths release. The free list is sized >= capacity,
// so a release can never fail.
//
// Exhaustion is not an error: acquire() returns kInvalidFrameHandle, bumps
// the exhausted counter, and the caller drops the newest frame (RX tail-drop
// semantics, same as a full RX ring).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "net/frame.hpp"
#include "queue/shm_arena.hpp"
#include "queue/spsc_ring.hpp"

namespace lvrm::net {

/// 32-bit descriptor naming one pooled frame: {generation:8 | index:24}.
using FrameHandle = std::uint32_t;

inline constexpr FrameHandle kInvalidFrameHandle = 0xFFFFFFFFu;
inline constexpr std::uint32_t kFrameHandleIndexBits = 24;
inline constexpr std::uint32_t kFrameHandleIndexMask =
    (1u << kFrameHandleIndexBits) - 1u;

class FramePool {
 public:
  /// One pooled frame. The generation counter shares the slot's line tail —
  /// it is only touched at acquire/release, never per hop — and is atomic so
  /// the two-endpoint (RX thread / TX thread) regime stays race-free under
  /// TSan without any per-hop cost.
  struct alignas(queue::kCacheLine) Slot {
    FrameMeta meta;
    std::atomic<std::uint8_t> generation{0};
  };

  /// Carves `capacity` slots out of `arena` (one segment, created here and
  /// destroyed with the pool) and seeds the free list with every index.
  /// `arena` must outlive the pool.
  FramePool(queue::ShmArena& arena, std::size_t capacity);
  ~FramePool();

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Takes a free slot; kInvalidFrameHandle when the pool is exhausted (the
  /// caller owns the drop accounting). Single acquiring endpoint only — the
  /// counters it writes are single-writer, so a plain load+store (no
  /// lock-prefixed RMW) keeps this off the per-frame critical path.
  FrameHandle acquire() {
    const auto idx = free_list_.try_pop();
    if (!idx) {
      bump(exhausted_);
      return kInvalidFrameHandle;
    }
    bump(acquired_);
    const std::uint32_t gen =
        slots_[*idx].generation.load(std::memory_order_relaxed);
    return (gen << kFrameHandleIndexBits) | *idx;
  }

  /// Returns a slot to the free list and invalidates outstanding handles to
  /// it (generation bump). Single releasing endpoint only; never fails. The
  /// generation has exactly this one writer, so the bump is a load+store
  /// rather than an atomic RMW.
  void release(FrameHandle h) {
    const std::uint32_t idx = h & kFrameHandleIndexMask;
    assert(idx < capacity_ && "release: handle index out of range");
    const std::uint8_t gen =
        slots_[idx].generation.load(std::memory_order_relaxed);
    assert(((h >> kFrameHandleIndexBits) & 0xFFu) == gen &&
           "release: stale handle (double free?)");
    slots_[idx].generation.store(static_cast<std::uint8_t>(gen + 1),
                                 std::memory_order_relaxed);
    bump(released_);
    const bool ok = free_list_.try_push(idx);
    assert(ok && "free list sized >= capacity; push cannot fail");
    (void)ok;
  }

  /// Resolves a handle to its slot's frame. Debug builds verify the
  /// generation so stale handles fault loudly instead of aliasing a
  /// recycled frame.
  FrameMeta& at(FrameHandle h) {
    const std::uint32_t idx = h & kFrameHandleIndexMask;
    assert(idx < capacity_ && "at: handle index out of range");
    assert(((h >> kFrameHandleIndexBits) & 0xFFu) ==
               slots_[idx].generation.load(std::memory_order_relaxed) &&
           "at: stale handle");
    return slots_[idx].meta;
  }
  const FrameMeta& at(FrameHandle h) const {
    return const_cast<FramePool*>(this)->at(h);
  }

  /// Hints the referenced slot into cache ahead of use — issued over a whole
  /// popped batch before the serve loop touches any meta.
  void prefetch(FrameHandle h) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[h & kFrameHandleIndexMask].meta, 0, 3);
#else
    (void)h;
#endif
  }

  std::size_t capacity() const { return capacity_; }
  /// Conservation invariant: acquired == released + in_flight, always.
  std::uint64_t in_flight() const {
    return acquired_.load(std::memory_order_relaxed) -
           released_.load(std::memory_order_relaxed);
  }
  std::uint64_t acquired_total() const {
    return acquired_.load(std::memory_order_relaxed);
  }
  std::uint64_t released_total() const {
    return released_.load(std::memory_order_relaxed);
  }
  std::uint64_t exhausted_total() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  queue::SegmentId segment() const { return segment_; }

 private:
  /// Single-writer increment: each of the three counters is written by
  /// exactly one endpoint (acquired_/exhausted_ by the acquirer, released_
  /// by the releaser), so load+store is race-free and avoids paying a
  /// lock-prefixed fetch_add per frame; atomics only so the OTHER endpoint
  /// (and gauges) can read a torn-free value.
  static void bump(std::atomic<std::uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  queue::ShmArena& arena_;
  queue::SegmentId segment_ = queue::kInvalidSegment;
  Slot* slots_ = nullptr;  // placement-new'd inside the shm segment
  std::size_t capacity_ = 0;
  queue::SpscRing<std::uint32_t> free_list_;
  std::atomic<std::uint64_t> acquired_{0};
  std::atomic<std::uint64_t> released_{0};
  std::atomic<std::uint64_t> exhausted_{0};
};

}  // namespace lvrm::net
