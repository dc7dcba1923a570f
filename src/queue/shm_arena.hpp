// shm_arena.hpp — simulated System-V shared memory segments.
//
// The real LVRM allocates one shared memory segment per IPC queue via
// shmget() and hands the identifier to each VRI through its main() arguments
// (Sec 3.8). Inside this repository LVRM and the VRIs share an address space,
// so ShmArena reproduces the *protocol* — integer identifiers resolved to
// byte regions, explicit attach/detach, failure on unknown ids — without the
// kernel: the LVRM adapter is still initialized from a segment id exactly as
// the thesis describes.
//
// Like a real segment, whose pages are backed only once touched, a segment's
// bytes are committed (zero-filled) at its first attach. A queue whose
// segment nobody maps costs its id and size, nothing more.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace lvrm::queue {

using SegmentId = int;
inline constexpr SegmentId kInvalidSegment = -1;

class ShmArena {
 public:
  /// shmget() analogue: reserves a segment of `bytes`, returns its id.
  SegmentId create(std::size_t bytes);

  /// shmat() analogue: resolves an id to its memory, committing the zeroed
  /// bytes on the segment's first attach; empty span on failure.
  std::span<std::uint8_t> attach(SegmentId id);

  /// shmctl(IPC_RMID) analogue; destroying an unknown id is a no-op.
  void destroy(SegmentId id);

  std::size_t segment_count() const { return segments_.size(); }
  /// Bytes of every live segment, attached or not.
  std::size_t total_bytes() const { return total_bytes_; }
  /// Bytes of the live segments that have been attached at least once.
  std::size_t committed_bytes() const { return committed_bytes_; }

 private:
  struct Segment {
    std::size_t bytes = 0;
    std::vector<std::uint8_t> memory;  // empty until the first attach
  };

  std::unordered_map<SegmentId, Segment> segments_;
  SegmentId next_id_ = 1000;  // arbitrary non-zero base, like real shm ids
  std::size_t total_bytes_ = 0;
  std::size_t committed_bytes_ = 0;
};

}  // namespace lvrm::queue
