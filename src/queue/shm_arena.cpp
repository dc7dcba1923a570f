#include "queue/shm_arena.hpp"

namespace lvrm::queue {

SegmentId ShmArena::create(std::size_t bytes) {
  const SegmentId id = next_id_++;
  segments_.emplace(id, Segment{bytes, {}});
  total_bytes_ += bytes;
  return id;
}

std::span<std::uint8_t> ShmArena::attach(SegmentId id) {
  const auto it = segments_.find(id);
  if (it == segments_.end()) return {};
  Segment& seg = it->second;
  if (seg.memory.size() != seg.bytes) {
    seg.memory.assign(seg.bytes, 0);
    committed_bytes_ += seg.bytes;
  }
  return std::span<std::uint8_t>(seg.memory);
}

void ShmArena::destroy(SegmentId id) {
  const auto it = segments_.find(id);
  if (it == segments_.end()) return;
  total_bytes_ -= it->second.bytes;
  committed_bytes_ -= it->second.memory.size();
  segments_.erase(it);
}

}  // namespace lvrm::queue
