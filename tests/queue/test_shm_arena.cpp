#include "queue/shm_arena.hpp"

#include <gtest/gtest.h>

namespace lvrm::queue {
namespace {

TEST(ShmArena, CreateAndAttach) {
  ShmArena arena;
  const SegmentId id = arena.create(128);
  const auto span = arena.attach(id);
  ASSERT_EQ(span.size(), 128u);
  // Segments start zeroed (like shmget with IPC_CREAT).
  for (auto b : span) EXPECT_EQ(b, 0);
}

TEST(ShmArena, DistinctIds) {
  ShmArena arena;
  const SegmentId a = arena.create(16);
  const SegmentId b = arena.create(16);
  EXPECT_NE(a, b);
}

TEST(ShmArena, WritesVisibleThroughReattach) {
  ShmArena arena;
  const SegmentId id = arena.create(8);
  arena.attach(id)[3] = 0xAB;
  EXPECT_EQ(arena.attach(id)[3], 0xAB);
}

TEST(ShmArena, AttachUnknownIdFails) {
  ShmArena arena;
  EXPECT_TRUE(arena.attach(12345).empty());
  EXPECT_TRUE(arena.attach(kInvalidSegment).empty());
}

TEST(ShmArena, DestroyReleases) {
  ShmArena arena;
  const SegmentId id = arena.create(64);
  EXPECT_EQ(arena.total_bytes(), 64u);
  arena.destroy(id);
  EXPECT_TRUE(arena.attach(id).empty());
  EXPECT_EQ(arena.total_bytes(), 0u);
  EXPECT_EQ(arena.segment_count(), 0u);
  arena.destroy(id);  // double destroy is a no-op
}

TEST(ShmArena, BytesAreCommittedAtFirstAttach) {
  ShmArena arena;
  const SegmentId a = arena.create(64);
  const SegmentId b = arena.create(32);
  EXPECT_EQ(arena.total_bytes(), 96u);
  EXPECT_EQ(arena.committed_bytes(), 0u);  // created, never attached
  arena.attach(a)[0] = 0x5A;
  EXPECT_EQ(arena.committed_bytes(), 64u);
  EXPECT_EQ(arena.attach(a)[0], 0x5A);  // a second attach keeps the bytes
  EXPECT_EQ(arena.committed_bytes(), 64u);
  const auto span = arena.attach(b);
  ASSERT_EQ(span.size(), 32u);
  for (auto byte : span) EXPECT_EQ(byte, 0);
  EXPECT_EQ(arena.committed_bytes(), 96u);
  arena.destroy(a);
  EXPECT_EQ(arena.committed_bytes(), 32u);
  EXPECT_EQ(arena.total_bytes(), 32u);
  const SegmentId c = arena.create(16);
  arena.destroy(c);  // never attached: nothing committed to give back
  EXPECT_EQ(arena.committed_bytes(), 32u);
  EXPECT_EQ(arena.total_bytes(), 32u);
}

}  // namespace
}  // namespace lvrm::queue
