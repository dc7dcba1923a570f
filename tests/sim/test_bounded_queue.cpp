#include "sim/queue.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <type_traits>

#include "common/rng.hpp"

namespace lvrm::sim {
namespace {

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueue, DropsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, ObserverFiresOnEmptyToNonEmptyOnly) {
  BoundedQueue<int> q(8);
  int wakeups = 0;
  q.set_observer([&] { ++wakeups; });
  q.push(1);
  q.push(2);  // queue already non-empty: no wakeup
  EXPECT_EQ(wakeups, 1);
  q.pop();
  q.pop();
  q.push(3);
  EXPECT_EQ(wakeups, 2);
}

TEST(BoundedQueue, CountersTrackThroughput) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) q.push(i);
  for (int i = 0; i < 3; ++i) q.pop();
  EXPECT_EQ(q.enqueued(), 5u);
  EXPECT_EQ(q.dequeued(), 3u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, FrontPeeks) {
  BoundedQueue<int> q(4);
  q.push(42);
  EXPECT_EQ(q.front(), 42);
  EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueue, ClearEmpties) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, MoveOnlyItems) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  q.push(std::make_unique<int>(9));
  auto p = q.pop();
  EXPECT_EQ(*p, 9);
}

TEST(BoundedQueue, ClearDestroysItemsAndKeepsCounters) {
  auto item = std::make_shared<int>(7);
  BoundedQueue<std::shared_ptr<int>> q(4);
  q.push(item);
  q.push(item);
  EXPECT_EQ(item.use_count(), 3);
  q.clear();
  EXPECT_EQ(item.use_count(), 1);
  EXPECT_EQ(q.enqueued(), 2u);
  q.push(item);  // usable again after clear
  EXPECT_EQ(q.pop(), item);
}

TEST(BoundedQueue, DestructorDestroysQueuedItems) {
  auto item = std::make_shared<int>(7);
  {
    BoundedQueue<std::shared_ptr<int>> q(64);
    for (int i = 0; i < 20; ++i) q.push(item);  // grows while non-empty
    q.pop();
  }
  EXPECT_EQ(item.use_count(), 1);
}

// Item types for the tests below. A ring of trivially copyable items grows
// by realloc, any other by moving each item; both must behave the same.
// Strings longer than the small-string buffer catch a ring that copies
// bytes instead of moving objects.
struct Plain {
  std::uint64_t v;
  char pad[40];
  bool operator==(const Plain& o) const { return v == o.v; }
};
static_assert(std::is_trivially_copyable_v<Plain>);

template <typename T>
T make_item(int n) {
  if constexpr (std::is_same_v<T, std::string>) {
    return "item-" + std::to_string(n) + "-padding-past-the-sso-buffer";
  } else {
    return Plain{static_cast<std::uint64_t>(n), {}};
  }
}

template <typename T>
class BoundedQueueTyped : public testing::Test {};
using ItemTypes = testing::Types<std::string, Plain>;
TYPED_TEST_SUITE(BoundedQueueTyped, ItemTypes);

// The ring is full with its head mid-ring when it grows: the items that
// wrapped around to the ring's start must come out after the others.
TYPED_TEST(BoundedQueueTyped, GrowsWhileWrapped) {
  BoundedQueue<TypeParam> q(64);
  int pushed = 0, popped = 0;
  for (int i = 0; i < 6; ++i) q.push(make_item<TypeParam>(pushed++));
  for (int i = 0; i < 4; ++i) ASSERT_EQ(q.pop(), make_item<TypeParam>(popped++));
  // 8 slots: head at 4, and pushes 6..11 wrap to slots 2..3 and 0..1 ...
  while (q.size() < 8) q.push(make_item<TypeParam>(pushed++));
  // ... then 12 more grow the ring to 16 and 32 slots.
  for (int i = 0; i < 12; ++i) q.push(make_item<TypeParam>(pushed++));
  while (!q.empty()) ASSERT_EQ(q.pop(), make_item<TypeParam>(popped++));
  EXPECT_EQ(popped, pushed);
}

// Seeded random operations against a std::deque model with the same bound:
// every push result, popped value, front, size and counter must agree, and
// the observer must fire exactly on the model's empty -> non-empty pushes.
TYPED_TEST(BoundedQueueTyped, MatchesDequeModelUnderRandomOperations) {
  for (std::size_t capacity = 1; capacity <= 64; ++capacity) {
    SCOPED_TRACE(capacity);
    Rng rng(1000 + capacity);
    BoundedQueue<TypeParam> q(capacity, "q");
    std::deque<TypeParam> model;
    std::uint64_t drops = 0, enqueued = 0, dequeued = 0;
    int wakeups = 0, expected_wakeups = 0;
    q.set_observer([&] { ++wakeups; });
    int next = 0;
    for (std::size_t op = 0; op < 4000; ++op) {
      // Phases that lean to pushing or popping sweep the fill level from
      // empty to full and back, so the ring wraps and grows while holding
      // items, and pushes at capacity drop.
      const bool filling = (op / (4 * capacity + 20)) % 2 == 0;
      const std::uint64_t r = rng.next() % 1000;
      if (r < 2) {
        q.clear();
        model.clear();
      } else if (filling ? r < 700 : r < 300) {
        const TypeParam item = make_item<TypeParam>(next++);
        const bool accepted = model.size() < capacity;
        if (accepted) {
          if (model.empty()) ++expected_wakeups;
          model.push_back(item);
          ++enqueued;
        } else {
          ++drops;
        }
        ASSERT_EQ(q.push(item), accepted);
      } else if (!model.empty()) {
        ASSERT_EQ(q.front(), model.front());
        ASSERT_EQ(q.pop(), model.front());
        model.pop_front();
        ++dequeued;
      }
      ASSERT_EQ(q.size(), model.size());
      ASSERT_EQ(q.empty(), model.empty());
      ASSERT_EQ(q.drops(), drops);
      ASSERT_EQ(q.enqueued(), enqueued);
      ASSERT_EQ(q.dequeued(), dequeued);
      ASSERT_EQ(wakeups, expected_wakeups);
    }
    EXPECT_GT(drops, 0u);
    EXPECT_EQ(q.capacity(), capacity);
    EXPECT_EQ(q.name(), "q");
    while (!model.empty()) {
      ASSERT_EQ(q.pop(), model.front());
      model.pop_front();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(BoundedQueue, ZeroCapacityDropsEverything) {
  BoundedQueue<int> q(0);
  EXPECT_FALSE(q.push(1));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace lvrm::sim
