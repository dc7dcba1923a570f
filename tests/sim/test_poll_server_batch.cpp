// Tests for PollServer's per-input batching (burst draining of NIC rings).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/poll_server.hpp"

namespace lvrm::sim {
namespace {

struct Rig {
  Simulator sim;
  Core core{sim, 0, 0};
  PollServer<int> server{sim, core, 1, "batch-rig"};
};

TEST(PollServerBatch, DrainsBatchBeforeRescanningPriorities) {
  Rig rig;
  BoundedQueue<int> data(32);
  BoundedQueue<int> control(32);
  std::vector<int> order;
  rig.server.add_input(data, /*priority=*/1, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); },
                       CostCategory::kUser, /*batch=*/4);
  rig.server.add_input(control, /*priority=*/0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(100 + v); });
  for (int i = 0; i < 8; ++i) data.push(i);
  rig.server.start();
  // A control event arrives while the first data item is in service: it must
  // wait for the current batch (items 0..3), then jump the queue.
  rig.sim.at(5, [&control] { control.push(1); });
  rig.sim.run_all();
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[3], 3);
  EXPECT_EQ(order[4], 101);  // control after the batch, before data 4..7
  EXPECT_EQ(order[5], 4);
}

TEST(PollServerBatch, BatchEndsEarlyWhenInputDrains) {
  Rig rig;
  BoundedQueue<int> a(32);
  BoundedQueue<int> b(32);
  std::vector<int> order;
  rig.server.add_input(a, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); },
                       CostCategory::kUser, /*batch=*/8);
  rig.server.add_input(b, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(100 + v); },
                       CostCategory::kUser, /*batch=*/8);
  a.push(1);
  a.push(2);
  b.push(1);
  rig.server.start();
  rig.sim.run_all();
  // a drains after 2 items (below its batch of 8); b is served next.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 101}));
}

TEST(PollServerBatch, BatchOfOneIsStrictPriority) {
  Rig rig;
  BoundedQueue<int> data(32);
  BoundedQueue<int> control(32);
  std::vector<int> order;
  rig.server.add_input(data, 1, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); },
                       CostCategory::kUser, /*batch=*/1);
  rig.server.add_input(control, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(100 + v); });
  for (int i = 0; i < 4; ++i) data.push(i);
  rig.server.start();
  rig.sim.at(5, [&control] { control.push(1); });
  rig.sim.run_all();
  // With batch 1 the control event only waits for the in-service item.
  EXPECT_EQ(order[1], 101);
}

TEST(PollServerBatch, RefillDuringBatchExtendsIt) {
  Rig rig;
  BoundedQueue<int> q(32);
  std::vector<Nanos> times;
  rig.server.add_input(q, 0, [](int&) { return Nanos{10}; },
                       [&](int&&) { times.push_back(rig.sim.now()); },
                       CostCategory::kUser, /*batch=*/4);
  q.push(0);
  q.push(1);
  rig.server.start();
  rig.sim.at(15, [&q] { q.push(2); });  // lands mid-batch
  rig.sim.run_all();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[2], 30);  // served back-to-back as part of the same batch
}

// A per-item input is served as bursts of one through the same serve path
// as a coalesced input. Its `batch` keeps the loop on the input for k
// consecutive serves, one core event each, and none of them counts as a
// coalesced batch.
TEST(PollServerBatch, PerItemBatchServesOneItemPerEvent) {
  Rig rig;
  BoundedQueue<int> data(32);
  BoundedQueue<int> control(32);
  std::vector<std::pair<Nanos, int>> seen;
  rig.server.add_input(data, /*priority=*/1,
                       [](int& v) { return Nanos{10} + v; },
                       [&](int&& v) { seen.emplace_back(rig.sim.now(), v); },
                       CostCategory::kUser, /*batch=*/3);
  rig.server.add_input(control, /*priority=*/0, [](int&) { return Nanos{5}; },
                       [&](int&& v) { seen.emplace_back(rig.sim.now(), v); });
  for (int i = 0; i < 5; ++i) data.push(i);
  rig.server.start();
  // Lands while item 1 is in service: it waits out the 3-item continuation.
  rig.sim.at(15, [&control] { control.push(100); });
  rig.sim.run_all();
  const std::vector<std::pair<Nanos, int>> want{
      {10, 0}, {21, 1}, {33, 2}, {38, 100}, {51, 3}, {65, 4}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(rig.server.served(), 6u);
  EXPECT_EQ(rig.server.serve_events(), 6u);
  EXPECT_EQ(rig.server.batches(), 0u);
  EXPECT_EQ(rig.server.batch_items(), 0u);
}

TEST(PollServerBatch, QuiesceMidContinuationFiresAfterInFlightItem) {
  Rig rig;
  BoundedQueue<int> data(32);
  std::vector<std::pair<Nanos, int>> seen;
  rig.server.add_input(data, 1, [](int&) { return Nanos{10}; },
                       [&](int&& v) { seen.emplace_back(rig.sim.now(), v); },
                       CostCategory::kUser, /*batch=*/4);
  for (int i = 0; i < 4; ++i) data.push(i);
  rig.server.start();
  Nanos quiesced_at = -1;
  // Item 1 is in service (10..20) and items 2, 3 are still owed to the
  // continuation: quiesce waits for item 1 only, then leaves 2, 3 queued.
  rig.sim.at(15, [&] {
    rig.server.quiesce([&] { quiesced_at = rig.sim.now(); });
  });
  rig.sim.run_all();
  EXPECT_EQ(quiesced_at, 20);
  const std::vector<std::pair<Nanos, int>> want{{10, 0}, {20, 1}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_FALSE(rig.server.busy());
  EXPECT_EQ(rig.server.serve_events(), 2u);
}

// --- coalesced batches: the burst is served as ONE core event -------------

TEST(PollServerCoalesced, SummedCostChargedAsOneEvent) {
  Rig rig;
  BoundedQueue<int> q(32);
  std::vector<int> order;
  std::vector<Nanos> times;
  rig.server.add_input(q, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) {
                         order.push_back(v);
                         times.push_back(rig.sim.now());
                       },
                       CostCategory::kUser, /*batch=*/8, /*coalesce=*/true);
  for (int i = 0; i < 4; ++i) q.push(i);
  rig.server.start();
  rig.sim.run_all();
  // All four sinks fire together at the summed completion time (4 x 10ns),
  // in FIFO order.
  ASSERT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(times.size(), 4u);
  for (const Nanos t : times) EXPECT_EQ(t, 40);
  EXPECT_EQ(rig.server.served(), 4u);
  EXPECT_EQ(rig.server.serve_events(), 1u);
  EXPECT_EQ(rig.server.batches(), 1u);
  EXPECT_EQ(rig.server.batch_items(), 4u);
}

TEST(PollServerCoalesced, BatchCostFnOverridesPerItemSum) {
  Rig rig;
  BoundedQueue<int> q(32);
  std::vector<Nanos> times;
  rig.server.add_input(
      q, 0, [](int&) { return Nanos{10}; },
      [&](int&&) { times.push_back(rig.sim.now()); }, CostCategory::kUser,
      /*batch=*/8, /*coalesce=*/true,
      [](std::span<int> items) { return Nanos{5} * Nanos(items.size()); });
  for (int i = 0; i < 4; ++i) q.push(i);
  rig.server.start();
  rig.sim.run_all();
  // 4 items x 5ns batch-amortized, not 4 x 10ns per-item.
  ASSERT_EQ(times.size(), 4u);
  for (const Nanos t : times) EXPECT_EQ(t, 20);
}

TEST(PollServerCoalesced, ControlJumpsInAfterBatchCompletes) {
  Rig rig;
  BoundedQueue<int> data(32);
  BoundedQueue<int> control(32);
  std::vector<int> order;
  rig.server.add_input(data, 1, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); },
                       CostCategory::kUser, /*batch=*/4, /*coalesce=*/true);
  rig.server.add_input(control, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(100 + v); });
  for (int i = 0; i < 8; ++i) data.push(i);
  rig.server.start();
  rig.sim.at(5, [&control] { control.push(1); });
  rig.sim.run_all();
  // The control item waits for the in-flight coalesced batch (0..3), then
  // preempts the second data batch.
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[3], 3);
  EXPECT_EQ(order[4], 101);
  EXPECT_EQ(order[5], 4);
}

TEST(PollServerCoalesced, RefillDoesNotExtendInFlightBatch) {
  Rig rig;
  BoundedQueue<int> q(32);
  std::vector<Nanos> times;
  rig.server.add_input(q, 0, [](int&) { return Nanos{10}; },
                       [&](int&&) { times.push_back(rig.sim.now()); },
                       CostCategory::kUser, /*batch=*/4, /*coalesce=*/true);
  q.push(0);
  q.push(1);
  rig.server.start();
  rig.sim.at(5, [&q] { q.push(2); });  // lands while the batch is in flight
  rig.sim.run_all();
  // A coalesced burst is fixed at pick time: items 0,1 complete at 20, item
  // 2 is a separate batch completing at 30 (contrast with the classic-mode
  // RefillDuringBatchExtendsIt above).
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 20);
  EXPECT_EQ(times[1], 20);
  EXPECT_EQ(times[2], 30);
}

TEST(PollServerCoalesced, SinkRefillingItsOwnInputKeepsTheBurstIntact) {
  // Delivering item 0 pushes 10 into the same input, which starts the next
  // serve from inside the sink while items 1..3 are still being delivered:
  // that serve must not overwrite them.
  Rig rig;
  BoundedQueue<int> q(32);
  std::vector<std::pair<Nanos, int>> seen;
  rig.server.add_input(q, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) {
                         seen.emplace_back(rig.sim.now(), v);
                         if (v < 10) q.push(v + 10);
                       },
                       CostCategory::kUser, /*batch=*/4, /*coalesce=*/true);
  for (int i = 0; i < 4; ++i) q.push(i);
  rig.server.start();
  rig.sim.run_all();
  const std::vector<std::pair<Nanos, int>> want{
      {40, 0}, {40, 1}, {40, 2}, {40, 3}, {50, 10}, {80, 11}, {80, 12},
      {80, 13}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(rig.server.served(), 8u);
  EXPECT_EQ(rig.server.batches(), 3u);
}

TEST(PollServerBatch, StaleNonemptyHintIsRepairedAfterExternalClear) {
  // External actors (recovery, shedding) may drain a queue without going
  // through the server. The non-empty hint is then stale-HIGH; the next scan
  // must repair it and fall through to other inputs instead of spinning.
  Rig rig;
  BoundedQueue<int> a(32);
  BoundedQueue<int> b(32);
  std::vector<int> order;
  rig.server.add_input(a, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); });
  rig.server.add_input(b, 1, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(100 + v); });
  a.push(1);   // sets a's hint (server not yet running)
  a.clear();   // external drain: hint now stale
  b.push(2);
  rig.server.start();
  rig.sim.run_all();
  // The scan skips the stale hint on `a` and serves `b`.
  EXPECT_EQ(order, (std::vector<int>{102}));
  // A fresh push on `a` re-arms its hint and is served normally.
  a.push(3);
  rig.sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{102, 3}));
}

}  // namespace
}  // namespace lvrm::sim
