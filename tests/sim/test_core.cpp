#include "sim/core.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/costs.hpp"

namespace lvrm::sim {
namespace {

TEST(Core, SerializesWork) {
  Simulator sim;
  Core core(sim, 0, 0);
  Nanos first_done = 0;
  Nanos second_done = 0;
  core.run(100, CostCategory::kUser, 1, [&] { first_done = sim.now(); });
  core.run(50, CostCategory::kUser, 1, [&] { second_done = sim.now(); });
  sim.run_all();
  EXPECT_EQ(first_done, 100);
  EXPECT_EQ(second_done, 150);  // queued behind the first
}

TEST(Core, AccountsByCategory) {
  Simulator sim;
  Core core(sim, 0, 0);
  core.run(100, CostCategory::kUser, 1, nullptr);
  core.run(40, CostCategory::kSystem, 1, nullptr);
  core.run(7, CostCategory::kSoftirq, 1, nullptr);
  EXPECT_EQ(core.busy(CostCategory::kUser), 100);
  EXPECT_EQ(core.busy(CostCategory::kSystem), 40);
  EXPECT_EQ(core.busy(CostCategory::kSoftirq), 7);
  EXPECT_EQ(core.busy_total(), 147);
}

TEST(Core, ContextSwitchChargedOnOwnerChange) {
  Simulator sim;
  Core core(sim, 0, /*context_switch_cost=*/10);
  core.run(100, CostCategory::kUser, 1, nullptr);
  EXPECT_EQ(core.context_switches(), 0u);
  core.run(100, CostCategory::kUser, 2, nullptr);  // different owner
  EXPECT_EQ(core.context_switches(), 1u);
  EXPECT_EQ(core.busy_until(), 210);  // 100 + 10 + 100
  core.run(100, CostCategory::kUser, 2, nullptr);  // same owner: no switch
  EXPECT_EQ(core.context_switches(), 1u);
}

TEST(Core, NoOwnerWorkDoesNotSwitch) {
  Simulator sim;
  Core core(sim, 0, 10);
  core.run(10, CostCategory::kSoftirq, kNoOwner, nullptr);
  core.run(10, CostCategory::kUser, 3, nullptr);
  EXPECT_EQ(core.context_switches(), 0u);
}

TEST(Core, IdleAfterBusyUntil) {
  Simulator sim;
  Core core(sim, 0, 0);
  core.run(100, CostCategory::kUser, 1, nullptr);
  EXPECT_FALSE(core.idle());
  sim.run_until(100);
  EXPECT_TRUE(core.idle());
}

TEST(Core, ChargeAdvancesBusyUntil) {
  Simulator sim;
  Core core(sim, 0, 0);
  core.charge(30, CostCategory::kSystem);
  EXPECT_EQ(core.busy_until(), 30);
  EXPECT_EQ(core.busy(CostCategory::kSystem), 30);
}

TEST(Core, ReclassifyMovesAccounting) {
  Simulator sim;
  Core core(sim, 0, 0);
  core.charge(100, CostCategory::kSystem);
  core.reclassify(CostCategory::kSystem, CostCategory::kUser, 30);
  EXPECT_EQ(core.busy(CostCategory::kSystem), 70);
  EXPECT_EQ(core.busy(CostCategory::kUser), 30);
  EXPECT_EQ(core.busy_total(), 100);
}

TEST(Core, ResetAccountingKeepsSchedule) {
  Simulator sim;
  Core core(sim, 0, 0);
  core.run(100, CostCategory::kUser, 1, nullptr);
  core.reset_accounting();
  EXPECT_EQ(core.busy_total(), 0);
  EXPECT_EQ(core.busy_until(), 100);  // in-flight work unaffected
}

TEST(Core, WorkStartsNoEarlierThanNow) {
  Simulator sim;
  Core core(sim, 0, 0);
  sim.at(500, [&] {
    const Nanos done = core.run(10, CostCategory::kUser, 1, nullptr);
    EXPECT_EQ(done, 510);
  });
  sim.run_all();
}

TEST(Core, EmptyCallablesScheduleNothing) {
  Simulator sim;
  Core core(sim, 0, 0);
  EXPECT_EQ(core.run(10, CostCategory::kUser, 1, nullptr), 10);
  EXPECT_EQ(core.run(10, CostCategory::kUser, 1, Callback{}), 20);
  EXPECT_EQ(core.run(10, CostCategory::kUser, 1, std::function<void()>{}), 30);
  void (*null_fn)() = nullptr;
  EXPECT_EQ(core.run(10, CostCategory::kUser, 1, null_fn), 40);
  EXPECT_TRUE(sim.idle());  // no event was queued
  sim.run_all();
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(core.busy(CostCategory::kUser), 40);  // the work still counts
}

TEST(Core, NonEmptyCallablesFireOnceAtCompletion) {
  Simulator sim;
  Core core(sim, 0, 0);
  std::vector<Nanos> fired;
  std::function<void()> fn = [&] { fired.push_back(sim.now()); };
  core.run(10, CostCategory::kUser, 1, fn);  // a copy of an lvalue
  core.run(10, CostCategory::kUser, 1, Callback([&] { fired.push_back(-sim.now()); }));
  core.run(10, CostCategory::kUser, 1, [&] { fired.push_back(sim.now() + 1); });
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<Nanos>{10, -20, 31}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

}  // namespace
}  // namespace lvrm::sim
