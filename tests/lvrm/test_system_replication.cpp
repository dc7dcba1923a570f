// State-compute replication through the assembled system (DESIGN.md §16):
// the rollout contract (enabled-but-idle is byte-identical to disabled),
// the elephant-spraying claim across the batched × sharded matrix, policy-drop accounting for stateful VRs, and the healthy-pool
// generation cache the §16 work piggybacked on the Dispatcher.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "exp/experiments.hpp"
#include "lvrm/load_balancer.hpp"
#include "lvrm/system.hpp"

namespace lvrm {
namespace {

constexpr double kOneVriFps = 60'000.0;  // LvrmConfig::per_vri_capacity_fps

// --- rollout contract -------------------------------------------------------------------

TEST(SystemReplication, SubThresholdTrafficIsByteIdenticalToDisabled) {
  // With replication enabled but every flow below the elephant threshold,
  // nothing sprays — and the egress stream (ids, VRI assignments, egress
  // times) must match the disabled run exactly.
  auto run = [](bool enabled) {
    sim::Simulator sim;
    sim::CpuTopology topo;
    LvrmConfig cfg;
    cfg.allocator = AllocatorKind::kFixed;
    cfg.granularity = BalancerGranularity::kFlow;
    cfg.state_replication.enabled = enabled;
    LvrmSystem sys(sim, topo, cfg);
    VrConfig vr;
    vr.initial_vris = 4;
    sys.add_vr(vr);
    sys.start();
    std::vector<std::tuple<std::uint64_t, std::uint16_t, int, Nanos>> out;
    sys.set_egress([&out](net::FrameMeta&& f) {
      EXPECT_EQ(f.sprayed, 0);  // sub-threshold: the detector never fires
      out.emplace_back(f.id, f.src_port, f.dispatch_vri, f.gw_out_at);
    });
    // 32 flows at ~10 Kfps each — below the 50%-of-a-core threshold.
    for (int i = 0; i < 3000; ++i) {
      net::FrameMeta f;
      f.id = static_cast<std::uint64_t>(i);
      f.src_ip = net::ipv4(10, 1, 0, 1);
      f.dst_ip = net::ipv4(10, 2, 0, 1);
      f.src_port = static_cast<std::uint16_t>(1000 + i % 32);
      f.dst_port = 9;
      f.protocol = 17;
      sim.at(usec(3) * i, [&sys, f] { sys.ingress(f); });
    }
    sim.run_all();
    return out;
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), 3000u);
  EXPECT_EQ(off, on);
}

// --- the elephant claim (Experiment 8) --------------------------------------------------

TEST(SystemReplication, ElephantExceedsOneVriWithReplicationOn) {
  exp::ElephantTrialOptions opt;
  opt.replication = true;
  opt.vris = 4;
  const auto r = exp::run_elephant_trial(opt);
  // The acceptance bar: one flow offered at 4x a single VRI's capacity
  // delivers >= 1.5x one VRI's throughput at 4 VRIs...
  EXPECT_GE(r.elephant_fps, 1.5 * kOneVriFps)
      << "elephant delivered only " << r.elephant_fps << " fps";
  // ...with zero external ordering violations (the TX sequencer's job).
  EXPECT_EQ(r.ordering_violations, 0u);
  // And the machinery demonstrably ran: detection promoted the flow, state
  // deltas flowed to siblings and were applied there.
  EXPECT_GE(r.spray_activations, 1u);
  EXPECT_GT(r.sprayed_frames, 0u);
  EXPECT_GT(r.deltas_sent, 0u);
  EXPECT_GT(r.deltas_applied, 0u);
}

TEST(SystemReplication, ElephantStaysPinnedWithReplicationOff) {
  exp::ElephantTrialOptions opt;
  opt.replication = false;
  opt.vris = 4;
  const auto r = exp::run_elephant_trial(opt);
  // Flow affinity caps a pinned flow at one core no matter the VRI count.
  EXPECT_LE(r.elephant_fps, 1.2 * kOneVriFps);
  EXPECT_EQ(r.ordering_violations, 0u);
  EXPECT_EQ(r.sprayed_frames, 0u);
  EXPECT_EQ(r.spray_activations, 0u);
}

TEST(SystemReplication, OrderingHoldsAcrossBatchedShardedDescriptorMatrix) {
  // The §16 guarantee is mode-independent: every hot-path variant sprays
  // the elephant past one VRI's capacity and egresses it in order.
  for (const bool batched : {false, true}) {
    for (const int shards : {1, 2}) {
      exp::ElephantTrialOptions opt;
      opt.replication = true;
      opt.vris = 4;
      opt.batched = batched;
      opt.shards = shards;
      opt.warmup = msec(10);
      opt.measure = msec(40);
      const auto r = exp::run_elephant_trial(opt);
      const std::string mode = std::string(batched ? "batched" : "classic") +
                               "/" + std::to_string(shards) + "-shard";
      EXPECT_EQ(r.ordering_violations, 0u) << mode;
      EXPECT_GT(r.elephant_fps, 1.1 * kOneVriFps)
          << mode << " delivered " << r.elephant_fps << " fps";
      EXPECT_GE(r.spray_activations, 1u) << mode;
    }
  }
}

// --- stateful policy drops through the system -------------------------------------------

TEST(SystemReplication, RateLimiterPolicyDropsAreAccounted) {
  sim::Simulator sim;
  sim::CpuTopology topo;
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  LvrmSystem sys(sim, topo, cfg);
  VrConfig vr;
  vr.kind = VrKind::kRateLimit;
  vr.rate_limit_fps = 100.0;  // tiny: the burst drains, then throttling
  vr.rate_limit_burst = 16.0;
  vr.initial_vris = 1;
  sys.add_vr(vr);
  sys.start();
  std::uint64_t delivered = 0;
  sys.set_egress([&](net::FrameMeta&&) { ++delivered; });
  for (int i = 0; i < 200; ++i) {
    net::FrameMeta f;
    f.id = static_cast<std::uint64_t>(i);
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = 4242;
    f.dst_port = 9;
    f.protocol = 17;
    sim.at(usec(5) * i, [&sys, f] { sys.ingress(f); });
  }
  sim.run_all();
  // ~16 burst tokens admit, the remaining frames are refused by policy —
  // and land in the dedicated counter, not no_route.
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, 40u);
  EXPECT_EQ(sys.vr_policy_drops(0), 200u - delivered);
}

// --- healthy-pool generation cache (the satellite fix) ----------------------------------

TEST(DispatcherPoolCache, UnchangedGenerationScansOnce) {
  Dispatcher d(make_balancer(BalancerKind::kRoundRobin, 1),
               BalancerGranularity::kFrame);
  const std::vector<VriView> views = {{0, 0.0, false},
                                      {1, 0.0, false},
                                      {2, 0.0, false}};
  net::FrameMeta f;
  f.src_ip = net::ipv4(10, 1, 0, 1);
  f.dst_ip = net::ipv4(10, 2, 0, 1);

  // Generation 0 (standalone default): the cache is off, every dispatch
  // scans — views may change arbitrarily between calls.
  for (int i = 0; i < 10; ++i) d.dispatch(f, views, usec(i));
  EXPECT_EQ(d.pool_scans(), 10u);

  // Owned mode: one scan per generation while the pool stays clean.
  d.set_pool_generation(1);
  for (int i = 0; i < 100; ++i) d.dispatch(f, views, usec(100 + i));
  EXPECT_EQ(d.pool_scans(), 11u);
}

TEST(DispatcherPoolCache, SuspectPoolRescansUntilCleared) {
  Dispatcher d(make_balancer(BalancerKind::kRoundRobin, 1),
               BalancerGranularity::kFrame);
  std::vector<VriView> views = {{0, 0.0, false},
                                {1, 0.0, false},
                                {2, 0.0, false}};
  net::FrameMeta f;
  f.src_ip = net::ipv4(10, 1, 0, 1);
  f.dst_ip = net::ipv4(10, 2, 0, 1);
  d.set_pool_generation(1);
  d.dispatch(f, views, usec(1));
  ASSERT_EQ(d.pool_scans(), 1u);

  // A suspicion flips: the owner bumps the generation. While a suspect
  // exists the filtered pool is rebuilt per call (loads are fresh per
  // call), and the suspect VRI receives no new work.
  views[1].suspect = true;
  d.set_pool_generation(2);
  for (int i = 0; i < 20; ++i)
    EXPECT_NE(d.dispatch(f, views, usec(10 + i)), 1);
  EXPECT_EQ(d.pool_scans(), 21u);

  // Suspicion cleared, generation bumped: one rescan, then cached again.
  views[1].suspect = false;
  d.set_pool_generation(3);
  for (int i = 0; i < 50; ++i) d.dispatch(f, views, usec(100 + i));
  EXPECT_EQ(d.pool_scans(), 22u);
}

TEST(DispatcherPoolCache, FlowPinnedHitsNeverScan) {
  // The regression this cache fixed: pinned flows paid a full candidate
  // scan per frame. Now a pinned hit consults no pool at all, and misses
  // reuse the cached verdict within a generation.
  Dispatcher d(make_balancer(BalancerKind::kJoinShortestQueue, 1),
               BalancerGranularity::kFlow);
  const std::vector<VriView> views = {{0, 0.0, false}, {1, 1.0, false}};
  d.set_pool_generation(1);
  net::FrameMeta f;
  f.src_ip = net::ipv4(10, 1, 0, 1);
  f.dst_ip = net::ipv4(10, 2, 0, 1);
  f.src_port = 1234;
  f.dst_port = 9;
  f.protocol = 17;
  d.dispatch(f, views, usec(1));  // miss: pins the flow (one scan)
  EXPECT_EQ(d.pool_scans(), 1u);
  for (int i = 0; i < 100; ++i) d.dispatch(f, views, usec(2 + i));
  EXPECT_EQ(d.pool_scans(), 1u);  // all hits: no pool work at all
  EXPECT_EQ(d.flow_hits(), 100u);
}

}  // namespace
}  // namespace lvrm
