// Sharded dispatch plane (DESIGN.md §11): RSS flow steering keeps every flow
// on one shard, per-flow ordering and frame conservation survive a VRI crash
// + respawn on one shard, the two-level NUMA picker reports honest tiers,
// and per-shard telemetry/audit labels appear exactly when shards do.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "lvrm/core_allocator.hpp"
#include "lvrm/fault_injector.hpp"
#include "lvrm/system.hpp"
#include "sim/costs.hpp"
#include "sim/topology.hpp"

namespace lvrm {
namespace {

namespace costs = sim::costs;

struct ShardRig {
  sim::Simulator sim;
  sim::CpuTopology topo;
  std::unique_ptr<LvrmSystem> sys;
  std::unique_ptr<FaultInjector> faults;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  // Egress bookkeeping per flow (flows are f.id % kFlows by construction).
  static constexpr std::uint64_t kFlows = 64;
  std::map<std::uint64_t, std::int16_t> flow_shard;
  std::map<std::uint64_t, std::uint64_t> flow_last_id;
  std::uint64_t affinity_violations = 0;
  std::uint64_t ordering_violations = 0;
  std::deque<std::function<void()>> emitters;

  explicit ShardRig(LvrmConfig cfg, int initial_vris) {
    sys = std::make_unique<LvrmSystem>(sim, topo, cfg);
    VrConfig vr;
    vr.initial_vris = initial_vris;
    vr.dummy_load = costs::kDummyLoad;
    sys->add_vr(vr);
    sys->start();
    sys->set_egress([this](net::FrameMeta&& f) {
      ++delivered;
      const std::uint64_t flow = f.id % kFlows;
      const auto it = flow_shard.find(flow);
      if (it != flow_shard.end() && it->second != f.dispatch_shard)
        ++affinity_violations;
      flow_shard[flow] = f.dispatch_shard;
      const auto last = flow_last_id.find(flow);
      if (last != flow_last_id.end() && f.id < last->second)
        ++ordering_violations;
      flow_last_id[flow] = f.id;
    });
    faults = std::make_unique<FaultInjector>(sim, *sys);
  }

  static LvrmConfig sharded_cfg(int shards) {
    LvrmConfig cfg;
    cfg.allocator = AllocatorKind::kFixed;
    cfg.granularity = BalancerGranularity::kFlow;
    cfg.dispatch_shards = shards;
    return cfg;
  }

  void offer(double fps, Nanos until) {
    std::function<void()>& emit = emitters.emplace_back();
    const Nanos gap = interval_for_rate(fps);
    emit = [this, gap, until, &emit] {
      if (sim.now() >= until) return;
      net::FrameMeta f;
      f.id = sent++;
      f.wire_bytes = 84;
      const auto flow = static_cast<std::uint32_t>(f.id % kFlows);
      f.src_ip = net::ipv4(10, 1, 0, 1) + (flow >> 4);
      f.dst_ip = net::ipv4(10, 2, 0, 1);
      f.src_port = static_cast<std::uint16_t>(2000 + (flow & 15));
      sys->ingress(f);
      sim.after(gap, emit);
    };
    sim.at(0, emit);
  }

  std::uint64_t accounted() const {
    return delivered + sys->rx_ring_drops() + sys->data_queue_drops() +
           sys->shed_drops() + sys->no_route_drops();
  }
};

TEST(ShardedDispatch, SingleShardIsTheUnshardedSystem) {
  ShardRig rig(ShardRig::sharded_cfg(1), 2);
  rig.offer(100'000.0, msec(200));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->shard_count(), 1);
  EXPECT_GT(rig.delivered, 0u);
  // Every frame was steered to shard 0 — the old single-dispatcher path.
  for (const auto& [flow, shard] : rig.flow_shard) EXPECT_EQ(shard, 0);
  EXPECT_EQ(rig.affinity_violations, 0u);
  EXPECT_EQ(rig.ordering_violations, 0u);
}

TEST(ShardedDispatch, RssSteeringUsesEveryShardAndPreservesAffinity) {
  ShardRig rig(ShardRig::sharded_cfg(2), 4);
  rig.offer(400'000.0, msec(300));
  rig.sim.run_all();
  ASSERT_EQ(rig.sys->shard_count(), 2);

  // Both shard rings admitted traffic: the 64 distinct 5-tuples hash across
  // the rings rather than piling onto shard 0.
  EXPECT_GT(rig.sys->shard_rx_admitted(0), 0u);
  EXPECT_GT(rig.sys->shard_rx_admitted(1), 0u);

  // And the flow map is consistent at egress: one shard per flow, ever.
  EXPECT_EQ(rig.affinity_violations, 0u);
  EXPECT_EQ(rig.ordering_violations, 0u);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(ShardedDispatch, ShardCoresSpreadAcrossSockets) {
  ShardRig rig(ShardRig::sharded_cfg(2), 2);
  const sim::CoreId c0 = rig.sys->shard_core(0);
  const sim::CoreId c1 = rig.sys->shard_core(1);
  EXPECT_EQ(c0, rig.sys->config().lvrm_core);
  // Shard 1 lands on the other socket, mirroring one RSS queue per NUMA
  // node; its core is withheld from the VRI pool.
  EXPECT_NE(rig.topo.socket_of(c0), rig.topo.socket_of(c1));
}

TEST(ShardedDispatch, OrderingAndConservationSurviveCrashRespawn) {
  LvrmConfig cfg = ShardRig::sharded_cfg(2);
  cfg.health.enabled = true;
  ShardRig rig(cfg, 4);
  rig.offer(300'000.0, sec(3));
  // Crash one VRI mid allocation period (so the heartbeat, not the 1 s
  // allocation pass, finds the corpse); the health monitor respawns it and
  // re-dispatches stranded frames through the slot's per-shard dispatchers.
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 1, .at = sec(1) + msec(350)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  EXPECT_TRUE(rig.sys->recovery_log()[0].respawned);
  EXPECT_EQ(rig.sys->active_vris(0), 4);

  // The §11 invariants hold through the fault: no flow changed shard, no
  // flow's frames reordered, and every sent frame is delivered or counted
  // in a drop bucket.
  EXPECT_EQ(rig.affinity_violations, 0u);
  EXPECT_EQ(rig.ordering_violations, 0u);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(ShardedDispatch, CrashRecoveryLeaksNoFramePoolSlots) {
  // The sternest leak path: a VRI crashes with frames stranded in its data
  // queue. The rescue path re-dispatches the survivors and drops the rest —
  // either way every frame must be delivered or land in a drop bucket.
  LvrmConfig cfg = ShardRig::sharded_cfg(2);
  cfg.health.enabled = true;
  ShardRig rig(cfg, 4);
  rig.offer(300'000.0, sec(3));
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 1, .at = sec(1) + msec(350)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  EXPECT_TRUE(rig.sys->recovery_log()[0].respawned);
  EXPECT_GT(rig.sys->redispatched_frames(), 0u);
  EXPECT_EQ(rig.affinity_violations, 0u);
  EXPECT_EQ(rig.ordering_violations, 0u);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(ShardedDispatch, PerShardMetricsAppearOnlyWhenSharded) {
  auto count_shard_labels = [](const LvrmSystem& sys, const char* name) {
    int n = 0;
    for (const auto& c : sys.telemetry()->metrics().snapshot().counters)
      if (c.name == name && c.labels.rfind("shard=", 0) == 0) ++n;
    return n;
  };

  ShardRig one(ShardRig::sharded_cfg(1), 2);
  one.offer(100'000.0, msec(100));
  one.sim.run_all();
  ASSERT_NE(one.sys->telemetry(), nullptr);
  // At one shard the registry is bit-identical to the unsharded system: no
  // per-shard families at all.
  EXPECT_EQ(count_shard_labels(*one.sys, "lvrm_rx_frames_total"), 0);

  ShardRig two(ShardRig::sharded_cfg(2), 2);
  two.offer(100'000.0, msec(100));
  two.sim.run_all();
  EXPECT_EQ(count_shard_labels(*two.sys, "lvrm_rx_frames_total"), 2);
  EXPECT_EQ(count_shard_labels(*two.sys, "lvrm_tx_frames_total"), 2);
}

TEST(ShardedDispatch, AuditEventsCarryShardAndNumaTier) {
  ShardRig rig(ShardRig::sharded_cfg(2), 3);
  rig.offer(100'000.0, msec(100));
  rig.sim.run_all();
  ASSERT_NE(rig.sys->telemetry(), nullptr);
  int creates = 0;
  for (const auto& e : rig.sys->telemetry()->audit().events()) {
    if (e.kind != obs::AuditKind::kVriCreate) continue;
    ++creates;
    EXPECT_GE(e.shard, 0);
    EXPECT_LT(e.shard, 2);
    // Fixed allocation on a 2x4 box with 2 shard cores reserved: every VRI
    // got a real core, so the tier is never "none".
    EXPECT_GE(e.numa_tier, 0);
    EXPECT_LE(e.numa_tier, 2);
  }
  EXPECT_EQ(creates, 3);
}

TEST(NumaPicker, WalksTiersInOrderAndReportsThem) {
  // 4 sockets x 2 cores, 2 sockets per machine -> cores 0..3 on machine 0.
  const sim::CpuTopology topo(4, 2, /*sockets_per_machine=*/2);
  std::vector<bool> used(static_cast<std::size_t>(topo.total_cores()), false);
  const sim::CoreId anchor = 0;

  auto pick = pick_numa_core(topo, used, anchor);
  EXPECT_EQ(pick.core, 1);  // same socket first
  EXPECT_EQ(pick.tier, NumaTier::kSameSocket);

  used[1] = true;
  pick = pick_numa_core(topo, used, anchor);
  EXPECT_EQ(pick.core, 2);  // other socket, same machine
  EXPECT_EQ(pick.tier, NumaTier::kSameMachine);

  used[2] = used[3] = true;
  pick = pick_numa_core(topo, used, anchor);
  EXPECT_EQ(pick.core, 4);  // off-machine
  EXPECT_EQ(pick.tier, NumaTier::kRemote);

  for (std::size_t c = 4; c < used.size(); ++c) used[c] = true;
  pick = pick_numa_core(topo, used, anchor);
  EXPECT_EQ(pick.core, sim::kNoCore);  // exhausted (anchor itself is skipped)
  EXPECT_EQ(pick.tier, NumaTier::kNone);
}

TEST(NumaPicker, TierOfMatchesTopologyRelations) {
  const sim::CpuTopology topo(4, 2, /*sockets_per_machine=*/2);
  EXPECT_EQ(numa_tier_of(topo, 0, 1), NumaTier::kSameSocket);
  EXPECT_EQ(numa_tier_of(topo, 0, 3), NumaTier::kSameMachine);
  EXPECT_EQ(numa_tier_of(topo, 0, 6), NumaTier::kRemote);
  EXPECT_EQ(numa_tier_of(topo, 0, sim::kNoCore), NumaTier::kNone);
}

}  // namespace
}  // namespace lvrm
