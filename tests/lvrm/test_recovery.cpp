// End-to-end recovery: the health monitor's verdicts driving quarantine,
// state-consistent respawn, stranded-frame re-dispatch and overload shedding
// through LvrmSystem. Counterpart of test_fault_injector.cpp, which shows the
// same faults UNdetected on the stock system.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>

#include "common/log.hpp"
#include "lvrm/fault_injector.hpp"
#include "lvrm/system.hpp"
#include "sim/costs.hpp"

namespace lvrm {
namespace {

HealthConfig enabled_health() {
  HealthConfig h;
  h.enabled = true;
  return h;
}

route::RouteUpdate add_route(const char* prefix, int out) {
  route::RouteUpdate u;
  u.add = true;
  u.entry.prefix = *net::parse_prefix(prefix);
  u.entry.output_if = out;
  return u;
}

struct RecoveryRig {
  sim::Simulator sim;
  sim::CpuTopology topo;
  std::unique_ptr<LvrmSystem> sys;
  std::unique_ptr<FaultInjector> faults;
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;

  explicit RecoveryRig(LvrmConfig cfg, int initial_vris) {
    sys = std::make_unique<LvrmSystem>(sim, topo, cfg);
    VrConfig vr;
    vr.initial_vris = initial_vris;
    vr.dummy_load = sim::costs::kDummyLoad;
    sys->add_vr(vr);
    sys->start();
    sys->set_egress([this](net::FrameMeta&&) { ++delivered; });
    faults = std::make_unique<FaultInjector>(sim, *sys);
  }

  static LvrmConfig fixed_with_health() {
    LvrmConfig cfg;
    cfg.allocator = AllocatorKind::kFixed;
    cfg.health = enabled_health();
    return cfg;
  }

  void offer(double fps, Nanos until) {
    // Rig-owned emitter recursing through a reference to its own slot, so
    // no shared_ptr cycle is leaked.
    std::function<void()>& emit = emitters.emplace_back();
    const Nanos gap = interval_for_rate(fps);
    emit = [this, gap, until, &emit] {
      if (sim.now() >= until) return;
      net::FrameMeta f;
      f.id = sent++;
      f.src_ip = net::ipv4(10, 1, 0, 1);
      f.dst_ip = net::ipv4(10, 2, 0, 1);
      f.src_port = static_cast<std::uint16_t>(1000 + sent % 32);
      sys->ingress(f);
      sim.after(gap, emit);
    };
    sim.at(0, emit);
  }

  std::deque<std::function<void()>> emitters;

  /// Every frame is accounted for: forwarded or counted in a drop bucket.
  std::uint64_t accounted() const {
    return delivered + sys->rx_ring_drops() + sys->data_queue_drops() +
           sys->shed_drops() + sys->no_route_drops();
  }
};

TEST(Recovery, HeartbeatDetectsCrashInsideTheAllocationPeriod) {
  RecoveryRig rig(RecoveryRig::fixed_with_health(), 3);
  rig.offer(150'000.0, sec(5));
  const Nanos inject_at = sec(2) + msec(350);  // mid allocation period
  rig.faults->schedule({.kind = FaultKind::kCrash, .vri = 1, .at = inject_at});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  const RecoveryEvent& ev = rig.sys->recovery_log()[0];
  EXPECT_EQ(ev.reason, VriHealth::kDead);
  EXPECT_TRUE(ev.respawned);
  // Detected by the next heartbeat (100 ms period), far inside the ~650 ms
  // the stock once-per-second pass would have left the corpse unnoticed.
  EXPECT_LE(ev.time - inject_at, msec(150));
  // The heartbeat got there first, so the allocation pass found no corpse.
  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 0u);
  EXPECT_EQ(rig.sys->active_vris(0), 3);
}

TEST(Recovery, HungVriIsQuarantinedRespawnedAndConserved) {
  // Captured via the log sink (no stderr scraping): the quarantine decision
  // must be announced on the [health] channel, not just visible in counters.
  CapturingLogSink sink;
  RecoveryRig rig(RecoveryRig::fixed_with_health(), 3);
  rig.offer(150'000.0, sec(6));
  rig.faults->schedule({.kind = FaultKind::kHang, .vri = 1, .at = sec(2)});
  std::uint64_t at_5s = 0;
  rig.sim.at(sec(5), [&] { at_5s = rig.delivered; });
  rig.sim.run_all();

  EXPECT_TRUE(sink.contains("vri=1 quarantined (hung)"));
  bool health_tagged = false;
  for (const auto& entry : sink.entries())
    if (entry.component == LogComponent::kHealth &&
        entry.level == LogLevel::kWarn)
      health_tagged = true;
  EXPECT_TRUE(health_tagged);

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  const RecoveryEvent& ev = rig.sys->recovery_log()[0];
  EXPECT_EQ(ev.reason, VriHealth::kHung);
  EXPECT_GE(ev.stalled_for, rig.sys->config().health.heartbeat_timeout);
  EXPECT_TRUE(ev.respawned);
  EXPECT_EQ(rig.sys->active_vris(0), 3);

  // The frames stuck in the hung VRI's queue were rescued, not dropped.
  EXPECT_GT(ev.stranded, 0u);
  EXPECT_EQ(rig.sys->redispatched_frames(), ev.redispatched);

  // Full capacity again in the final second (hang no longer blackholes).
  EXPECT_GT(static_cast<double>(rig.delivered - at_5s), 140'000.0);

  // Frame conservation: every sent frame is delivered or in a drop counter.
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(Recovery, FailSlowVriIsDetectedByTheWatchdog) {
  RecoveryRig rig(RecoveryRig::fixed_with_health(), 3);
  rig.offer(150'000.0, sec(6));
  // An 8x slowdown: the VRI still makes progress (never "hung") but serves
  // ~7.5 Kfps against its siblings' 60 Kfps — only the rate watchdog sees it.
  rig.faults->schedule(
      {.kind = FaultKind::kSlowdown, .vri = 2, .at = sec(2), .magnitude = 8.0});
  std::uint64_t at_5s = 0;
  rig.sim.at(sec(5), [&] { at_5s = rig.delivered; });
  rig.sim.run_all();

  ASSERT_GE(rig.sys->recovery_log().size(), 1u);
  const RecoveryEvent& ev = rig.sys->recovery_log()[0];
  EXPECT_EQ(ev.reason, VriHealth::kFailSlow);
  EXPECT_EQ(ev.vri, 2);
  EXPECT_TRUE(ev.respawned);
  ASSERT_NE(rig.sys->health(), nullptr);
  EXPECT_GE(rig.sys->health()->fail_slow_detected(), 1u);
  // The respawn shed the slowdown (a sick process dies with its sickness).
  EXPECT_GT(static_cast<double>(rig.delivered - at_5s), 140'000.0);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(Recovery, CrashStrandedFramesAreRedispatched) {
  RecoveryRig rig(RecoveryRig::fixed_with_health(), 3);
  rig.offer(150'000.0, sec(4));
  // Mid-period, so the heartbeat (not the 1 s reap pass) finds the corpse.
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 0, .at = sec(2) + msec(350)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  const RecoveryEvent& ev = rig.sys->recovery_log()[0];
  EXPECT_GT(ev.stranded, 0u);
  EXPECT_EQ(ev.redispatched, ev.stranded);  // survivors had queue headroom
  EXPECT_EQ(rig.sys->redispatched_frames(), ev.redispatched);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(Recovery, ReapOfTheLastVriReportsItsStrandedFramesAsDrops) {
  // A dynamic allocator does not respawn at reap time, so when the VR's
  // only VRI crashes its stranded frames have no survivor to go to. They
  // are dropped, and the drop hook must see each one.
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kDynamicFixedThreshold;
  cfg.health = enabled_health();
  RecoveryRig rig(cfg, 1);
  std::uint64_t dropped = 0;
  rig.sys->set_drop_hook([&](const net::FrameMeta&, DropCause) { ++dropped; });
  rig.offer(50'000.0, sec(2));
  // Just before the first allocation pass, which reaps the corpse before
  // the next heartbeat can quarantine it.
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 0, .at = sec(1) - usec(50)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->crashed_vris_reaped(), 1u);
  EXPECT_EQ(rig.delivered + dropped, rig.sent);
}

TEST(Recovery, RespawnedVriReplaysRouteUpdatesHealthPath) {
  // Satellite regression: a dynamic route broadcast BEFORE the crash must be
  // present in the respawned (fresh-process) incarnation. Round-robin makes
  // every VRI — including the respawn — carry traffic.
  LvrmConfig cfg = RecoveryRig::fixed_with_health();
  cfg.balancer = BalancerKind::kRoundRobin;
  RecoveryRig rig(cfg, 2);
  rig.sys->broadcast_route_update(0, 0, add_route("10.9.0.0/16", 1));
  rig.sim.run_all();

  // Steady traffic to the NEW prefix; VRI 1 dies mid-stream and respawns.
  std::function<void()> emit;
  emit = [&rig, &emit] {
    if (rig.sim.now() >= sec(3)) return;
    net::FrameMeta f;
    f.id = rig.sent++;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 9, 0, 7);  // only routable via the update
    rig.sys->ingress(f);
    rig.sim.after(interval_for_rate(50'000.0), emit);
  };
  rig.sim.at(0, emit);
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 1, .at = sec(1) + msec(350)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  EXPECT_TRUE(rig.sys->recovery_log()[0].respawned);
  // A fresh fork without the replay would no-route half the stream.
  EXPECT_EQ(rig.sys->no_route_drops(), 0u);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(Recovery, RespawnedVriReplaysRouteUpdatesStockReapPath) {
  // Same regression through the stock 1 s reap (health disabled): the
  // fixed allocator's respawn must also rebuild from the route log.
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.balancer = BalancerKind::kRoundRobin;
  RecoveryRig rig(cfg, 2);
  rig.sys->broadcast_route_update(0, 0, add_route("10.9.0.0/16", 1));
  rig.sim.run_all();

  std::function<void()> emit;
  emit = [&rig, &emit] {
    if (rig.sim.now() >= sec(4)) return;
    net::FrameMeta f;
    f.id = rig.sent++;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 9, 0, 7);
    rig.sys->ingress(f);
    rig.sim.after(interval_for_rate(50'000.0), emit);
  };
  rig.sim.at(0, emit);
  rig.faults->schedule({.kind = FaultKind::kCrash, .vri = 1, .at = sec(1)});
  rig.sim.run_all();

  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 1u);
  EXPECT_EQ(rig.sys->active_vris(0), 2);
  EXPECT_EQ(rig.sys->no_route_drops(), 0u);
}

LvrmConfig overload_config(ShedPolicy policy) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.max_vris_per_vr = 1;  // cannot grow: shedding may engage
  cfg.shed_policy = policy;
  return cfg;
}

TEST(Recovery, SheddingDisabledKeepsLegacyTailDrop) {
  RecoveryRig rig(overload_config(ShedPolicy::kNone), 1);
  rig.offer(120'000.0, sec(2));  // 2x the 60 Kfps capacity
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->shed_drops(), 0u);
  EXPECT_GT(rig.sys->data_queue_drops(), 0u);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(Recovery, DropNewestShedsArrivalsAtTheWatermark) {
  RecoveryRig rig(overload_config(ShedPolicy::kDropNewest), 1);
  std::uint64_t last_delivered_id = 0;
  rig.sys->set_egress([&](net::FrameMeta&& f) {
    ++rig.delivered;
    last_delivered_id = f.id;
  });
  rig.offer(120'000.0, sec(2));
  rig.sim.run_all();
  EXPECT_GT(rig.sys->shed_drops(), 0u);
  EXPECT_EQ(rig.sys->vr_shed_drops(0), rig.sys->shed_drops());
  // The queue sat at the watermark when the last frame arrived: it was shed,
  // so the newest id never egresses.
  EXPECT_LT(last_delivered_id, rig.sent - 1);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(Recovery, DropOldestKeepsTheFreshestFrames) {
  RecoveryRig rig(overload_config(ShedPolicy::kDropOldest), 1);
  std::uint64_t max_delivered_id = 0;
  rig.sys->set_egress([&](net::FrameMeta&& f) {
    ++rig.delivered;
    max_delivered_id = std::max(max_delivered_id, f.id);
  });
  rig.offer(120'000.0, sec(2));
  rig.sim.run_all();
  EXPECT_GT(rig.sys->shed_drops(), 0u);
  // Drop-oldest admits every arrival by evicting the stalest: the final
  // frame always survives to egress.
  EXPECT_EQ(max_delivered_id, rig.sent - 1);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(Recovery, SheddingDoesNotEngageWhileTheVrCanGrow) {
  // Same overload but the VR may still add VRIs: growth, not shedding, is
  // the right response, and the dynamic allocator provides it.
  LvrmConfig cfg;
  cfg.shed_policy = ShedPolicy::kDropNewest;
  RecoveryRig rig(cfg, 1);
  rig.offer(120'000.0, sec(4));
  rig.sim.run_all();
  EXPECT_GT(rig.sys->active_vris(0), 1);
  EXPECT_EQ(rig.sys->shed_drops(), 0u);
}

TEST(Recovery, CapacityEstimateTracksActiveVris) {
  RecoveryRig rig(RecoveryRig::fixed_with_health(), 3);
  rig.offer(150'000.0, sec(3));
  rig.sim.run_all();
  // Three VRIs under the 1/60 ms dummy load: ~180 Kfps aggregate.
  EXPECT_NEAR(rig.sys->capacity_estimate(0), 180'000.0, 20'000.0);
}

}  // namespace
}  // namespace lvrm
