// End-to-end tests of the assembled LvrmSystem (static configurations).
#include "lvrm/system.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/costs.hpp"

namespace lvrm {
namespace {

namespace costs = sim::costs;

struct Rig {
  sim::Simulator sim;
  sim::CpuTopology topo;
  std::unique_ptr<LvrmSystem> sys;
  std::vector<net::FrameMeta> out;

  explicit Rig(LvrmConfig cfg = {}, std::vector<VrConfig> vrs = {}) {
    sys = std::make_unique<LvrmSystem>(sim, topo, cfg);
    if (vrs.empty()) vrs.push_back(VrConfig{});
    for (auto& vr : vrs) sys->add_vr(vr);
    sys->start();
    sys->set_egress([this](net::FrameMeta&& f) { out.push_back(f); });
  }

  net::FrameMeta frame(net::Ipv4Addr src, net::Ipv4Addr dst, int bytes = 84) {
    net::FrameMeta f;
    f.id = next_id++;
    f.wire_bytes = bytes;
    f.src_ip = src;
    f.dst_ip = dst;
    f.src_port = static_cast<std::uint16_t>(1000 + next_id % 50);
    f.dst_port = 9;
    f.created_at = sim.now();
    return f;
  }

  std::uint64_t next_id = 0;
};

TEST(LvrmSystem, ForwardsASingleFrame) {
  Rig rig;
  ASSERT_TRUE(rig.sys->ingress(
      rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(10, 2, 0, 1))));
  rig.sim.run_all();
  ASSERT_EQ(rig.out.size(), 1u);
  EXPECT_EQ(rig.out[0].output_if, 1);
  EXPECT_GT(rig.out[0].gw_out_at, rig.out[0].gw_in_at);
  EXPECT_EQ(rig.sys->forwarded(), 1u);
}

TEST(LvrmSystem, DispatchRecordsVrAndVri) {
  Rig rig;
  rig.sys->ingress(rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(10, 2, 0, 1)));
  rig.sim.run_all();
  ASSERT_EQ(rig.out.size(), 1u);
  EXPECT_EQ(rig.out[0].dispatch_vr, 0);
  EXPECT_GE(rig.out[0].dispatch_vri, 0);
}

TEST(LvrmSystem, ClassifiesBySourceSubnet) {
  LvrmConfig cfg;
  VrConfig vr_a;
  vr_a.name = "vrA";
  vr_a.subnets = {net::Prefix{net::ipv4(10, 1, 0, 0), 16}};
  VrConfig vr_b;
  vr_b.name = "vrB";
  vr_b.subnets = {net::Prefix{net::ipv4(10, 3, 0, 0), 16}};
  Rig rig(cfg, {vr_a, vr_b});

  rig.sys->ingress(rig.frame(net::ipv4(10, 1, 0, 5), net::ipv4(10, 2, 0, 1)));
  rig.sys->ingress(rig.frame(net::ipv4(10, 3, 0, 5), net::ipv4(10, 2, 0, 1)));
  rig.sys->ingress(rig.frame(net::ipv4(10, 3, 1, 5), net::ipv4(10, 2, 0, 1)));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->vr_forwarded(0), 1u);
  EXPECT_EQ(rig.sys->vr_forwarded(1), 2u);
}

TEST(LvrmSystem, UnmatchedSourceFallsBackToVrZero) {
  Rig rig;
  rig.sys->ingress(rig.frame(net::ipv4(192, 168, 0, 1), net::ipv4(10, 2, 0, 1)));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->vr_forwarded(0), 1u);
}

TEST(LvrmSystem, NoRouteFramesDropped) {
  Rig rig;
  rig.sys->ingress(rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(99, 9, 9, 9)));
  rig.sim.run_all();
  EXPECT_TRUE(rig.out.empty());
  EXPECT_EQ(rig.sys->no_route_drops(), 1u);
}

TEST(LvrmSystem, FixedAllocatorActivatesRequestedVris) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  VrConfig vr;
  vr.initial_vris = 3;
  Rig rig(cfg, {vr});
  EXPECT_EQ(rig.sys->active_vris(0), 3);
  const auto cores = rig.sys->vri_cores(0);
  ASSERT_EQ(cores.size(), 3u);
  // Distinct cores, none on LVRM's own core.
  for (std::size_t i = 0; i < cores.size(); ++i) {
    EXPECT_NE(cores[i], rig.sys->config().lvrm_core);
    for (std::size_t j = i + 1; j < cores.size(); ++j)
      EXPECT_NE(cores[i], cores[j]);
  }
}

TEST(LvrmSystem, SiblingAffinityPrefersLvrmSocket) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.affinity = AffinityPolicy::kSibling;
  VrConfig vr;
  vr.initial_vris = 3;
  Rig rig(cfg, {vr});
  const sim::CpuTopology topo;
  for (const auto core : rig.sys->vri_cores(0))
    EXPECT_TRUE(topo.siblings(core, cfg.lvrm_core)) << core;
}

TEST(LvrmSystem, NonSiblingAffinityUsesOtherSocket) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.affinity = AffinityPolicy::kNonSibling;
  VrConfig vr;
  vr.initial_vris = 3;
  Rig rig(cfg, {vr});
  const sim::CpuTopology topo;
  for (const auto core : rig.sys->vri_cores(0))
    EXPECT_FALSE(topo.siblings(core, cfg.lvrm_core)) << core;
}

TEST(LvrmSystem, SameAffinityDoublesUpOnLvrmCore) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.affinity = AffinityPolicy::kSame;
  Rig rig(cfg);
  ASSERT_EQ(rig.sys->vri_cores(0).size(), 1u);
  EXPECT_EQ(rig.sys->vri_cores(0)[0], cfg.lvrm_core);
}

TEST(LvrmSystem, SiblingOverflowSpillsToOtherSocketThenLvrmCore) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.affinity = AffinityPolicy::kSibling;
  cfg.max_vris_per_vr = 8;
  VrConfig vr;
  vr.initial_vris = 8;  // one more than the 7 free cores
  Rig rig(cfg, {vr});
  const auto cores = rig.sys->vri_cores(0);
  ASSERT_EQ(cores.size(), 8u);
  // First three on LVRM's socket, next four on the other, the 8th lands on
  // LVRM's own core (the Exp 2b over-commit contention case).
  const sim::CpuTopology topo;
  EXPECT_TRUE(topo.siblings(cores[0], cfg.lvrm_core));
  EXPECT_TRUE(topo.siblings(cores[2], cfg.lvrm_core));
  EXPECT_FALSE(topo.siblings(cores[3], cfg.lvrm_core));
  EXPECT_EQ(cores[7], cfg.lvrm_core);
}

TEST(LvrmSystem, BalancesAcrossVrisRoughlyEvenly) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.balancer = BalancerKind::kRoundRobin;
  VrConfig vr;
  vr.initial_vris = 4;
  Rig rig(cfg, {vr});
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    rig.sim.at(usec(5) * i, [&rig] {
      rig.sys->ingress(
          rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(10, 2, 0, 1)));
    });
  }
  rig.sim.run_all();
  EXPECT_EQ(rig.out.size(), static_cast<std::size_t>(n));
  for (int vri = 0; vri < 4; ++vri) {
    EXPECT_NEAR(static_cast<double>(rig.sys->vri_forwarded(0, vri)), n / 4.0,
                n * 0.05)
        << "vri " << vri;
  }
}

TEST(LvrmSystem, RxRingOverflowDropsAndCounts) {
  LvrmConfig cfg;
  cfg.adapter = AdapterKind::kRawSocket;  // small 256-slot ring
  Rig rig(cfg);
  int accepted = 0;
  for (int i = 0; i < 1000; ++i)
    if (rig.sys->ingress(
            rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(10, 2, 0, 1))))
      ++accepted;
  EXPECT_LE(accepted, 258);
  EXPECT_GT(rig.sys->rx_ring_drops(), 0u);
  rig.sim.run_all();
  EXPECT_EQ(rig.out.size(), static_cast<std::size_t>(accepted));
}

TEST(LvrmSystem, ControlEventDeliveredWithLatency) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  VrConfig vr;
  vr.initial_vris = 2;
  Rig rig(cfg, {vr});
  Nanos latency = -1;
  rig.sys->send_control(0, 0, 1, 256, [&](Nanos ns) { latency = ns; });
  rig.sim.run_all();
  ASSERT_GE(latency, 0);
  // No-load control latency sits in the single-digit microseconds (Fig 4.7).
  EXPECT_LT(latency, usec(15));
  EXPECT_GT(latency, usec(1));
}

TEST(LvrmSystem, ControlEventLatencyGrowsWithSize) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  VrConfig vr;
  vr.initial_vris = 2;
  Rig rig(cfg, {vr});
  Nanos small = -1;
  Nanos large = -1;
  rig.sys->send_control(0, 0, 1, 64, [&](Nanos ns) { small = ns; });
  rig.sim.run_all();
  rig.sys->send_control(0, 0, 1, 4096, [&](Nanos ns) { large = ns; });
  rig.sim.run_all();
  EXPECT_GT(large, small);
}

TEST(LvrmSystem, ShmSegmentsAllocatedPerQueue) {
  Rig rig;
  // 7 slots x 3 segments (ingress link, two control rings) for the single
  // default VR, plus the one shard's TX link.
  const auto slots =
      static_cast<std::size_t>(rig.sys->config().max_vris_per_vr);
  EXPECT_EQ(rig.sys->shm().segment_count(), slots * 3 + 1);
}

TEST(LvrmSystem, ClickVrForwardsThroughGraph) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  VrConfig vr;
  vr.kind = VrKind::kClick;
  Rig rig(cfg, {vr});
  rig.sys->ingress(rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(10, 2, 0, 1)));
  rig.sim.run_all();
  ASSERT_EQ(rig.out.size(), 1u);
  EXPECT_EQ(rig.out[0].output_if, 1);
  EXPECT_GT(rig.sys->vr_pipeline_latency(0), 0);
}

TEST(LvrmSystem, ClickLatencyExceedsCpp) {
  auto latency_for = [](VrKind kind) {
    LvrmConfig cfg;
    cfg.allocator = AllocatorKind::kFixed;
    VrConfig vr;
    vr.kind = kind;
    Rig rig(cfg, {vr});
    rig.sys->ingress(
        rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(10, 2, 0, 1)));
    rig.sim.run_all();
    return rig.out.at(0).gw_out_at - rig.out.at(0).gw_in_at;
  };
  const Nanos cpp = latency_for(VrKind::kCpp);
  const Nanos click = latency_for(VrKind::kClick);
  EXPECT_GT(click, cpp + usec(10));
}

TEST(LvrmSystem, DeterministicAcrossRuns) {
  auto run_once = [] {
    Rig rig;
    for (int i = 0; i < 500; ++i) {
      rig.sim.at(usec(3) * i, [&rig] {
        rig.sys->ingress(
            rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(10, 2, 0, 1)));
      });
    }
    rig.sim.run_all();
    std::vector<Nanos> times;
    for (const auto& f : rig.out) times.push_back(f.gw_out_at);
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(LvrmSystem, PerByteCostsMakeLargeFramesSlower) {
  Rig rig;
  rig.sys->ingress(rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(10, 2, 0, 1), 84));
  rig.sim.run_all();
  const Nanos small = rig.out.at(0).gw_out_at - rig.out.at(0).gw_in_at;
  rig.out.clear();
  rig.sys->ingress(
      rig.frame(net::ipv4(10, 1, 0, 1), net::ipv4(10, 2, 0, 1), 1538));
  rig.sim.run_all();
  const Nanos large = rig.out.at(0).gw_out_at - rig.out.at(0).gw_in_at;
  EXPECT_GT(large, small);
}

}  // namespace
}  // namespace lvrm
