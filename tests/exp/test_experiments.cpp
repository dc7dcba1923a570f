// Smoke and shape tests for the Chapter 4 experiment harness. These keep the
// bench binaries honest: the headline orderings of the paper's figures are
// asserted here at reduced scale so `ctest` guards them.
#include "exp/experiments.hpp"

#include <gtest/gtest.h>

namespace lvrm::exp {
namespace {

WorldOptions quick(Mechanism mech, int frame_bytes = 84) {
  WorldOptions o;
  o.mech = mech;
  o.frame_bytes = frame_bytes;
  o.warmup = msec(30);
  o.measure = msec(60);
  return o;
}

TEST(Gateway, MechanismNamesAndKinds) {
  EXPECT_EQ(all_mechanisms().size(), 6u);
  EXPECT_TRUE(is_lvrm(Mechanism::kLvrmPfCpp));
  EXPECT_FALSE(is_lvrm(Mechanism::kNativeLinux));
  for (auto m : all_mechanisms()) EXPECT_FALSE(to_string(m).empty());
}

TEST(Gateway, BuildsEveryMechanism) {
  for (auto m : all_mechanisms()) {
    sim::Simulator sim;
    sim::CpuTopology topo;
    GatewayUnderTest gw(sim, topo, m);
    int delivered = 0;
    gw.set_egress([&](net::FrameMeta&&) { ++delivered; });
    net::FrameMeta f;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    EXPECT_TRUE(gw.ingress(f)) << to_string(m);
    sim.run_all();
    EXPECT_EQ(delivered, 1) << to_string(m);
    EXPECT_EQ(gw.forwarded(), 1u) << to_string(m);
  }
}

TEST(UdpTrial, LowRateIsFeasible) {
  const auto r = run_udp_trial(quick(Mechanism::kLvrmPfCpp), 20'000.0);
  EXPECT_GT(r.sent, 0u);
  EXPECT_TRUE(r.feasible());
  EXPECT_NEAR(r.delivered_fps, 20'000.0, 2'000.0);
}

TEST(UdpTrial, OverloadIsInfeasible) {
  // KVM's ~26 Kfps capacity cannot carry 300 Kfps.
  const auto r = run_udp_trial(quick(Mechanism::kKvm), 300'000.0);
  EXPECT_FALSE(r.feasible());
  EXPECT_LT(r.delivered_fps, 60'000.0);
}

TEST(UdpTrial, OfferedRateBoundBindsOnHostsOrWire) {
  // At 84 B the two hosts' 448 Kfps cap binds; at 1538 B the wire does.
  EXPECT_NEAR(offered_rate_bound(84), 448'000.0, 1'000.0);
  EXPECT_NEAR(offered_rate_bound(1538), 1e9 / (8.0 * 1538), 10.0);
}

TEST(Achievable, SearchIsMonotoneAndFeasible) {
  const auto opts = quick(Mechanism::kLvrmRawCpp);
  const auto best = achievable_throughput(opts, offered_rate_bound(84));
  EXPECT_TRUE(best.feasible());
  EXPECT_GT(best.delivered_fps, 100'000.0);
  // Raw socket caps out below the sender bound (PF_RING reaches it).
  EXPECT_LT(best.delivered_fps, 400'000.0);
}

TEST(Achievable, Fig42Ordering) {
  // The headline Exp 1a ordering at the minimum frame size:
  // native ~ LVRM/PF_RING > LVRM/raw > VMware > KVM.
  const double native =
      achievable_throughput(quick(Mechanism::kNativeLinux), 448'000.0)
          .delivered_fps;
  const double pf =
      achievable_throughput(quick(Mechanism::kLvrmPfCpp), 448'000.0)
          .delivered_fps;
  const double raw =
      achievable_throughput(quick(Mechanism::kLvrmRawCpp), 448'000.0)
          .delivered_fps;
  const double vmware =
      achievable_throughput(quick(Mechanism::kVmware), 448'000.0)
          .delivered_fps;
  EXPECT_GT(native, 400'000.0);
  EXPECT_GT(pf, 0.93 * native);       // "very similar" to native
  EXPECT_GT(pf, 1.3 * raw);           // PF_RING beats raw by ~50%
  EXPECT_GT(raw, 1.5 * vmware);       // any LVRM beats the hypervisors
}

TEST(Rtt, NativeAndLvrmClose_HypervisorsFar) {
  const double native = measure_rtt(quick(Mechanism::kNativeLinux), 60).avg_us;
  const double pf = measure_rtt(quick(Mechanism::kLvrmPfCpp), 60).avg_us;
  const double kvm = measure_rtt(quick(Mechanism::kKvm), 60).avg_us;
  EXPECT_GT(native, 40.0);
  EXPECT_LT(native, 130.0);
  EXPECT_LT(pf, native + 40.0);  // same ballpark (Fig 4.4)
  EXPECT_GT(kvm, 3.0 * native);  // "remarkably higher"
}

TEST(MemoryWorld, CppThroughputNearPaperNumbers) {
  const auto r = run_memory_throughput(VrKind::kCpp, 84);
  // Fig 4.5 anchor: 3.7 Mfps at 84 B (allow +/-20%).
  EXPECT_GT(r.delivered_fps, 2.9e6);
  EXPECT_LT(r.delivered_fps, 4.5e6);
}

TEST(MemoryWorld, LargeFramesSlower) {
  const auto small = run_memory_throughput(VrKind::kCpp, 84);
  const auto large = run_memory_throughput(VrKind::kCpp, 1538);
  EXPECT_LT(large.delivered_fps, small.delivered_fps);
  // ...but much higher in bits/s (the 11 Gbps point of Fig 4.5).
  EXPECT_GT(large.delivered_bps, 6e9);
}

TEST(MemoryWorld, ClickFarBelowCpp) {
  const auto cpp = run_memory_throughput(VrKind::kCpp, 84);
  const auto click = run_memory_throughput(VrKind::kClick, 84,
                                           /*click_use_graph=*/false);
  EXPECT_LT(click.delivered_fps, cpp.delivered_fps / 3.0);
}

TEST(MemoryWorld, LatencyShape) {
  const auto cpp = run_memory_latency(VrKind::kCpp, 84);
  const auto click = run_memory_latency(VrKind::kClick, 84);
  EXPECT_LT(cpp.avg_latency_us, 15.0);   // "within 15 us"
  EXPECT_GT(click.avg_latency_us, 18.0);  // Fig 4.6: 25-35 us
  EXPECT_LT(click.avg_latency_us, 40.0);
}

TEST(ControlLatency, LoadRaisesLatency) {
  const double idle = measure_control_latency_us(256, /*full_load=*/false, 60);
  const double busy = measure_control_latency_us(256, /*full_load=*/true, 60);
  EXPECT_GT(idle, 2.0);
  EXPECT_LT(idle, 9.0);   // Fig 4.7: 5-7 us no load
  EXPECT_GT(busy, idle);  // 10-12 us under full load
}

TEST(AllocationTrace, TracksStaircase) {
  WorldOptions opts = quick(Mechanism::kLvrmPfCpp);
  opts.gw.lvrm.allocator = AllocatorKind::kDynamicFixedThreshold;
  VrConfig vr;
  vr.dummy_load = sim::costs::kDummyLoad;
  opts.gw.vrs = {vr};
  SenderSpec spec;
  spec.src_ip = net::ipv4(10, 1, 1, 1);
  spec.dst_ip = net::ipv4(10, 2, 1, 1);
  spec.profile = {{0, 60'000.0}, {sec(3), 120'000.0}};
  opts.senders = {spec};
  const auto trace = run_allocation_trace(opts, sec(6), msec(500));
  ASSERT_FALSE(trace.samples.empty());
  // Early: 2 VRIs (60 Kfps hits the first threshold); later: 3 VRIs.
  EXPECT_LE(trace.samples.front().vris_per_vr.at(0), 2);
  EXPECT_EQ(trace.samples.back().vris_per_vr.at(0), 3);
  EXPECT_FALSE(trace.log.empty());
}

TEST(TcpTrial, ConservesAndIsFair) {
  TcpWorldOptions opts;
  opts.mech = Mechanism::kLvrmPfCpp;
  opts.flow_pairs = 8;
  opts.warmup = sec(1);
  opts.measure = sec(2);
  const auto r = run_tcp_trial(opts);
  EXPECT_EQ(r.per_flow_mbps.size(), 8u);
  EXPECT_GT(r.aggregate_mbps, 300.0);
  EXPECT_LE(r.aggregate_mbps, 1000.0 * 1.02);
  EXPECT_GT(r.jain, 0.8);
  EXPECT_GE(r.maxmin, 0.0);
  EXPECT_LE(r.maxmin, 1.0 + 1e-9);
}

TEST(TcpTrial, SeriesRecordsWhenRequested) {
  TcpWorldOptions opts;
  opts.flow_pairs = 4;
  opts.warmup = sec(1);
  opts.measure = sec(2);
  opts.series_interval = msec(500);
  const auto r = run_tcp_trial(opts);
  EXPECT_EQ(r.series.size(), 4u);
  for (const auto& [t, mbps] : r.series) {
    EXPECT_GT(t, 0.0);
    EXPECT_GE(mbps, 0.0);
  }
}

TEST(CpuUsage, NativeIsSoftirqOnly_LvrmPollsFlatOut) {
  const auto native =
      measure_cpu_usage(quick(Mechanism::kNativeLinux), 100'000.0);
  EXPECT_GT(native.softirq_pct, 10.0);
  EXPECT_LT(native.user_pct, 1.0);

  const auto pf = measure_cpu_usage(quick(Mechanism::kLvrmPfCpp), 100'000.0);
  // The poll loop keeps the core saturated; PF_RING polling is user time.
  EXPECT_GT(pf.user_pct + pf.system_pct, 90.0);
  EXPECT_GT(pf.user_pct, pf.system_pct);

  const auto raw =
      measure_cpu_usage(quick(Mechanism::kLvrmRawCpp), 100'000.0);
  EXPECT_GT(raw.system_pct, raw.user_pct);  // syscall-heavy polling
}

TEST(FrameSweep, CoversPaperRange) {
  const auto sizes = frame_size_sweep();
  EXPECT_EQ(sizes.front(), 84);
  EXPECT_EQ(sizes.back(), 1538);
  EXPECT_GE(sizes.size(), 5u);
}

TEST(FabricTrial, PinnedWorkloadIsCleanOnFabric) {
  FabricTrialOptions opt;
  opt.shards = 2;
  opt.vris = 4;
  opt.stealing = false;
  opt.flows = 32;
  opt.warmup = msec(5);
  opt.measure = msec(20);
  const auto r = run_fabric_trial(opt);
  EXPECT_GT(r.delivered_fps, 0.0);
  EXPECT_EQ(r.ordering_violations, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.vri_steals, 0u);
  EXPECT_GT(r.mesh_rings, r.fabric_rings);
}

TEST(FabricTrial, SkewedFrameWorkloadStealsUnderStealing) {
  FabricTrialOptions opt;
  opt.shards = 2;
  opt.vris = 4;
  opt.stealing = true;
  opt.workload = FabricTrialOptions::Workload::kSkewFrame;
  opt.flows = 32;
  opt.warmup = msec(5);
  opt.measure = msec(30);
  const auto r = run_fabric_trial(opt);
  EXPECT_GT(r.delivered_fps, 0.0);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_GT(r.vri_steals + r.tx_steals, 0u);
}

TEST(FabricTrial, ElephantWorkloadKeepsOrderingUnderStealing) {
  FabricTrialOptions opt;
  opt.shards = 2;
  opt.vris = 4;
  opt.stealing = true;
  opt.workload = FabricTrialOptions::Workload::kElephant;
  opt.flows = 16;
  opt.warmup = msec(5);
  opt.measure = msec(25);
  const auto r = run_fabric_trial(opt);
  EXPECT_GT(r.delivered_fps, 0.0);
  EXPECT_EQ(r.ordering_violations, 0u);
  EXPECT_EQ(r.lost, 0u);
}

}  // namespace
}  // namespace lvrm::exp
