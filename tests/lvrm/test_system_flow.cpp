// End-to-end flow-based balancing through the assembled LvrmSystem.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "lvrm/system.hpp"

namespace lvrm {
namespace {

struct FlowRig {
  sim::Simulator sim;
  sim::CpuTopology topo;
  std::unique_ptr<LvrmSystem> sys;
  std::vector<net::FrameMeta> out;

  explicit FlowRig(BalancerGranularity gran, int vris = 4) {
    LvrmConfig cfg;
    cfg.allocator = AllocatorKind::kFixed;
    cfg.granularity = gran;
    cfg.balancer = BalancerKind::kRoundRobin;
    sys = std::make_unique<LvrmSystem>(sim, topo, cfg);
    VrConfig vr;
    vr.initial_vris = vris;
    sys->add_vr(vr);
    sys->start();
    sys->set_egress([this](net::FrameMeta&& f) { out.push_back(f); });
  }

  net::FrameMeta frame(std::uint16_t src_port, std::uint64_t id) {
    net::FrameMeta f;
    f.id = id;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = src_port;
    f.dst_port = 9;
    f.protocol = 17;
    return f;
  }
};

TEST(SystemFlowBased, FramesOfOneFlowStayOnOneVri) {
  FlowRig rig(BalancerGranularity::kFlow);
  Rng rng(5);
  std::uint64_t id = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto port = static_cast<std::uint16_t>(1000 + rng.uniform(16));
    rig.sim.at(usec(4) * i,
               [&rig, port, id] { rig.sys->ingress(rig.frame(port, id)); });
    ++id;
  }
  rig.sim.run_all();
  ASSERT_EQ(rig.out.size(), 2000u);
  std::map<std::uint16_t, int> assignment;
  for (const auto& f : rig.out) {
    const auto it = assignment.find(f.src_port);
    if (it == assignment.end()) {
      assignment[f.src_port] = f.dispatch_vri;
    } else {
      EXPECT_EQ(it->second, f.dispatch_vri)
          << "flow on port " << f.src_port << " switched VRIs";
    }
  }
  // 16 flows over 4 VRIs: more than one VRI actually used.
  std::map<int, int> vris_used;
  for (const auto& [port, vri] : assignment) ++vris_used[vri];
  EXPECT_GT(vris_used.size(), 1u);
}

TEST(SystemFlowBased, FrameModeSpreadsAFlow) {
  FlowRig rig(BalancerGranularity::kFrame);
  for (int i = 0; i < 400; ++i) {
    rig.sim.at(usec(4) * i, [&rig, i] {
      rig.sys->ingress(rig.frame(7777, static_cast<std::uint64_t>(i)));
    });
  }
  rig.sim.run_all();
  std::map<int, int> per_vri;
  for (const auto& f : rig.out) ++per_vri[f.dispatch_vri];
  EXPECT_EQ(per_vri.size(), 4u);  // round-robin touches every VRI
}

TEST(SystemFlowBased, NoSameFlowReorderingThroughGateway) {
  // The motivation for flow-based balancing (Sec 3.3): frames of one flow
  // must leave the gateway in arrival order.
  FlowRig rig(BalancerGranularity::kFlow);
  Rng rng(9);
  std::uint64_t id = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto port = static_cast<std::uint16_t>(1000 + rng.uniform(8));
    rig.sim.at(usec(3) * i,
               [&rig, port, id] { rig.sys->ingress(rig.frame(port, id)); });
    ++id;
  }
  rig.sim.run_all();
  std::map<std::uint16_t, std::uint64_t> last_id;
  for (const auto& f : rig.out) {
    const auto it = last_id.find(f.src_port);
    if (it != last_id.end())
      EXPECT_GT(f.id, it->second) << "reordered flow " << f.src_port;
    last_id[f.src_port] = f.id;
  }
}

TEST(SystemFlowBased, FlowsRebalanceAfterVriDestroyed) {
  // Dynamic shrink: flows pinned to a destroyed VRI must be re-pinned to a
  // live one instead of blackholing.
  sim::Simulator sim;
  sim::CpuTopology topo;
  LvrmConfig cfg;
  cfg.granularity = BalancerGranularity::kFlow;
  cfg.allocator = AllocatorKind::kDynamicFixedThreshold;
  LvrmSystem sys(sim, topo, cfg);
  VrConfig vr;
  vr.dummy_load = sim::costs::kDummyLoad;
  sys.add_vr(vr);
  sys.start();
  std::uint64_t delivered = 0;
  sys.set_egress([&](net::FrameMeta&&) { ++delivered; });

  // Phase 1: high load grows the VR to 3 VRIs; phase 2: low load shrinks it.
  std::uint64_t id = 0;
  std::function<void()> emit;
  emit = [&] {
    if (sim.now() >= sec(10)) return;
    const double rate = sim.now() < sec(4) ? 150'000.0 : 20'000.0;
    net::FrameMeta f;
    f.id = id++;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = static_cast<std::uint16_t>(1000 + id % 12);
    f.protocol = 17;
    sys.ingress(f);
    sim.after(interval_for_rate(rate), emit);
  };
  sim.at(0, emit);
  sim.run_all();

  EXPECT_EQ(sys.active_vris(0), 1);
  // After the shrink, low-rate traffic still flows (pins were re-balanced).
  const std::uint64_t before = delivered;
  for (int i = 0; i < 24; ++i) {
    sim.at(sim.now() + usec(50) * (i + 1), [&sys, &id, i] {
      net::FrameMeta f;
      f.id = id++;
      f.src_ip = net::ipv4(10, 1, 0, 1);
      f.dst_ip = net::ipv4(10, 2, 0, 1);
      f.src_port = static_cast<std::uint16_t>(1000 + i % 12);
      f.protocol = 17;
      sys.ingress(f);
    });
  }
  sim.run_all();
  EXPECT_EQ(delivered - before, 24u);
}

}  // namespace
}  // namespace lvrm
