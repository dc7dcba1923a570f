// §17 MPMC fabric + work stealing: fabric-on is behaviorally identical to
// fabric-off while stealing stays off (the byte-identity contract), the
// arena audit shows the collapsed ring count and reclaimed headroom, the two
// stealing policies move real work without breaking per-flow ordering or
// leaking pool slots — including through a crash + respawn — and the steal
// counters / audit events / gauges appear exactly when the gates are on.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lvrm/core_allocator.hpp"
#include "lvrm/fault_injector.hpp"
#include "lvrm/system.hpp"
#include "obs/audit.hpp"
#include "obs/export.hpp"
#include "sim/costs.hpp"
#include "sim/topology.hpp"

namespace lvrm {
namespace {

namespace costs = sim::costs;

struct FabricRig {
  sim::Simulator sim;
  sim::CpuTopology topo;
  std::unique_ptr<LvrmSystem> sys;
  std::unique_ptr<FaultInjector> faults;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  static constexpr std::uint64_t kFlows = 64;
  std::map<std::uint64_t, std::uint64_t> flow_last_id;
  std::uint64_t ordering_violations = 0;
  /// Full egress trace (frame ids in completion order) for byte-identity
  /// comparisons between two rigs.
  std::vector<std::uint64_t> egress_ids;
  std::deque<std::function<void()>> emitters;

  FabricRig(LvrmConfig cfg, int initial_vris, int flows = kFlows,
            Nanos dummy_load = costs::kDummyLoad) {
    sys = std::make_unique<LvrmSystem>(sim, topo, cfg);
    VrConfig vr;
    vr.initial_vris = initial_vris;
    vr.dummy_load = dummy_load;
    sys->add_vr(vr);
    sys->start();
    sys->set_egress([this, flows](net::FrameMeta&& f) {
      ++delivered;
      egress_ids.push_back(f.id);
      const std::uint64_t flow = f.id % static_cast<std::uint64_t>(flows);
      const auto last = flow_last_id.find(flow);
      if (last != flow_last_id.end() && f.id < last->second)
        ++ordering_violations;
      flow_last_id[flow] = f.id;
    });
    faults = std::make_unique<FaultInjector>(sim, *sys);
  }

  static LvrmConfig cfg(int shards, bool fabric, bool stealing) {
    LvrmConfig c;
    c.allocator = AllocatorKind::kFixed;
    c.dispatch_shards = shards;
    c.mpmc_fabric = fabric;
    c.work_stealing = stealing;
    return c;
  }

  void offer(double fps, Nanos until, int flows = kFlows) {
    std::function<void()>& emit = emitters.emplace_back();
    const Nanos gap = interval_for_rate(fps);
    emit = [this, gap, until, flows, &emit] {
      if (sim.now() >= until) return;
      net::FrameMeta f;
      f.id = sent++;
      f.wire_bytes = 84;
      const auto flow =
          static_cast<std::uint32_t>(f.id % static_cast<std::uint64_t>(flows));
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

// --- byte-identity: fabric on/off, stealing off ---------------------------

TEST(MpmcFabric, FabricOnIsByteIdenticalToOffAtOneShard) {
  // The §17 acceptance contract: with work_stealing off, flipping
  // mpmc_fabric changes ShmArena topology and gauge families but not one
  // observable frame — the egress trace (ids in completion order) and every
  // drop bucket match exactly at one shard.
  FabricRig off(FabricRig::cfg(1, false, false), 2);
  FabricRig on(FabricRig::cfg(1, true, false), 2);
  off.offer(200'000.0, msec(300));
  on.offer(200'000.0, msec(300));
  off.sim.run_all();
  on.sim.run_all();

  EXPECT_GT(off.delivered, 0u);
  EXPECT_EQ(off.sent, on.sent);
  EXPECT_EQ(off.delivered, on.delivered);
  EXPECT_EQ(off.egress_ids, on.egress_ids);
  EXPECT_EQ(off.sys->data_queue_drops(), on.sys->data_queue_drops());
  EXPECT_EQ(off.sys->rx_ring_drops(), on.sys->rx_ring_drops());
}

TEST(MpmcFabric, FabricOnIsByteIdenticalToOffWhenSharded) {
  // Same contract on a sharded plane: the per-slot queues persist as the
  // MPMC links' per-producer claimed segments, so even multi-shard traffic
  // is untouched while stealing stays off.
  LvrmConfig base = FabricRig::cfg(2, false, false);
  base.granularity = BalancerGranularity::kFlow;
  LvrmConfig fab = base;
  fab.mpmc_fabric = true;
  FabricRig off(base, 4);
  FabricRig on(fab, 4);
  off.offer(300'000.0, msec(300));
  on.offer(300'000.0, msec(300));
  off.sim.run_all();
  on.sim.run_all();

  EXPECT_GT(off.delivered, 0u);
  EXPECT_EQ(off.egress_ids, on.egress_ids);
  EXPECT_EQ(off.accounted(), off.sent);
  EXPECT_EQ(on.accounted(), on.sent);
}

// --- arena audit: ring counts and reclaimed bytes -------------------------

TEST(MpmcFabric, FabricCollapsesRingCountAtLeastFourFold) {
  // 8 shards x 16 VRIs is the acceptance topology: the SPSC mesh needs
  // V*(2S+2)+S rings, the fabric V*3+2S links — >= 4x fewer.
  LvrmConfig c = FabricRig::cfg(8, true, false);
  c.max_vris_per_vr = 16;
  FabricRig rig(c, 16);
  const std::size_t mesh = rig.sys->mesh_ring_count();
  const std::size_t fabric = rig.sys->fabric_ring_count();
  EXPECT_EQ(mesh, 16u * (2 * 8 + 2) + 8);   // 296
  EXPECT_EQ(fabric, 16u * 3 + 2 * 8);        // 64
  EXPECT_GE(mesh, 4 * fabric);
  EXPECT_GT(rig.sys->mesh_ring_bytes(), rig.sys->fabric_ring_bytes());
}

TEST(MpmcFabric, FabricArenaReservesFewerBytesThanMesh) {
  // The ShmArena audit (§17 satellite): the fabric build's actual arena
  // reservation is strictly smaller than the mesh build's for the same
  // topology, and the reclaimed headroom is published as a gauge.
  LvrmConfig mesh_cfg = FabricRig::cfg(2, false, false);
  LvrmConfig fab_cfg = mesh_cfg;
  fab_cfg.mpmc_fabric = true;
  FabricRig mesh(mesh_cfg, 4);
  FabricRig fab(fab_cfg, 4);
  EXPECT_LT(fab.sys->shm().total_bytes(), mesh.sys->shm().total_bytes());

  fab.offer(100'000.0, msec(100));
  fab.sim.run_all();
  ASSERT_NE(fab.sys->telemetry(), nullptr);
  fab.sys->snapshot_telemetry();
  bool saw_reclaimed = false, saw_rings = false;
  for (const auto& g : fab.sys->telemetry()->metrics().snapshot().gauges) {
    if (g.name == "lvrm_fabric_reclaimed_bytes") {
      saw_reclaimed = true;
      EXPECT_GT(g.value, 0.0);
    }
    if (g.name == "lvrm_fabric_rings") {
      saw_rings = true;
      EXPECT_EQ(g.value, static_cast<double>(fab.sys->fabric_ring_count()));
    }
  }
  EXPECT_TRUE(saw_reclaimed);
  EXPECT_TRUE(saw_rings);

  // And the mesh build publishes none of the fabric family (byte-identity).
  mesh.offer(100'000.0, msec(100));
  mesh.sim.run_all();
  mesh.sys->snapshot_telemetry();
  for (const auto& g : mesh.sys->telemetry()->metrics().snapshot().gauges)
    EXPECT_TRUE(g.name.rfind("lvrm_fabric", 0) != 0 &&
                g.name.rfind("lvrm_mesh", 0) != 0)
        << g.name;
}

// --- work stealing --------------------------------------------------------

TEST(MpmcFabric, IdleVriStealsFromSlowedSibling) {
  // Frame granularity (no pins): slow one VRI 8x so its data queue backlogs
  // while its sibling idles — the sibling's idle hook must steal. Every
  // frame still arrives exactly once.
  LvrmConfig c = FabricRig::cfg(1, true, true);
  FabricRig rig(c, 2);
  rig.faults->schedule({.kind = FaultKind::kSlowdown,
                        .vri = 0,
                        .at = msec(10),
                        .duration = msec(400),
                        .magnitude = 8.0});
  rig.offer(250'000.0, msec(300));
  rig.sim.run_all();

  EXPECT_GT(rig.sys->vri_steals(), 0u);
  EXPECT_GT(rig.sys->vri_steal_frames(), 0u);
  EXPECT_EQ(rig.accounted(), rig.sent);

  // The steal trail carries the §17 audit kind.
  bool saw_audit = false;
  for (const auto& e : rig.sys->telemetry()->audit().events())
    if (e.kind == obs::AuditKind::kVriSteal) saw_audit = true;
  EXPECT_TRUE(saw_audit);
}

TEST(MpmcFabric, PinnedFlowsAreNeverStolen) {
  // Flow granularity with no replication: every queued head carries a
  // pinned flow, so the steal-only-unpinned filter must refuse ALL ingress
  // steals even with a backlogged sibling right next to an idle one.
  LvrmConfig c = FabricRig::cfg(1, true, true);
  c.granularity = BalancerGranularity::kFlow;
  FabricRig rig(c, 2);
  rig.faults->schedule({.kind = FaultKind::kSlowdown,
                        .vri = 0,
                        .at = msec(10),
                        .duration = msec(400),
                        .magnitude = 8.0});
  rig.offer(250'000.0, msec(300));
  rig.sim.run_all();

  EXPECT_EQ(rig.sys->vri_steals(), 0u);
  EXPECT_EQ(rig.ordering_violations, 0u);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(MpmcFabric, StealVsPinOrderingSurvivesCrashRespawn) {
  // The §17 x §12 composition property: pinned flows + stealing on + a VRI
  // crash and respawn mid-run. The pin filter, the TX-drain gate, and the
  // recovery re-dispatch must together keep every flow's egress in order
  // and every frame accounted.
  LvrmConfig c = FabricRig::cfg(2, true, true);
  c.granularity = BalancerGranularity::kFlow;
  c.health.enabled = true;
  FabricRig rig(c, 4);
  rig.offer(300'000.0, sec(3));
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 1, .at = sec(1) + msec(350)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  EXPECT_TRUE(rig.sys->recovery_log()[0].respawned);
  EXPECT_EQ(rig.sys->vri_steals(), 0u);  // all heads pinned: no steals
  EXPECT_EQ(rig.ordering_violations, 0u);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(MpmcFabric, StealingLeaksNoPoolSlotsAcrossConfigMatrix) {
  // Conservation with stealing under the §9 batched hot path x §11
  // sharding, through a crash: every frame is delivered or lands in a drop
  // bucket no matter which server ran it.
  for (const bool batched : {false, true}) {
    LvrmConfig c = FabricRig::cfg(2, true, true);
    c.batched_hot_path = batched;
    c.health.enabled = true;
    FabricRig rig(c, 4);
    rig.offer(300'000.0, sec(2));
    rig.faults->schedule({.kind = FaultKind::kSlowdown,
                          .vri = 2,
                          .at = msec(100),
                          .duration = msec(800),
                          .magnitude = 6.0});
    rig.faults->schedule(
        {.kind = FaultKind::kCrash, .vri = 1, .at = sec(1) + msec(350)});
    rig.sim.run_all();

    EXPECT_GT(rig.sent, 0u) << "batched=" << batched;
    EXPECT_EQ(rig.accounted(), rig.sent) << "batched=" << batched;
  }
}

TEST(MpmcFabric, StealCountersAndGaugesOnlyWhenStealingOn) {
  // Counter/gauge hygiene: the steal families appear iff work_stealing is
  // on, so defaults-off exports stay byte-identical to earlier builds.
  FabricRig off(FabricRig::cfg(1, true, false), 2);
  off.offer(100'000.0, msec(100));
  off.sim.run_all();
  for (const auto& ctr : off.sys->telemetry()->metrics().snapshot().counters)
    EXPECT_TRUE(ctr.name.find("steal") == std::string::npos) << ctr.name;
  for (const auto& g : off.sys->telemetry()->metrics().snapshot().gauges)
    EXPECT_TRUE(g.name.find("steal") == std::string::npos) << g.name;

  LvrmConfig c = FabricRig::cfg(1, true, true);
  FabricRig on(c, 2);
  on.faults->schedule({.kind = FaultKind::kSlowdown,
                       .vri = 0,
                       .at = msec(10),
                       .duration = msec(400),
                       .magnitude = 8.0});
  on.offer(250'000.0, msec(300));
  on.sim.run_all();
  on.sys->snapshot_telemetry();
  bool saw_counter = false, saw_gauge = false;
  for (const auto& ctr : on.sys->telemetry()->metrics().snapshot().counters)
    if (ctr.name == "lvrm_vri_steal_frames_total" && ctr.value > 0)
      saw_counter = true;
  for (const auto& g : on.sys->telemetry()->metrics().snapshot().gauges)
    if (g.name == "lvrm_vri_steal_frames" && g.value > 0) saw_gauge = true;
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST(MpmcFabric, IdleShardStealsForeignTxDrain) {
  // TX-drain stealing: every flow is RSS-steered to shard 0 (ports picked
  // by the same hash ingress uses) and the single VRI is homed there too,
  // so shard 0 carries RX + dispatch + the whole egress drain while shard 1
  // has no work at all. The idle shard must pick up shard 0's data_out
  // backlog through its staging queue — counted, audited, and without
  // losing a frame or a pool slot.
  LvrmConfig c = FabricRig::cfg(2, true, true);
  c.steal_min_backlog = 2;
  // dummy_load 0: the VRI is fast, so its egress bursts outrun shard 0's
  // drain while shard 0 is busy dispatching RX batches.
  FabricRig rig(c, /*initial_vris=*/1, FabricRig::kFlows, /*dummy_load=*/0);
  auto shard0_port = [] {
    for (std::uint16_t p = 2000;; ++p) {
      net::FrameMeta f;
      f.src_ip = net::ipv4(10, 1, 0, 1);
      f.dst_ip = net::ipv4(10, 2, 0, 1);
      f.src_port = p;
      if (net::hash_tuple(net::FiveTuple::from_frame(f)) % 2 == 0) return p;
    }
  }();
  std::function<void()> emit = [&rig, shard0_port, &emit] {
    if (rig.sim.now() >= msec(300)) return;
    net::FrameMeta f;
    f.id = rig.sent++;
    f.wire_bytes = 84;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = shard0_port;
    rig.sys->ingress(f);
    rig.sim.after(usec(3), emit);
  };
  rig.sim.at(0, emit);
  rig.sim.run_all();
  EXPECT_GT(rig.sys->tx_steals(), 0u);
  EXPECT_GT(rig.sys->tx_steal_frames(), 0u);
  bool saw_audit = false;
  for (const auto& e : rig.sys->telemetry()->audit().events())
    if (e.kind == obs::AuditKind::kTxSteal) saw_audit = true;
  EXPECT_TRUE(saw_audit);
  EXPECT_EQ(rig.ordering_violations, 0u);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(MpmcFabric, StealAuditEventsReachTheChromeTrace) {
  // One run with both stealing policies at work. VRI i is homed on shard
  // i. VRI 1 is slowed 8x, so VRI 0 steals its ingress and carries most of
  // the traffic; every flow is steered to shard 0 (as in
  // IdleShardStealsForeignTxDrain), so the nearly idle shard 1 steals from
  // VRI 0's TX drain. Both audit kinds must reach the Chrome trace with
  // their fields.
  LvrmConfig c = FabricRig::cfg(2, true, true);
  c.steal_min_backlog = 2;
  FabricRig rig(c, /*initial_vris=*/2, FabricRig::kFlows,
                /*dummy_load=*/usec(2));
  rig.faults->schedule({.kind = FaultKind::kSlowdown,
                        .vri = 1,
                        .at = msec(10),
                        .duration = msec(400),
                        .magnitude = 8.0});
  std::vector<std::uint16_t> shard0_ports;
  for (std::uint16_t p = 2000; shard0_ports.size() < 16; ++p) {
    net::FrameMeta f;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = p;
    if (net::hash_tuple(net::FiveTuple::from_frame(f)) % 2 == 0)
      shard0_ports.push_back(p);
  }
  std::function<void()> emit = [&rig, &shard0_ports, &emit] {
    if (rig.sim.now() >= msec(300)) return;
    net::FrameMeta f;
    f.id = rig.sent++;
    f.wire_bytes = 84;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = shard0_ports[f.id % shard0_ports.size()];
    rig.sys->ingress(f);
    rig.sim.after(usec(2), emit);
  };
  rig.sim.at(0, emit);
  rig.sim.run_all();
  ASSERT_GT(rig.sys->tx_steals(), 0u);
  ASSERT_GT(rig.sys->vri_steals(), 0u);

  std::ostringstream os;
  obs::write_chrome_trace(rig.sys->telemetry()->audit().events(), os);
  const std::string trace = os.str();
  EXPECT_NE(
      trace.find("\"name\":\"tx_steal\",\"args\":{\"shard\":1,\"vri\":0,"),
      std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"vri_steal\",\"args\":{\"vri\":0,"
                       "\"victim_vri\":1,"),
            std::string::npos);
  EXPECT_EQ(rig.accounted(), rig.sent);
}

TEST(MpmcFabric, WorkStealingRequiresFabric) {
  // work_stealing without mpmc_fabric is inert: no steal machinery, no
  // steal metrics — the gate composes, it does not free-float.
  LvrmConfig c = FabricRig::cfg(1, /*fabric=*/false, /*stealing=*/true);
  FabricRig rig(c, 2);
  rig.faults->schedule({.kind = FaultKind::kSlowdown,
                        .vri = 0,
                        .at = msec(10),
                        .duration = msec(400),
                        .magnitude = 8.0});
  rig.offer(250'000.0, msec(300));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->vri_steals(), 0u);
  EXPECT_EQ(rig.sys->tx_steals(), 0u);
  for (const auto& ctr : rig.sys->telemetry()->metrics().snapshot().counters)
    EXPECT_TRUE(ctr.name.find("steal") == std::string::npos) << ctr.name;
}

}  // namespace
}  // namespace lvrm
