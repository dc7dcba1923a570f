// WorkloadGenerator (Exp 6): Zipf-weighted flows, the flash-crowd rate
// envelope, and the adversarial mixes. Everything must be deterministic from
// the seed — the overload experiments diff runs across configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/rng.hpp"

#include "net/headers.hpp"
#include "sim/simulator.hpp"
#include "traffic/workload.hpp"

namespace lvrm::traffic {
namespace {

WorkloadGenerator::Config base_config() {
  WorkloadGenerator::Config c;
  c.base_rate = 100'000.0;
  c.stop_at = msec(50);
  c.min_gap = 1;
  return c;
}

TEST(Workload, DeterministicFromSeed) {
  auto run = [] {
    sim::Simulator sim;
    std::vector<net::FrameMeta> frames;
    WorkloadGenerator gen(sim, base_config(),
                          [&](net::FrameMeta&& f) { frames.push_back(f); });
    gen.start();
    sim.run_all();
    return frames;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].src_ip, b[i].src_ip);
    EXPECT_EQ(a[i].src_port, b[i].src_port);
    EXPECT_EQ(a[i].created_at, b[i].created_at);
  }
}

TEST(Workload, ZipfRanksAreHeavyTailed) {
  sim::Simulator sim;
  std::map<std::uint16_t, std::uint64_t> per_flow;
  WorkloadGenerator gen(sim, base_config(), [&](net::FrameMeta&& f) {
    if (f.protocol == net::kProtoUdp) ++per_flow[f.src_port];
  });
  gen.start();
  sim.run_all();
  ASSERT_GT(gen.sent(), 1000u);
  // Rank 0 is the heaviest flow: with alpha=1 over 256 flows it carries
  // roughly 1/H(256) ~ 16% of the frames; rank 100 carries ~0.16%.
  const auto rank0 = per_flow[20000];
  EXPECT_GT(rank0, gen.sent() / 10);
  EXPECT_GT(rank0, 20 * per_flow[20100]);
}

TEST(Workload, ClassCountsPartitionEverySentFrame) {
  sim::Simulator sim;
  auto cfg = base_config();
  cfg.attack_fraction = 0.3;
  std::uint64_t by_class[kFlowClassCount] = {0, 0, 0};
  WorkloadGenerator gen(sim, cfg, [&](net::FrameMeta&& f) {
    ++by_class[static_cast<std::size_t>(gen.class_of(f))];
  });
  gen.start();
  sim.run_all();
  std::uint64_t total = 0;
  for (int c = 0; c < kFlowClassCount; ++c) {
    EXPECT_EQ(by_class[c], gen.sent(static_cast<FlowClass>(c)));
    total += by_class[c];
  }
  EXPECT_EQ(total, gen.sent());
  // All three classes are represented: mice, the elephant head ranks, and
  // the adversarial slice.
  for (int c = 0; c < kFlowClassCount; ++c) EXPECT_GT(by_class[c], 0u);
}

TEST(Workload, FlashEnvelopeRampsHoldsAndDecays) {
  auto cfg = base_config();
  cfg.flash_at = msec(10);
  cfg.flash_ramp = msec(5);
  cfg.flash_hold = msec(20);
  cfg.flash_multiplier = 3.0;
  sim::Simulator sim;
  WorkloadGenerator gen(sim, cfg, [](net::FrameMeta&&) {});
  EXPECT_DOUBLE_EQ(gen.rate_at(0), 100'000.0);          // before
  EXPECT_DOUBLE_EQ(gen.rate_at(msec(10)), 100'000.0);   // ramp start
  EXPECT_NEAR(gen.rate_at(msec(12) + msec(1) / 2),      // mid-ramp
              200'000.0, 1.0);
  EXPECT_DOUBLE_EQ(gen.rate_at(msec(15)), 300'000.0);   // hold
  EXPECT_DOUBLE_EQ(gen.rate_at(msec(34)), 300'000.0);   // still holding
  EXPECT_NEAR(gen.rate_at(msec(37) + msec(1) / 2),      // mid-decay
              200'000.0, 1.0);
  EXPECT_DOUBLE_EQ(gen.rate_at(msec(40)), 100'000.0);   // after
}

TEST(Workload, SynFloodNeverRepeatsATupleAndScanWalksPorts) {
  auto flood_cfg = base_config();
  flood_cfg.attack_fraction = 1.0;
  flood_cfg.stop_at = msec(5);
  sim::Simulator sim;
  std::vector<net::FrameMeta> frames;
  WorkloadGenerator gen(sim, flood_cfg,
                        [&](net::FrameMeta&& f) { frames.push_back(f); });
  gen.start();
  sim.run_all();
  ASSERT_GT(frames.size(), 100u);
  for (const auto& f : frames) {
    EXPECT_EQ(f.protocol, net::kProtoTcp);
    EXPECT_EQ(gen.class_of(f), FlowClass::kAttack);
  }

  auto scan_cfg = flood_cfg;
  scan_cfg.attack = AttackMix::kPortScan;
  sim::Simulator sim2;
  std::vector<std::uint16_t> ports;
  WorkloadGenerator scan(sim2, scan_cfg,
                         [&](net::FrameMeta&& f) { ports.push_back(f.dst_port); });
  scan.start();
  sim2.run_all();
  ASSERT_GT(ports.size(), 10u);
  for (std::size_t i = 1; i < ports.size(); ++i)
    EXPECT_EQ(ports[i], static_cast<std::uint16_t>(ports[i - 1] + 1));
}

TEST(Workload, ElephantCountFollowsTheConfiguredFraction) {
  auto cfg = base_config();
  cfg.flows = 100;
  cfg.elephant_fraction = 0.1;
  sim::Simulator sim;
  WorkloadGenerator gen(sim, cfg, [](net::FrameMeta&&) {});
  EXPECT_EQ(gen.elephant_count(), 10);
  net::FrameMeta f;
  f.protocol = net::kProtoUdp;
  f.src_port = 20009;  // rank 9: the last elephant
  EXPECT_EQ(gen.class_of(f), FlowClass::kElephant);
  f.src_port = 20010;  // rank 10: first mouse
  EXPECT_EQ(gen.class_of(f), FlowClass::kMouse);
}

// --- ZipfRanks: the guided pick must be the full binary search -------------

// Bucket edges k/G, every CDF value and the doubles on either side of each
// (nextafter), plus the ends of [0,1] and a seeded stream of uniform draws:
// the guided pick must return the clamped std::lower_bound rank for all.
TEST(ZipfRanks, GuidedPickEqualsFullSearch) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const int flows : {1, 2, 3, 8, 9, 1000, 65536}) {
    // alpha 0 is uniform: with a power-of-two flow count some CDF values
    // then sit exactly on bucket edges.
    for (const double alpha : {0.0, 0.5, 1.0, 1.2}) {
      SCOPED_TRACE(testing::Message() << "flows=" << flows
                                      << " alpha=" << alpha);
      const ZipfRanks z(flows, alpha);
      ASSERT_EQ(z.cdf().size(), static_cast<std::size_t>(flows));
      const std::size_t g = z.buckets();
      ASSERT_EQ(g & (g - 1), 0u);  // a power of two
      ASSERT_GE(8 * g, static_cast<std::size_t>(flows));
      EXPECT_EQ(z.cdf().back(), 1.0);

      auto check = [&](double u) {
        ASSERT_EQ(z.pick(u), z.pick_by_search(u)) << "u=" << u;
      };
      for (std::size_t k = 0; k <= g; ++k) {
        const double edge = static_cast<double>(k) / static_cast<double>(g);
        check(edge);
        check(std::nextafter(edge, -inf));
        check(std::nextafter(edge, inf));
      }
      for (const double c : z.cdf()) {
        check(c);
        check(std::nextafter(c, -inf));
        check(std::nextafter(c, inf));
      }
      check(0.0);
      check(std::nextafter(1.0, 0.0));
      Rng rng(static_cast<std::uint64_t>(flows) * 31 +
              static_cast<std::uint64_t>(alpha * 10));
      for (int i = 0; i < 1'000'000; ++i) check(rng.uniform01());
    }
  }
}

TEST(ZipfRanks, ReferenceSearchIsTheClampedLowerBound) {
  const ZipfRanks z(1000, 1.0);
  const auto& cdf = z.cdf();
  EXPECT_EQ(z.pick_by_search(0.0), 0);
  EXPECT_EQ(z.pick_by_search(cdf[10]), 10);
  EXPECT_EQ(z.pick_by_search(std::nextafter(cdf[10], 1.0)), 11);
  EXPECT_EQ(z.pick_by_search(2.0), 999);  // past the end: clamped
  EXPECT_EQ(z.pick(2.0), 999);
}

}  // namespace
}  // namespace lvrm::traffic
