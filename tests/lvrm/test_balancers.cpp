#include "lvrm/load_balancer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"

namespace lvrm {
namespace {

std::vector<VriView> views(std::initializer_list<double> loads) {
  std::vector<VriView> out;
  int idx = 0;
  for (double load : loads) out.push_back(VriView{idx++, load});
  return out;
}

net::FrameMeta frame_for_flow(std::uint32_t flow) {
  net::FrameMeta f;
  f.src_ip = net::ipv4(10, 1, 0, 1) + flow;
  f.dst_ip = net::ipv4(10, 2, 0, 1);
  f.src_port = static_cast<std::uint16_t>(10000 + flow);
  f.dst_port = 9;
  f.protocol = 17;
  return f;
}

TEST(Jsq, PicksLightestLoad) {
  JsqBalancer jsq;
  const auto v = views({5.0, 1.0, 3.0});
  EXPECT_EQ(jsq.pick(v), 1);
}

TEST(Jsq, FirstWinsOnTies) {
  JsqBalancer jsq;
  const auto v = views({2.0, 2.0, 2.0});
  EXPECT_EQ(jsq.pick(v), 0);  // strict '<' in Fig 3.3 keeps the first
}

TEST(Jsq, CostScalesWithCandidates) {
  JsqBalancer jsq;
  EXPECT_GT(jsq.decision_cost(6), jsq.decision_cost(1));
}

TEST(RoundRobin, CyclesThroughAll) {
  RoundRobinBalancer rr;
  const auto v = views({0.0, 0.0, 0.0});
  std::vector<int> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(rr.pick(v));
  EXPECT_EQ(picks, (std::vector<int>{1, 2, 0, 1, 2, 0}));
}

TEST(RoundRobin, AdaptsWhenSetShrinks) {
  RoundRobinBalancer rr;
  auto v3 = views({0.0, 0.0, 0.0});
  rr.pick(v3);
  const auto v2 = views({0.0, 0.0});
  for (int i = 0; i < 4; ++i) {
    const int pick = rr.pick(v2);
    EXPECT_GE(pick, 0);
    EXPECT_LE(pick, 1);
  }
}

TEST(Random, UniformAcrossVris) {
  RandomBalancer rnd(42);
  const auto v = views({9.0, 9.0, 9.0, 9.0});  // loads must not matter
  std::map<int, int> counts;
  const int n = 40'000;
  for (int i = 0; i < n; ++i) ++counts[rnd.pick(v)];
  for (const auto& [idx, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count), n / 4.0, n * 0.02) << idx;
  }
}

TEST(Random, DeterministicUnderSeed) {
  RandomBalancer a(7);
  RandomBalancer b(7);
  const auto v = views({0.0, 0.0, 0.0});
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.pick(v), b.pick(v));
}

TEST(Factory, ProducesAllKinds) {
  for (auto kind : {BalancerKind::kJoinShortestQueue, BalancerKind::kRoundRobin,
                    BalancerKind::kRandom}) {
    const auto b = make_balancer(kind, 1);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->kind(), kind);
  }
}

TEST(Dispatcher, FrameModeDelegates) {
  Dispatcher d(make_balancer(BalancerKind::kJoinShortestQueue, 1),
               BalancerGranularity::kFrame);
  const auto v = views({5.0, 1.0});
  EXPECT_EQ(d.dispatch(frame_for_flow(0), v, 0), 1);
  EXPECT_FALSE(d.last_was_flow_hit());
}

TEST(Dispatcher, FlowModePinsFlows) {
  // Fig 3.3: all frames of a flow go to the VRI that served its first frame,
  // even when loads later favour another VRI.
  Dispatcher d(make_balancer(BalancerKind::kJoinShortestQueue, 1),
               BalancerGranularity::kFlow);
  auto v = views({5.0, 1.0});
  EXPECT_EQ(d.dispatch(frame_for_flow(7), v, 0), 1);
  v = views({0.0, 9.0});  // loads now favour VRI 0
  EXPECT_EQ(d.dispatch(frame_for_flow(7), v, 1), 1);  // still pinned
  EXPECT_TRUE(d.last_was_flow_hit());
  EXPECT_EQ(d.dispatch(frame_for_flow(8), v, 2), 0);  // new flow rebalances
}

TEST(Dispatcher, NoReorderProperty) {
  // Property: in flow mode, every frame of a given 5-tuple maps to one VRI
  // across thousands of interleaved dispatches.
  Dispatcher d(make_balancer(BalancerKind::kRoundRobin, 1),
               BalancerGranularity::kFlow);
  const auto v = views({0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  std::map<std::uint32_t, int> assigned;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const auto flow = static_cast<std::uint32_t>(rng.uniform(40));
    const int vri = d.dispatch(frame_for_flow(flow), v, i);
    const auto it = assigned.find(flow);
    if (it == assigned.end()) {
      assigned[flow] = vri;
    } else {
      EXPECT_EQ(it->second, vri) << "flow " << flow << " reordered";
    }
  }
}

TEST(Dispatcher, DestroyedVriFlowsRebalance) {
  Dispatcher d(make_balancer(BalancerKind::kJoinShortestQueue, 1),
               BalancerGranularity::kFlow);
  auto v = views({5.0, 1.0});
  EXPECT_EQ(d.dispatch(frame_for_flow(3), v, 0), 1);
  d.on_vri_destroyed(1);
  // VRI 1 no longer among candidates: the flow must be re-pinned to a live
  // VRI rather than dispatched to the dead one.
  const std::vector<VriView> only0{VriView{0, 5.0}};
  EXPECT_EQ(d.dispatch(frame_for_flow(3), only0, 1), 0);
  EXPECT_EQ(d.dispatch(frame_for_flow(3), only0, 2), 0);
}

TEST(Dispatcher, StalePinnedVriNotInCandidatesRebalances) {
  // Even without explicit eviction, a pinned VRI missing from the candidate
  // list ("valid" check in Fig 3.3) must not be returned.
  Dispatcher d(make_balancer(BalancerKind::kRoundRobin, 1),
               BalancerGranularity::kFlow);
  auto v = views({0.0, 0.0, 0.0});
  int first = d.dispatch(frame_for_flow(1), v, 0);
  std::vector<VriView> reduced;
  for (const auto& view : v)
    if (view.index != first) reduced.push_back(view);
  const int rebalanced = d.dispatch(frame_for_flow(1), reduced, 1);
  EXPECT_NE(rebalanced, first);
}

TEST(Dispatcher, FlowModeCostsMore) {
  Dispatcher frame_d(make_balancer(BalancerKind::kJoinShortestQueue, 1),
                     BalancerGranularity::kFrame);
  Dispatcher flow_d(make_balancer(BalancerKind::kJoinShortestQueue, 1),
                    BalancerGranularity::kFlow);
  EXPECT_GT(flow_d.decision_cost(6, false), frame_d.decision_cost(6, false));
}

TEST(Dispatcher, FlowExpiryRebalancesAfterIdle) {
  Dispatcher d(make_balancer(BalancerKind::kJoinShortestQueue, 1),
               BalancerGranularity::kFlow, /*flow_idle_timeout=*/sec(5));
  auto v = views({5.0, 1.0});
  EXPECT_EQ(d.dispatch(frame_for_flow(2), v, 0), 1);
  v = views({0.0, 9.0});
  // 10 s later the pin expired; JSQ now picks VRI 0.
  EXPECT_EQ(d.dispatch(frame_for_flow(2), v, sec(10)), 0);
}

TEST(Dispatcher, OneFrameBatchMatchesDispatch) {
  // A per-frame serve is a burst of one, so dispatch(f) and
  // dispatch_batch({&f}) must be the same decision: same VRI, the same cost
  // as decision_cost(n, last_was_flow_hit()), and the same counter bumps.
  // Two dispatchers built alike walk one script, one path each.
  for (const BalancerKind kind :
       {BalancerKind::kJoinShortestQueue, BalancerKind::kRoundRobin,
        BalancerKind::kRandom}) {
    for (const BalancerGranularity gran :
         {BalancerGranularity::kFrame, BalancerGranularity::kFlow}) {
      SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                      << " granularity "
                                      << static_cast<int>(gran));
      const bool flow = gran == BalancerGranularity::kFlow;
      Dispatcher single(make_balancer(kind, 7), gran);
      Dispatcher batch(make_balancer(kind, 7), gran);
      Nanos now = 0;
      auto step = [&](std::uint32_t flow_id, const std::vector<VriView>& v) {
        net::FrameMeta f = frame_for_flow(flow_id);
        const int want = single.dispatch(f, v, now);
        const Nanos want_cost =
            single.decision_cost(v.size(), single.last_was_flow_hit());
        net::FrameMeta* const burst[] = {&f};
        const Nanos cost = batch.dispatch_batch(burst, v, now);
        ++now;
        EXPECT_EQ(f.dispatch_vri, want);
        EXPECT_EQ(cost, want_cost);
        EXPECT_EQ(batch.last_was_flow_hit(), single.last_was_flow_hit());
        EXPECT_EQ(batch.decisions(), single.decisions());
        EXPECT_EQ(batch.flow_probes(), single.flow_probes());
        EXPECT_EQ(batch.flow_hits(), single.flow_hits());
        return want;
      };

      const int pin1 = step(1, views({3.0, 1.0, 2.0}));  // new flow
      const int again = step(1, views({0.0, 9.0, 9.0}));  // pinned hit
      if (flow) EXPECT_EQ(again, pin1);
      step(2, views({9.0, 0.0, 9.0}));  // another new flow
      // Stale pin: flow 1's VRI is no longer a candidate.
      std::vector<VriView> without_pin;
      for (const VriView& x : views({1.0, 2.0, 3.0}))
        if (x.index != pin1) without_pin.push_back(x);
      EXPECT_NE(step(1, without_pin), pin1);
      // A suspect VRI gets no new flow.
      auto suspect0 = views({0.0, 5.0, 3.0});
      suspect0[0].suspect = true;
      EXPECT_NE(step(3, suspect0), 0);
      // A pinned flow keeps its VRI when that VRI turns suspect; a frame-mode
      // pick steers away from it.
      const int pin4 = step(4, views({0.0, 9.0, 9.0}));
      auto pin_suspect = views({0.0, 9.0, 9.0});
      pin_suspect[static_cast<std::size_t>(pin4)].suspect = true;
      if (flow) {
        EXPECT_EQ(step(4, pin_suspect), pin4);
      } else {
        EXPECT_NE(step(4, pin_suspect), pin4);
      }
      EXPECT_EQ(single.flow_hits(), flow ? 2u : 0u);
    }
  }
}

}  // namespace
}  // namespace lvrm
