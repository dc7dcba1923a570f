// Experiment 3a / Fig 4.14 — load balancing among the VRIs of one VR.
//
// 360 Kfps over a VR with six 60-Kfps VRIs (dummy load 1/60 ms); sweeps the
// three balancing schemes for both VR implementations.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"
#include "sim/costs.hpp"

using namespace lvrm;
using namespace lvrm::exp;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 3a: load balancing among VRIs of one VR (360 Kfps, 6 "
      "VRIs, dummy load 1/60 ms)",
      "Fig 4.14",
      "all schemes approach the 360 Kfps ideal for the C++ VR; JSQ slightly "
      "outperforms round-robin and random (it respects current VRI load); "
      "Click VR lower because of its internal processing");

  TablePrinter table({"VR", "scheme", "delivered Kfps", "of ideal %"},
                     args.csv);
  for (const Mechanism mech :
       {Mechanism::kLvrmPfCpp, Mechanism::kLvrmPfClick}) {
    for (const BalancerKind scheme :
         {BalancerKind::kJoinShortestQueue, BalancerKind::kRoundRobin,
          BalancerKind::kRandom}) {
      WorldOptions opts;
      opts.mech = mech;
      opts.frame_bytes = 84;
      opts.warmup = args.scaled(msec(500));
      opts.measure = args.scaled(sec(1));
      opts.gw.lvrm.balancer = scheme;
      opts.gw.lvrm.seed = args.seed;
      // The VR "eventually is allocated six cores" under dynamic allocation
      // (Exp 2c); start from that steady state with at most six VRIs.
      opts.gw.lvrm.allocator = AllocatorKind::kDynamicFixedThreshold;
      opts.gw.lvrm.max_vris_per_vr = 6;
      VrConfig vr;
      vr.initial_vris = 6;
      vr.dummy_load = sim::costs::kDummyLoad;
      vr.click_use_graph = false;
      opts.gw.vrs = {vr};
      // "Achievable throughput of each load balancing scheme": the search
      // finds the highest rate the scheme carries within the +/-2% rule.
      const auto r = achievable_throughput(opts, 360'000.0);
      table.add_row({mech == Mechanism::kLvrmPfCpp ? "c++" : "click",
                     to_string(scheme),
                     TablePrinter::num(r.delivered_fps / 1e3, 1),
                     TablePrinter::num(100.0 * r.delivered_fps / 360'000.0,
                                       1)});
    }
  }
  table.print(std::cout);
  return 0;
}
