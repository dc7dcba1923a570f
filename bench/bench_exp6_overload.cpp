// Experiment 6 — graceful degradation under overload (DESIGN.md §13).
//
// A flash crowd rides on an already-overcommitted aggregate rate and the
// question is what the gateway gives back: with the degradation ladder off it
// tail-drops blindly; with it on, per-flow sampling sheds a *known* subset
// (so delivered counts stay bias-correctable to within a few percent of the
// offered ground truth) and RX-side admission keeps ring capacity for the
// surviving subset. The last row decommissions a VRI at the height of the
// flash — the reset-free drain must migrate every live flow to the siblings
// with zero reordering and zero lost frames.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"
#include "lvrm/types.hpp"
#include "traffic/workload.hpp"

using namespace lvrm;
using namespace lvrm::exp;

namespace {

std::string level_name(int level) {
  switch (static_cast<OverloadLevel>(level)) {
    case OverloadLevel::kNormal: return "normal";
    case OverloadLevel::kSampling: return "sampling";
    case OverloadLevel::kAdmission: return "admission";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 6: graceful degradation under overload (flash crowd)",
      "DESIGN.md S13",
      "a 2x flash crowd rides on every offered rate, so even the low "
      "multipliers peak past capacity: the ladder escalates (sampling -> "
      "admission), trades a slice of raw delivery for roughly half the "
      "latency, keeps the offered estimate within ~5% of ground truth, and "
      "ordering violations stay 0 — including across a mid-flash reset-free "
      "VRI drain");

  TablePrinter table({"offered x", "ladder", "deliv %", "lat us", "est err %",
                      "mouse corr %", "peak", "sampled", "admitted out",
                      "shed", "order viol", "lost"},
                     args.csv);
  for (const double mult : {0.8, 1.0, 1.5, 2.0, 3.0}) {
    for (const bool ladder : {false, true}) {
      OverloadTrialOptions opt;
      opt.offered_multiplier = mult;
      opt.ladder = ladder;
      opt.seed = args.seed;
      opt.warmup = args.scaled(opt.warmup);
      opt.measure = args.scaled(opt.measure);
      const auto r = run_overload_trial(opt);
      const double deliv_pct =
          r.offered ? 100.0 * static_cast<double>(r.delivered) /
                          static_cast<double>(r.offered)
                    : 0.0;
      // Egress-side reconstruction of the mouse-class offered count from
      // delivered frames and their recorded sampling rates.
      const auto mouse = static_cast<std::size_t>(traffic::FlowClass::kMouse);
      const double mouse_corr =
          r.offered_by_class[mouse]
              ? 100.0 * r.corrected_by_class[mouse] /
                    static_cast<double>(r.offered_by_class[mouse])
              : 0.0;
      table.add_row(
          {TablePrinter::num(mult, 1), ladder ? "on" : "off",
           TablePrinter::num(deliv_pct, 1),
           TablePrinter::num(r.avg_latency_us, 1),
           ladder ? TablePrinter::num(100.0 * r.estimate_error, 2) : "-",
           ladder ? TablePrinter::num(mouse_corr, 1) : "-",
           level_name(r.peak_level),
           TablePrinter::num(static_cast<std::int64_t>(r.sampled_shed)),
           TablePrinter::num(static_cast<std::int64_t>(r.admission_rejected)),
           TablePrinter::num(static_cast<std::int64_t>(r.shed_drops)),
           TablePrinter::num(static_cast<std::int64_t>(r.ordering_violations)),
           TablePrinter::num(static_cast<std::int64_t>(r.lost))});
    }
  }
  table.print(std::cout);

  // Reset-free drain under load: decommission one of three VRIs mid-flash.
  std::cout << "\nReset-free VRI drain during a 2x flash crowd (ladder on):\n";
  OverloadTrialOptions opt;
  opt.offered_multiplier = 2.0;
  opt.decommission = true;
  opt.seed = args.seed;
  opt.warmup = args.scaled(opt.warmup);
  opt.measure = args.scaled(opt.measure);
  const auto d = run_overload_trial(opt);
  TablePrinter drain({"migrated", "dropped", "flows re-pinned", "handoff us",
                      "order viol", "lost"},
                     args.csv);
  drain.add_row(
      {TablePrinter::num(static_cast<std::int64_t>(d.drain_migrated)),
       TablePrinter::num(static_cast<std::int64_t>(d.drain_dropped)),
       TablePrinter::num(static_cast<std::int64_t>(d.drain_flows_evicted)),
       TablePrinter::num(static_cast<double>(d.drain_handoff_latency) / 1e3,
                         1),
       TablePrinter::num(static_cast<std::int64_t>(d.ordering_violations)),
       TablePrinter::num(static_cast<std::int64_t>(d.lost))});
  drain.print(std::cout);
  return 0;
}
