// main.cpp — benchmark binary: runs one workload for a host-time budget and
// writes a JSON manifest with every metric, check and provenance field.
//
//   lvrm_perfbench --workload=udp_fwd --seed=1 --seconds=30 --trace=0
//                  --manifest=.bench_out/udp_fwd.json
//
// --trace=0 repeats fresh worlds of the seed and reports the end-to-end
// metrics (host times from each window slice's fastest repetition; see
// README.md). --trace=1 alternates untraced and traced worlds, then replays
// the traced run into single modules, and reports the per-layer metrics.
// Exit status: 0 = all output checks passed, 1 = a check failed, 2 = usage
// error, 3 = refused build.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kUdpFwd;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string manifest;
  std::string spans;
  std::int64_t inject_ns = 0;
  bool perturb = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lvrm_perfbench: " << why << "\n"
            << "usage: lvrm_perfbench --workload=udp_fwd|click_churn|tcp_ftp"
               " --seed=N --seconds=S --trace=0|1 --manifest=PATH"
               " [--spans=PATH] [--inject-ns=N] [--perturb]\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& key, const std::string& v) {
  std::istringstream in(v);
  T out{};
  if (!(in >> out) || !in.eof()) usage("bad value for --" + key + ": " + v);
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage("unexpected argument " + arg);
    arg = arg.substr(2);
    std::string key = arg, val;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      val = arg.substr(eq + 1);
    } else if (key != "perturb") {
      if (i + 1 >= argc) usage("missing value for --" + key);
      val = argv[++i];
    }
    if (key == "workload") {
      const auto w = parse_workload(val);
      if (!w) usage("unknown workload " + val);
      a.workload = *w;
      have_workload = true;
    } else if (key == "seed") {
      a.seed = parse_number<std::uint64_t>(key, val);
    } else if (key == "seconds") {
      a.seconds = parse_number<double>(key, val);
      if (!(a.seconds > 0.0) || a.seconds > 120.0) usage("--seconds out of range");
    } else if (key == "trace") {
      a.trace = parse_number<int>(key, val);
      if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
    } else if (key == "manifest") {
      a.manifest = val;
    } else if (key == "spans") {
      a.spans = val;
    } else if (key == "inject-ns") {
      a.inject_ns = parse_number<std::int64_t>(key, val);
      if (a.inject_ns < 0 || a.inject_ns > 1'000'000) usage("--inject-ns out of range");
    } else if (key == "perturb") {
      a.perturb = true;
    } else {
      usage("unknown flag --" + key);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.manifest.empty()) usage("--manifest is required");
  return a;
}

/// Refuses builds whose timings would mean nothing.
void refuse_unoptimized_build() {
  std::string why;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "sanitizer build";
#endif
#if !defined(__OPTIMIZE__)
  why = "unoptimized build";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") why = "Debug build";
  if (!why.empty()) {
    std::cerr << "lvrm_perfbench: refusing to time a " << why
              << " (build type '" << PERFBENCH_BUILD_TYPE << "')\n";
    std::exit(3);
  }
}

/// Nearest-rank percentile (q in [0,1]).
template <typename T>
T percentile(std::vector<T> v, double q) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- one world ----------------------------------------------------------------

constexpr std::size_t kKeepSpans = 100'000;
constexpr std::size_t kKeepFired = 2'000'000;
constexpr std::size_t kCaptureFrames = 131'072;
constexpr int kSnapshotCalls = 64;

struct Rep {
  double setup_s = 0.0;
  double host_ns_per_frame = 0.0;
  // Per window slice: thread CPU ns and frames offered. Untraced worlds of
  // one seed replay the same events, so slice i is the same work in every
  // repetition.
  std::vector<double> slice_cpu_ns;
  std::vector<double> slice_frames;
  std::uint64_t window_frames = 0;
  // Traced worlds, at each window slice edge: the event-queue heap size
  // (see advance() in run_rep), and the pushed-minus-fired count it is
  // derived from.
  std::vector<double> queue_depth;
  std::vector<double> queue_pushed_unfired;
  WorldResult res;
  SpanTracer::AllTotals window_spans{};
  // Traced extras, taken from the live world before it is destroyed.
  std::vector<CapturedFrame> captured;
  lvrm::LvrmConfig lvrm_cfg;
  lvrm::VrConfig vr_cfg;
  int vris = 0;
  int shards = 0;
  double snapshot_ns = 0.0;
};

/// Builds a fresh world and runs it through its plan. With a tracer, the
/// loop steps the simulator itself so every step gets a span; a no-op
/// sentinel event marks each slice edge, and the final run_until makes the
/// set of fired events identical to the untraced run.
Rep run_rep(const Args& a, SpanTracer* tracer, std::vector<Nanos>* fired,
            std::size_t capture) {
  Rep rep;
  WorldOptions opt;
  opt.workload = a.workload;
  opt.seed = a.seed;
  opt.perturb = a.perturb;
  opt.inject_ns = a.inject_ns;
  opt.tracer = tracer;
  opt.capture = capture;

  const std::int64_t s0 = thread_cpu_ns();
  World w(opt);
  rep.setup_s = static_cast<double>(thread_cpu_ns() - s0) / 1e9;

  const Plan& p = w.plan();
  std::uint64_t sentinels = 0;
  auto advance = [&](Nanos t) {
    if (!tracer) {
      w.sim().run_until(t);
      return;
    }
    bool reached = false;
    const lvrm::sim::EventId id = w.sim().at(t, [&reached] { reached = true; });
    if (t > p.warmup && t <= p.stop()) {
      // EventIds are sequential, so id - 1 events were pushed before the
      // sentinel. Pushed minus fired is the heap size where nothing is
      // cancelled (udp_fwd, click_churn). Cancellation is lazy: a cancelled
      // RTO timer stays in the heap until its deadline surfaces, and is
      // then dropped uncounted. So in tcp_ftp the re-arms older than the
      // minimum RTO, whose cancelled timers have surfaced, are taken off.
      const auto unfired =
          static_cast<double>(id - 1 - w.sim().events_processed());
      const auto surfaced = static_cast<double>(w.rto_rearms_before(
          w.sim().now() - lvrm::tcp::RenoConfig{}.min_rto));
      rep.queue_pushed_unfired.push_back(unfired);
      rep.queue_depth.push_back(std::max(unfired - surfaced, 0.0));
    }
    ++sentinels;
    while (!reached) {
      {
        ScopedSpan span(tracer, Layer::kSimStep, 0);
        if (!w.sim().step()) break;
      }
      if (fired && fired->size() < kKeepFired) fired->push_back(w.sim().now());
    }
  };

  advance(p.warmup);
  w.mark_window_start();
  if (tracer) rep.window_spans = tracer->all_totals();
  const std::uint64_t off0 = w.offered();
  const std::int64_t h0 = thread_cpu_ns();
  std::uint64_t prev_off = off0;
  std::int64_t prev_h = h0;
  for (int k = 1; k <= p.slices(); ++k) {
    advance(p.warmup + p.slice * k);
    const std::int64_t h = thread_cpu_ns();
    const std::uint64_t off = w.offered();
    rep.slice_cpu_ns.push_back(static_cast<double>(h - prev_h));
    rep.slice_frames.push_back(static_cast<double>(off - prev_off));
    prev_off = off;
    prev_h = h;
  }
  const std::int64_t h1 = thread_cpu_ns();
  const std::uint64_t off1 = w.offered();
  w.mark_window_end();
  if (tracer) {
    const auto end = tracer->all_totals();
    for (std::size_t l = 0; l < end.size(); ++l) {
      rep.window_spans[l].count = end[l].count - rep.window_spans[l].count;
      rep.window_spans[l].inclusive_ns =
          end[l].inclusive_ns - rep.window_spans[l].inclusive_ns;
      rep.window_spans[l].self_ns = end[l].self_ns - rep.window_spans[l].self_ns;
    }
  }
  rep.window_frames = off1 - off0;
  rep.host_ns_per_frame =
      rep.window_frames ? static_cast<double>(h1 - h0) /
                              static_cast<double>(rep.window_frames)
                        : 0.0;

  advance(p.end());
  w.sim().run_until(p.end());
  rep.res = w.finish();
  rep.res.events -= sentinels;

  if (capture > 0) {
    rep.captured = w.captured();
    rep.lvrm_cfg = w.lvrm_config();
    rep.vr_cfg = w.vr_config();
    rep.vris = w.lvrm().active_vris(0);
    rep.shards = w.lvrm().shard_count();
    if (w.lvrm().telemetry()) {
      const std::int64_t t0 = steady_ns();
      for (int i = 0; i < kSnapshotCalls; ++i) w.lvrm().snapshot_telemetry();
      rep.snapshot_ns = static_cast<double>(steady_ns() - t0) / kSnapshotCalls;
    }
  }
  return rep;
}

// --- repetition counts --------------------------------------------------------

/// Wall seconds of one untraced repetition, and of one untraced + traced
/// pair, measured when the benchmark was defined (4-vCPU Xeon KVM guest,
/// RelWithDebInfo, medians of 30 s runs). A run's repetition count follows
/// from --seconds and these constants only, never from a clock, so a faster
/// or slower program takes its per-slice minimum over the same number of
/// repetitions, and its run time changes instead.
struct RepCost {
  double untraced_s;
  double traced_pair_s;
};

RepCost rep_cost(Workload w) {
  switch (w) {
    case Workload::kUdpFwd: return {0.25, 0.75};
    case Workload::kClickChurn: return {0.35, 0.95};
    case Workload::kTcpFtp: return {1.1, 2.4};
  }
  return {1.0, 1.0};
}

int planned_reps(const Args& a) {
  const double c = rep_cost(a.workload).untraced_s;
  return std::max(4, static_cast<int>(std::lround(a.seconds / c)));
}

/// A traced run spends 60% of --seconds on repetitions; the rest goes to
/// the replays.
int planned_pairs(const Args& a) {
  const double c = rep_cost(a.workload).traced_pair_s;
  return std::max(2, static_cast<int>(std::lround(0.6 * a.seconds / c)));
}

/// Repetitions stop early only if a run would otherwise overrun the time
/// the benchmark may take (a program several times slower than planned);
/// the manifest then says so.
constexpr std::int64_t kRunLimitNs = 140'000'000'000;

// --- statistics ---------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or how it was measured
};

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v && *v ? v : fallback;
}

// --- the two modes ------------------------------------------------------------

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;  // frames offered in the measured windows
  std::uint64_t failed = 0;     // frames an output check flagged
  int reps = 0;
  int planned = 0;  // repetitions the run was to take
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::vector<std::string> details;
  std::map<std::string, std::vector<double>> samples;  // per repetition
};

void check_rep(const Rep& rep, const Rep& first, Outcome& out) {
  for (const auto& e : rep.res.errors) out.errors.push_back(e);
  out.failed += rep.res.reordered +
                static_cast<std::uint64_t>(std::llabs(rep.res.in_flight));
  if (rep.res.digest != first.res.digest)
    out.errors.push_back("non-deterministic: repetition digest " +
                         hex64(rep.res.digest) + " != " +
                         hex64(first.res.digest));
  out.attempted += rep.window_frames;
}

void sim_metrics(const WorldResult& r, Outcome& out) {
  const double lat_n = static_cast<double>(r.latency_ns.size());
  out.metrics.push_back({"sim_delivered_kfps",
                         static_cast<double>(r.delivered_window) /
                             r.window_seconds / 1e3,
                         "kfps", "frames created in the window, delivered"});
  out.metrics.push_back(
      {"sim_latency_us_p50",
       static_cast<double>(percentile(r.latency_ns, 0.50)) / 1e3, "us",
       "n=" + num(lat_n) + " gw_in_at to gateway egress"});
  out.metrics.push_back(
      {"sim_latency_us_p99",
       static_cast<double>(percentile(r.latency_ns, 0.99)) / 1e3, "us",
       "n=" + num(lat_n) + ", " + num(std::floor(lat_n * 0.01)) +
           " samples beyond"});
  out.metrics.push_back(
      {"frame_loss_ratio",
       ratio(static_cast<double>(r.offered_window - r.delivered_window),
             static_cast<double>(r.offered_window)),
       "ratio", "offered in window and not delivered / offered"});
}

/// Interference on a shared host only ever adds time, and it switches on
/// and off every ~10 ms: one repetition's slices alternate between about 1x
/// and 2x cost, and the share of slow time drifts over minutes. So host
/// times are taken from the fastest observations, never from the middle.
double quiet_quartile(const std::vector<double>& v) { return percentile(v, 0.25); }

std::string spread_note(const std::vector<double>& v, const std::string& what) {
  return "lower quartile of " + std::to_string(v.size()) + " " + what +
         "; median " + num(median_of(v)) + ", min " +
         num(percentile(v, 0.0)) + ", max " + num(percentile(v, 1.0));
}

/// Host cost of the window with the host's slow periods removed. Worlds of
/// one seed replay the same events, so slice i is the same work in every
/// repetition: its quiet cost is its fastest CPU time across them, and the
/// window's cost is the sum. Every slice counts, rare expensive ones too.
class QuietCost {
 public:
  /// Folds in one repetition and releases its slice vectors.
  void add(Rep& r, Outcome& out) {
    if (frames_.empty()) {
      fastest_ = r.slice_cpu_ns;
      frames_ = r.slice_frames;
    } else if (r.slice_frames != frames_) {
      out.errors.push_back("repetitions offered different frames per slice");
    } else {
      for (std::size_t i = 0; i < fastest_.size(); ++i)
        fastest_[i] = std::min(fastest_[i], r.slice_cpu_ns[i]);
    }
    std::vector<double>().swap(r.slice_cpu_ns);
    std::vector<double>().swap(r.slice_frames);
  }

  double ns_per_frame() const {
    double cpu = 0.0, frames = 0.0;
    for (std::size_t i = 0; i < fastest_.size(); ++i) {
      cpu += fastest_[i];
      frames += frames_[i];
    }
    return ratio(cpu, frames);
  }

  const std::vector<double>& slice_frames() const { return frames_; }

  /// Per-frame quiet cost of each slice that offered frames.
  std::vector<double> slice_ns_per_frame() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < fastest_.size(); ++i)
      if (frames_[i] > 0) v.push_back(fastest_[i] / frames_[i]);
    return v;
  }

 private:
  std::vector<double> fastest_;
  std::vector<double> frames_;
};

/// Offered frames per quarter of the window: flat in a steady window.
std::string quarters_note(const std::vector<double>& slice_frames) {
  double q[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < slice_frames.size(); ++i)
    q[i * 4 / slice_frames.size()] += slice_frames[i];
  return "offered frames per window quarter " + num(q[0]) + " " + num(q[1]) +
         " " + num(q[2]) + " " + num(q[3]);
}

void window_details(Workload w, const WorldResult& r, const QuietCost& quiet,
                    Outcome& out) {
  out.details.push_back(quarters_note(quiet.slice_frames()));
  if (w == Workload::kTcpFtp)
    out.details.push_back("tcp in window: " +
                        std::to_string(r.tcp_window_timeouts) + " timeouts, " +
                        std::to_string(r.tcp_window_retransmits) +
                        " retransmits");
}

Outcome run_untraced(const Args& a) {
  Outcome out;
  std::vector<Rep> reps;
  out.planned = planned_reps(a);
  const std::int64_t start = steady_ns();
  const std::int64_t limit = start + kRunLimitNs;
  QuietCost quiet;
  while (static_cast<int>(reps.size()) < out.planned &&
         (reps.size() < 4 || steady_ns() < limit)) {
    reps.push_back(run_rep(a, nullptr, nullptr, 0));
    quiet.add(reps.back(), out);
    // Only the first world's samples are reported; dropping the rest keeps
    // peak_rss_mb a property of one world, not of the repetition count.
    if (reps.size() > 1) std::vector<Nanos>().swap(reps.back().res.latency_ns);
  }
  out.details.push_back(
      "wall s per repetition " +
      num(static_cast<double>(steady_ns() - start) / 1e9 /
          static_cast<double>(reps.size())));

  std::vector<double> per_rep, setup;
  for (const Rep& r : reps) {
    check_rep(r, reps.front(), out);
    per_rep.push_back(r.host_ns_per_frame);
    setup.push_back(r.setup_s);
  }
  const Rep& first = reps.front();
  const std::vector<double> slice_cost = quiet.slice_ns_per_frame();
  out.samples = {{"host_ns_per_frame", per_rep}, {"setup_s", setup}};
  out.reps = static_cast<int>(reps.size());
  out.digest = first.res.digest;
  out.events = first.res.events;
  out.frames = first.res.offered;
  window_details(a.workload, first.res, quiet, out);

  const double n = static_cast<double>(slice_cost.size());
  const std::string slices =
      num(n) + " slices of " +
      num(lvrm::to_micros(plan_for(a.workload).slice)) + " us";
  out.metrics.push_back(
      {"host_ns_per_frame", quiet.ns_per_frame(), "ns",
       "thread CPU ns per offered frame: sum over " + slices +
           " of each slice's fastest time in " + std::to_string(reps.size()) +
           " repetitions; per-repetition mean: median " +
           num(median_of(per_rep)) + ", min " + num(percentile(per_rep, 0.0)) +
           ", max " + num(percentile(per_rep, 1.0))});
  out.metrics.push_back(
      {"host_ns_per_frame_p99", percentile(slice_cost, 0.99),
       "ns",
       "p99 over " + slices + " of the same per-slice cost (" +
           num(std::floor(n * 0.01)) + " beyond); slice median " +
           num(percentile(slice_cost, 0.5))});
  out.metrics.push_back({"setup_s", quiet_quartile(setup), "s",
                         spread_note(setup, "world constructions")});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss"});
  sim_metrics(first.res, out);
  out.metrics.push_back(
      {"sim.events_per_frame",
       ratio(static_cast<double>(first.res.events),
             static_cast<double>(first.res.offered)),
       "events/frame", "whole run"});
  return out;
}

Outcome run_traced(const Args& a) {
  Outcome out;
  std::vector<Rep> plain, traced;
  std::vector<std::unique_ptr<SpanTracer>> tracers;
  std::vector<Nanos> fired;
  const int pairs = planned_pairs(a);
  out.planned = 2 * pairs;
  const std::int64_t start = steady_ns();
  const std::int64_t limit = start + kRunLimitNs / 2;
  QuietCost quiet_plain, quiet_traced;
  while (static_cast<int>(traced.size()) < pairs &&
         (traced.size() < 2 || steady_ns() < limit)) {
    plain.push_back(run_rep(a, nullptr, nullptr, 0));
    quiet_plain.add(plain.back(), out);
    const bool first = traced.empty();
    tracers.push_back(std::make_unique<SpanTracer>(first ? kKeepSpans : 0));
    traced.push_back(run_rep(a, tracers.back().get(), first ? &fired : nullptr,
                             first ? kCaptureFrames : 0));
    quiet_traced.add(traced.back(), out);
    if (plain.size() > 1) std::vector<Nanos>().swap(plain.back().res.latency_ns);
    if (traced.size() > 1) std::vector<Nanos>().swap(traced.back().res.latency_ns);
  }
  out.details.push_back(
      "wall s per untraced + traced pair " +
      num(static_cast<double>(steady_ns() - start) / 1e9 /
          static_cast<double>(traced.size())));

  for (const Rep& r : plain) check_rep(r, plain.front(), out);
  for (const Rep& r : traced) check_rep(r, plain.front(), out);
  const Rep& t0 = traced.front();
  const WorldResult& r = t0.res;
  out.reps = static_cast<int>(plain.size() + traced.size());
  out.digest = plain.front().res.digest;
  out.events = r.events;
  out.frames = r.offered;
  window_details(a.workload, r, quiet_plain, out);
  const auto depth = static_cast<std::size_t>(median_of(t0.queue_depth));

  const double host_plain = quiet_plain.ns_per_frame();
  const double host_traced = quiet_traced.ns_per_frame();

  // Per-layer span figures: lower quartile over the traced repetitions,
  // the same estimator as the end-to-end host times.
  auto per_call = [&](Layer l) {
    std::vector<double> v;
    for (const Rep& x : traced) {
      const auto& t = x.window_spans[static_cast<std::size_t>(l)];
      v.push_back(ratio(static_cast<double>(t.inclusive_ns),
                        static_cast<double>(t.count)));
    }
    return quiet_quartile(v);
  };
  auto self_per_frame = [&](std::initializer_list<Layer> layers) {
    std::vector<double> v;
    for (const Rep& x : traced) {
      double ns = 0.0;
      for (Layer l : layers)
        ns += static_cast<double>(x.window_spans[static_cast<std::size_t>(l)].self_ns);
      v.push_back(ratio(ns, static_cast<double>(x.window_frames)));
    }
    return quiet_quartile(v);
  };
  auto self_per_call = [&](Layer l) {
    std::vector<double> v;
    for (const Rep& x : traced) {
      const auto& t = x.window_spans[static_cast<std::size_t>(l)];
      v.push_back(ratio(static_cast<double>(t.self_ns),
                        static_cast<double>(t.count)));
    }
    return quiet_quartile(v);
  };

  std::vector<double> gen;
  for (int i = 0; i < 3; ++i) gen.push_back(generators_alone_ns(a.workload, a.seed));

  std::vector<double> fwd;
  for (std::uint64_t v : r.vri_forwarded) fwd.push_back(static_cast<double>(v));
  double mean = 0.0, var = 0.0;
  for (double v : fwd) mean += v / static_cast<double>(fwd.size());
  for (double v : fwd) var += (v - mean) * (v - mean) / static_cast<double>(fwd.size());

  const double offered = static_cast<double>(r.offered);
  auto& m = out.metrics;
  m.push_back({"sim.events_per_frame", ratio(static_cast<double>(r.events), offered),
               "events/frame", "whole run, exact"});
  m.push_back({"sim.step_self_ns", self_per_call(Layer::kSimStep), "ns",
               "per Simulator::step(), minus nested hook spans"});
  const std::string depth_note =
      std::to_string(depth) + " deep (median over " +
      std::to_string(t0.queue_depth.size()) +
      " window slice edges of events pushed minus fired, " +
      num(median_of(t0.queue_pushed_unfired)) +
      ", less RTO re-arms older than the minimum RTO)";
  m.push_back({"sim.event_queue_ns", replay_event_queue_ns(fired, depth), "ns",
               "push+pop replaying " + std::to_string(fired.size()) +
                   " fired timestamps on a queue " + depth_note});
  m.push_back({"sim.event_cancel_ns", replay_event_cancel_ns(fired, depth),
               "ns",
               "push/cancel/push/pop round on the same replay, half events "
               "and half re-armed timers, " + depth_note});
  m.push_back({"sim.lvrm_core_util", r.lvrm_core_util, "ratio",
               "simulated busy fraction of the dispatcher cores"});
  m.push_back({"sim.vri_core_util", r.vri_core_util, "ratio",
               "simulated busy fraction of the VRI cores"});
  m.push_back({"sim.self_ns_per_frame", self_per_frame({Layer::kSimStep}), "ns",
               "step self time per offered frame"});
  m.push_back({"traffic.gen_ns_per_frame", median_of(gen), "ns",
               "traffic sources alone into a counting sink"});
  m.push_back({"traffic.testbed_in_ns", per_call(Layer::kTestbedIn), "ns",
               "per Testbed::from_sender/from_receiver"});
  m.push_back({"traffic.testbed_out_ns", per_call(Layer::kTestbedOut), "ns",
               "per Testbed::gateway_egress (egress hook)"});
  m.push_back({"traffic.self_ns_per_frame",
               self_per_frame({Layer::kTestbedIn, Layer::kTestbedOut}), "ns",
               "testbed self time per offered frame"});
  m.push_back({"lvrm.ingress_ns", per_call(Layer::kLvrmIngress), "ns",
               "per LvrmSystem/GatewayUnderTest::ingress"});
  m.push_back({"lvrm.ingress_reject_ratio",
               ratio(static_cast<double>(r.ingress_rejects),
                     static_cast<double>(r.ingress_calls)),
               "ratio", "ingress calls returning false"});
  m.push_back({"lvrm.self_ns_per_frame", self_per_frame({Layer::kLvrmIngress}),
               "ns", "ingress self time per offered frame"});
  m.push_back({"lvrm.dispatch_ns",
               replay_dispatch_ns(t0.captured, t0.lvrm_cfg, t0.vris, t0.shards),
               "ns",
               "per Dispatcher::dispatch over " +
                   std::to_string(t0.captured.size()) + " captured frames"});
  m.push_back({"lvrm.flow_hit_ratio",
               ratio(static_cast<double>(r.flow_hits),
                     static_cast<double>(r.flow_probes)),
               "ratio", "flow_hits / flow_probes (0 in frame mode)"});
  m.push_back({"lvrm.vri_process_ns", replay_vri_process_ns(t0.captured, t0.vr_cfg),
               "ns", "per VirtualRouter::process over the captured frames"});
  m.push_back({"lvrm.queue_drop_ratio",
               ratio(static_cast<double>(r.queue_drops), offered), "ratio",
               "data_queue_drops / offered"});
  m.push_back({"lvrm.vri_balance_cv", mean > 0.0 ? std::sqrt(var) / mean : 0.0,
               "ratio", "stddev/mean of vri_forwarded over " +
                            std::to_string(fwd.size()) + " VRIs"});
  m.push_back({"net.flow_entries", static_cast<double>(r.flow_entries), "count",
               "tracked flows, all shards, end of run"});
  m.push_back({"net.flow_slots", static_cast<double>(r.flow_slots), "count",
               "flow-table slot capacity, all shards"});
  m.push_back({"obs.snapshot_ns", t0.snapshot_ns, "ns",
               "per LvrmSystem::snapshot_telemetry() (0 = telemetry off)"});
  m.push_back({"tcp.retransmits", static_cast<double>(r.tcp_retransmits), "count",
               "whole run"});
  m.push_back({"tcp.timeouts", static_cast<double>(r.tcp_timeouts), "count",
               "whole run"});
  m.push_back({"tcp.self_ns_per_frame", self_per_frame({Layer::kTcpEndpoint}),
               "ns", "RenoFlow endpoint self time per offered frame"});
  m.push_back({"bench.self_ns_per_frame", self_per_frame({Layer::kBenchSink}),
               "ns", "the benchmark's own delivery checks"});
  m.push_back({"trace.host_ns_per_frame", host_traced, "ns",
               "host_ns_per_frame of the traced repetitions"});
  m.push_back({"trace.overhead_ns_per_frame", host_traced - host_plain, "ns",
               "traced minus untraced host_ns_per_frame (" +
                   std::to_string(plain.size()) + " + " +
                   std::to_string(traced.size()) + " repetitions)"});

  out.details.push_back("spans recorded " + std::to_string(tracers.front()->spans()) +
                        ", kept " + std::to_string(tracers.front()->kept().size()));
  if (!a.spans.empty()) {
    std::ofstream f(a.spans);
    f << "id,parent,name,request_id,start_ns,end_ns\n";
    const auto& kept = tracers.front()->kept();
    const std::int64_t base = kept.empty() ? 0 : kept.front().start;
    for (const SpanRecord& s : kept)
      f << s.id << ',' << s.parent << ',' << layer_name(s.layer) << ','
        << s.request << ',' << s.start - base << ',' << s.end - base << '\n';
    if (!f) out.errors.push_back("could not write spans to " + a.spans);
  }
  return out;
}

void write_manifest(const Args& a, int argc, char** argv, const Outcome& o) {
  std::ofstream f(a.manifest);
  f << "{\n  \"argv\": [";
  for (int i = 0; i < argc; ++i)
    f << (i ? ", " : "") << '"' << json_escape(argv[i]) << '"';
  f << "],\n";
  f << "  \"workload\": \"" << workload_name(a.workload) << "\",\n";
  f << "  \"seed\": " << a.seed << ",\n";
  f << "  \"trace\": " << a.trace << ",\n";
  f << "  \"seconds\": " << num(a.seconds) << ",\n";
  f << "  \"inject_ns\": " << a.inject_ns << ",\n";
  f << "  \"perturb\": " << (a.perturb ? "true" : "false") << ",\n";
  f << "  \"git_rev\": \"" << json_escape(env_or("PERFBENCH_GIT_REV", "unknown"))
    << "\",\n";
  f << "  \"source_sha256\": \""
    << json_escape(env_or("PERFBENCH_SOURCE_SHA256", "unknown")) << "\",\n";
  f << "  \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE) << "\",\n";
  f << "  \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS) << "\",\n";
  f << "  \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\",\n";
  f << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n";
  f << "  \"cpu_model\": \"" << json_escape(cpu_model()) << "\",\n";
  f << "  \"repetitions\": " << o.reps << ",\n";
  f << "  \"repetitions_planned\": " << o.planned << ",\n";
  f << "  \"events\": " << o.events << ",\n";
  f << "  \"frames\": " << o.frames << ",\n";
  f << "  \"attempted\": " << o.attempted << ",\n";
  f << "  \"failed\": " << o.failed << ",\n";
  f << "  \"digest\": \"" << hex64(o.digest) << "\",\n";
  f << "  \"errors\": [";
  for (std::size_t i = 0; i < o.errors.size(); ++i)
    f << (i ? ", " : "") << '"' << json_escape(o.errors[i]) << '"';
  f << "],\n  \"details\": [";
  for (std::size_t i = 0; i < o.details.size(); ++i)
    f << (i ? ", " : "") << '"' << json_escape(o.details[i]) << '"';
  f << "],\n  \"samples\": {";
  bool first_sample = true;
  for (const auto& [name, values] : o.samples) {
    f << (first_sample ? "\n" : ",\n") << "    \"" << name << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i)
      f << (i ? ", " : "") << num(values[i]);
    f << "]";
    first_sample = false;
  }
  f << "\n  },\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    f << "    \"" << m.name << "\": {\"value\": " << num(m.value)
      << ", \"unit\": \"" << m.unit << "\", \"note\": \"" << json_escape(m.note)
      << "\"}" << (i + 1 < o.metrics.size() ? "," : "") << "\n";
  }
  f << "  }\n}\n";
  if (!f) {
    std::cerr << "lvrm_perfbench: could not write " << a.manifest << "\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  refuse_unoptimized_build();
  // Keep freed memory mapped between repetitions. glibc's adaptive mmap and
  // trim thresholds move with the history of earlier repetitions, so some
  // runs faulted every world's memory in afresh and set-up took 2.2 ms
  // instead of 0.6 ms; fixed thresholds make every world after the first
  // reuse warm memory, as one long experiment would.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const Args a = parse_args(argc, argv);
  Outcome o = a.trace ? run_traced(a) : run_untraced(a);
  if (o.reps < o.planned)
    o.details.push_back("WARNING: stopped at " + std::to_string(o.reps) +
                        " of " + std::to_string(o.planned) +
                        " planned repetitions, at the run-time limit; the "
                        "host figures are not comparable");
  write_manifest(a, argc, argv, o);

  std::cout << "workload " << workload_name(a.workload) << " seed " << a.seed
            << " trace " << a.trace << ": " << o.reps << " repetitions, "
            << o.frames << " frames and " << o.events
            << " events per world, digest " << hex64(o.digest) << "\n";
  for (const Metric& m : o.metrics)
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit
              << "  (" << m.note << ")\n";
  for (const std::string& d : o.details) std::cout << "  " << d << "\n";
  for (const std::string& e : o.errors) std::cout << "  CHECK FAILED: " << e << "\n";
  return o.errors.empty() ? 0 : 1;
}
