// perfbench.hpp — the repository benchmark: three of the paper's worlds run
// end to end on one simulator thread, timed in host CPU time, with a
// separate traced run that splits the cost by module.
//
// Everything here sits outside the program under test: the worlds are built
// from the public API only, and every span is recorded around a call the
// benchmark itself makes into a module (see README.md in this directory).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "exp/gateway.hpp"
#include "lvrm/config.hpp"
#include "lvrm/system.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "tcp/reno.hpp"
#include "traffic/testbed.hpp"
#include "traffic/udp_sender.hpp"
#include "traffic/workload.hpp"

namespace perfbench {

using lvrm::Nanos;

enum class Workload { kUdpFwd, kClickChurn, kTcpFtp };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

// --- host clocks -------------------------------------------------------------

/// CPU time of the calling thread. The simulator is single-threaded, so this
/// is its cost without the scheduler noise that wall time carries.
std::int64_t thread_cpu_ns();
/// Monotonic wall clock (vDSO, cheap enough for per-event spans).
std::int64_t steady_ns();
/// Spins for `ns` of wall time (the self-test's injected slowdown).
void busy_wait_ns(std::int64_t ns);

// --- spans --------------------------------------------------------------------

/// The module boundaries the benchmark records spans at.
enum class Layer : std::uint8_t {
  kSimStep,      // sim::Simulator::step()
  kTestbedIn,    // traffic::Testbed::from_sender / from_receiver
  kTestbedOut,   // traffic::Testbed::gateway_egress
  kLvrmIngress,  // LvrmSystem::ingress / GatewayUnderTest::ingress
  kTcpEndpoint,  // tcp::RenoFlow::on_data_at_receiver / on_ack_at_sender
  kBenchSink,    // the benchmark's own delivery checks
  kCount
};
const char* layer_name(Layer l);

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = top level
  Layer layer = Layer::kSimStep;
  std::uint64_t request = 0;  // frame id where the call carries a frame
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Records spans in memory. Self time (duration minus the part covered by
/// child spans) is aggregated per layer for every span; the first `keep`
/// spans are also retained verbatim for writing out at the end.
class SpanTracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t inclusive_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanTracer(std::size_t keep) : keep_(keep) {
    kept_.reserve(keep);
    stack_.reserve(16);
  }

  void open(Layer layer, std::uint64_t request);
  void close();

  const Totals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  using AllTotals = std::array<Totals, static_cast<std::size_t>(Layer::kCount)>;
  const AllTotals& all_totals() const { return totals_; }
  const std::vector<SpanRecord>& kept() const { return kept_; }
  std::uint64_t spans() const { return next_id_ - 1; }

 private:
  struct Open {
    SpanRecord rec;
    std::int64_t child_ns = 0;
  };
  std::size_t keep_;
  std::vector<SpanRecord> kept_;
  std::vector<Open> stack_;
  AllTotals totals_{};
  std::uint32_t next_id_ = 1;
};

/// RAII span; a null tracer (the untraced run) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* t, Layer layer, std::uint64_t request) : t_(t) {
    if (t_) t_->open(layer, request);
  }
  ~ScopedSpan() {
    if (t_) t_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* t_;
};

/// Request id of a frame: the sender's frame id, or for TCP (which leaves
/// ids at 0) the flow and sequence number.
std::uint64_t request_id(const lvrm::net::FrameMeta& f);

// --- worlds -------------------------------------------------------------------

/// Simulated-time schedule of one world: traffic runs [0, stop), statistics
/// are taken over [warmup, stop), and the world then drains until end() so
/// that no frame is left in flight.
struct Plan {
  Nanos warmup = 0;
  Nanos window = 0;
  Nanos slice = 0;  // host-time slices for host_ns_per_frame_p99
  Nanos drain = 0;
  Nanos stop() const { return warmup + window; }
  Nanos end() const { return warmup + window + drain; }
  int slices() const { return static_cast<int>(window / slice); }
};
Plan plan_for(Workload w);

struct WorldOptions {
  Workload workload = Workload::kUdpFwd;
  std::uint64_t seed = 1;
  /// Starts the traffic 1 ns later: a tiny behaviour change that
  /// conservation cannot see, used to prove the digest check trips.
  bool perturb = false;
  /// Busy-wait added to every call of the world's egress hook (self-test).
  std::int64_t inject_ns = 0;
  SpanTracer* tracer = nullptr;
  /// Keep copies of up to this many frames admitted at ingress after the
  /// warm-up, for the dispatch and VRI replays.
  std::size_t capture = 0;
};

/// Everything the checks and metrics need from one finished world.
struct WorldResult {
  // conservation (whole run)
  std::uint64_t offered = 0;    // frames that entered the network
  std::int64_t in_flight = 0;   // offered - delivered - drops, after drain
  std::uint64_t reordered = 0;  // per-flow id regressions of pinned flows
  std::uint64_t ingress_calls = 0;
  std::uint64_t ingress_rejects = 0;
  std::uint64_t queue_drops = 0;
  std::vector<std::string> errors;  // failed output checks

  // window (frames created in [warmup, stop))
  std::uint64_t offered_window = 0;
  std::uint64_t delivered_window = 0;
  std::vector<Nanos> latency_ns;  // gw_in_at -> gateway egress
  double window_seconds = 0.0;

  // modelled layers
  std::uint64_t events = 0;  // simulator events over the whole run
  double lvrm_core_util = 0.0;
  double vri_core_util = 0.0;
  std::uint64_t flow_probes = 0;
  std::uint64_t flow_hits = 0;
  std::uint64_t flow_entries = 0;
  std::uint64_t flow_slots = 0;
  std::vector<std::uint64_t> vri_forwarded;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t tcp_window_retransmits = 0;  // inside [warmup, stop)
  std::uint64_t tcp_window_timeouts = 0;

  std::uint64_t digest = 0;
};

/// Frame admitted at ingress, with the simulated time it arrived.
struct CapturedFrame {
  lvrm::net::FrameMeta frame;
  Nanos at = 0;
  int shard = 0;
};

/// One freshly built, deterministic world. Construction is the benchmark's
/// set-up; the first simulator event fires on the first run_until/step.
class World {
 public:
  explicit World(const WorldOptions& options);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  lvrm::sim::Simulator& sim() { return sim_; }
  lvrm::LvrmSystem& lvrm() { return *sys_; }
  const lvrm::LvrmConfig& lvrm_config() const { return lvrm_cfg_; }
  const lvrm::VrConfig& vr_config() const { return vr_cfg_; }
  const Plan& plan() const { return plan_; }

  /// Frames that have entered the network so far.
  std::uint64_t offered() const { return offered_; }

  /// Reads the simulated core accounting at the window edges.
  void mark_window_start();
  void mark_window_end();

  /// After the simulator has run to plan().end(): checks and statistics.
  WorldResult finish();

  const std::vector<CapturedFrame>& captured() const { return captured_; }

  /// RTO timer re-arms (data segments sent, ACKs that advance) up to
  /// simulated time t; recorded only in worlds that capture frames.
  std::size_t rto_rearms_before(Nanos t) const;

 private:
  void build_udp_fwd();
  void build_click_churn();
  void build_tcp_ftp();
  /// The Fig 4.1 testbed between the traffic hosts and the gateway.
  void attach_testbed(const lvrm::traffic::Testbed::Config& cfg);

  bool ingress(lvrm::net::FrameMeta&& f);
  void note_offer(const lvrm::net::FrameMeta& f);
  void note_egress(const lvrm::net::FrameMeta& f);
  void note_delivery(const lvrm::net::FrameMeta& f);
  void check_order(std::size_t key, std::uint64_t id);
  void mix(std::uint64_t v);
  bool in_window(const lvrm::net::FrameMeta& f) const {
    return f.created_at >= plan_.warmup && f.created_at < plan_.stop();
  }
  double core_busy(bool lvrm_cores) const;
  std::uint64_t tcp_retransmits() const;
  std::uint64_t tcp_timeouts() const;

  WorldOptions opt_;
  Plan plan_;
  lvrm::sim::Simulator sim_;
  lvrm::sim::CpuTopology topo_;
  lvrm::LvrmConfig lvrm_cfg_;
  lvrm::VrConfig vr_cfg_;
  std::unique_ptr<lvrm::exp::GatewayUnderTest> gw_;
  std::unique_ptr<lvrm::LvrmSystem> own_sys_;
  lvrm::LvrmSystem* sys_ = nullptr;
  std::unique_ptr<lvrm::traffic::Testbed> bed_;
  std::vector<std::unique_ptr<lvrm::traffic::UdpSender>> udp_;
  std::vector<std::unique_ptr<lvrm::traffic::WorkloadGenerator>> gens_;
  std::vector<std::unique_ptr<lvrm::tcp::RenoFlow>> flows_;

  std::uint64_t offered_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t offered_w_ = 0;
  std::uint64_t delivered_w_ = 0;
  std::uint64_t cut_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t ingress_calls_ = 0;
  std::uint64_t ingress_rejects_ = 0;
  std::array<std::uint64_t, 16> drops_{};
  std::vector<std::uint64_t> last_id_;  // per pinned flow, for order checks
  std::vector<Nanos> latency_ns_;
  std::vector<CapturedFrame> captured_;
  std::vector<std::uint64_t> acked_;  // per TCP flow: highest ACK delivered
  std::vector<Nanos> rto_rearms_;
  std::uint64_t digest_ = 14695981039346656037ull;  // FNV offset basis
  double lvrm_busy_mark_ = 0.0;
  double vri_busy_mark_ = 0.0;
  double lvrm_util_ = 0.0;
  double vri_util_ = 0.0;
  std::uint64_t tcp_retransmits_mark_ = 0;
  std::uint64_t tcp_timeouts_mark_ = 0;
  std::uint64_t tcp_window_retransmits_ = 0;
  std::uint64_t tcp_window_timeouts_ = 0;
};

// --- standalone replays (traced run only) -------------------------------------

/// ns per push+pop on a standalone sim::EventQueue fed the fired-event
/// timestamps of the traced run, holding `depth` pending entries.
double replay_event_queue_ns(const std::vector<Nanos>& fired,
                             std::size_t depth);
/// ns per push/cancel/push/pop round (an RTO re-arm next to a data event) on
/// a queue of about `depth` entries, cancelled ones included.
double replay_event_cancel_ns(const std::vector<Nanos>& fired,
                              std::size_t depth);
/// ns per Dispatcher::dispatch over the captured frames, one dispatcher per
/// shard as in the running world.
double replay_dispatch_ns(const std::vector<CapturedFrame>& frames,
                          const lvrm::LvrmConfig& cfg, int vris, int shards);
/// ns per VirtualRouter::process over the captured frames.
double replay_vri_process_ns(const std::vector<CapturedFrame>& frames,
                             const lvrm::VrConfig& vr);
/// Host CPU ns per frame of the workload's traffic sources alone, run for
/// the plan's traffic period into a counting sink.
double generators_alone_ns(Workload w, std::uint64_t seed);

template <typename T>
T median_of(std::vector<T> v) {
  if (v.empty()) return T{};
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

}  // namespace perfbench
