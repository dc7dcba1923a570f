// experiments.hpp — shared measurement machinery for the Chapter 4 benches.
//
// Each helper builds a *fresh* deterministic world (simulator + gateway +
// Fig 4.1 testbed + traffic), runs it on the virtual clock, and returns the
// quantities the corresponding figure plots. Bench binaries under bench/ are
// thin tables over these functions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "exp/gateway.hpp"
#include "lvrm/config.hpp"
#include "traffic/testbed.hpp"
#include "traffic/udp_sender.hpp"

namespace lvrm::exp {

// --- UDP worlds (Experiments 1a, 1b, 2a-2e, 3a, 3b) ---------------------------

struct SenderSpec {
  net::Ipv4Addr src_ip = 0;
  net::Ipv4Addr dst_ip = 0;
  double rate_share = 0.0;  // fraction of the trial's total rate (0 = use profile)
  std::vector<traffic::RateStep> profile;  // overrides rate_share when set
  int flows = 16;
};

struct WorldOptions {
  Mechanism mech = Mechanism::kLvrmPfCpp;
  GatewayOptions gw;
  traffic::Testbed::Config testbed;
  int frame_bytes = 84;
  Nanos warmup = msec(60);
  Nanos measure = msec(150);
  /// Empty -> the default two senders of Fig 4.1 splitting the rate evenly.
  std::vector<SenderSpec> senders;
  /// Non-empty (and an LVRM mechanism): at trial end write the telemetry
  /// exports `<prefix>.prom`, `<prefix>.csv` and `<prefix>.trace.json`.
  std::string telemetry_export_prefix;
};

struct UdpTrialResult {
  std::uint64_t sent = 0;      // frames sources emitted in the window
  std::uint64_t received = 0;  // frames delivered to receivers in the window
  FramesPerSec offered_fps = 0.0;
  FramesPerSec delivered_fps = 0.0;
  BitsPerSec delivered_bps = 0.0;
  std::uint64_t gateway_rx_drops = 0;
  std::uint64_t queue_drops = 0;
  bool feasible(double tolerance = 0.02) const {
    return sent == 0 ||
           static_cast<double>(received) >=
               (1.0 - tolerance) * static_cast<double>(sent);
  }
};

/// One run at a fixed total offered rate.
UdpTrialResult run_udp_trial(const WorldOptions& options,
                             FramesPerSec total_rate);

/// The paper's achievable-throughput search: the highest rate at which
/// sending and receiving rates differ by no more than `tolerance` (Sec 4.1
/// Metrics). Returns the best feasible trial's result.
UdpTrialResult achievable_throughput(const WorldOptions& options,
                                     FramesPerSec hi_bound,
                                     double tolerance = 0.02);

/// Upper bound to search below: the sender-host ceiling or the wire rate,
/// whichever binds for this frame size.
FramesPerSec offered_rate_bound(int frame_bytes, int senders = 2);

// --- Round-trip latency (Experiment 1b) -----------------------------------------

struct RttResult {
  double avg_us = 0.0;
  double p99_us = 0.0;
  int replies = 0;
};

RttResult measure_rtt(const WorldOptions& options, int pings = 300);

// --- CPU usage (Fig 4.3) ------------------------------------------------------------

struct CpuUsage {
  double user_pct = 0.0;     // us: application code + user-space polling
  double system_pct = 0.0;   // sy: syscalls + syscall-heavy polling
  double softirq_pct = 0.0;  // si: kernel NIC/stack work
};

CpuUsage measure_cpu_usage(const WorldOptions& options, FramesPerSec rate);

// --- LVRM-only worlds via the memory adapter (Experiments 1c/1d) ---------------------

struct MemoryTrialResult {
  FramesPerSec delivered_fps = 0.0;
  BitsPerSec delivered_bps = 0.0;
  double avg_latency_us = 0.0;
};

MemoryTrialResult run_memory_throughput(VrKind vr, int frame_bytes,
                                        bool click_use_graph = true);
MemoryTrialResult run_memory_latency(VrKind vr, int frame_bytes);

// --- Sharded dispatch-plane scaling (Experiment 5, DESIGN.md §11) ---------------------

struct ShardScalingOptions {
  int shards = 1;        // LvrmConfig::dispatch_shards
  int vris = 6;          // initial VRIs of the single C++ VR
  int flows = 256;       // distinct 5-tuples cycled through the trace
  int frame_bytes = 84;
  Nanos warmup = msec(10);
  Nanos measure = msec(50);
  std::uint64_t seed = 1;
};

struct ShardScalingResult {
  int shards = 0;
  FramesPerSec delivered_fps = 0.0;
  BitsPerSec delivered_bps = 0.0;
  double avg_latency_us = 0.0;
  /// Frames admitted into each shard's RX ring (RSS split balance).
  std::vector<std::uint64_t> per_shard_rx;
  /// Flows observed on more than one dispatcher shard at egress. Must be 0:
  /// the RSS flow-key hash is a pure function of the 5-tuple.
  std::uint64_t affinity_violations = 0;
  /// Per-flow frame-id regressions at egress. Must be 0: a flow's frames
  /// traverse one shard ring, one pinned VRI, and one home-shard TX drain.
  std::uint64_t ordering_violations = 0;
};

/// Replays a RAM trace of `flows` interleaved 5-tuples through a gateway with
/// `shards` dispatcher shards and measures aggregate delivered throughput —
/// the §11 scaling claim is ≥1.5× at 2 shards over the single-dispatcher
/// baseline, with zero affinity/ordering violations.
ShardScalingResult run_shard_scaling_trial(const ShardScalingOptions& opt);

// --- Graceful degradation under overload (Experiment 6; DESIGN.md §13) -------------------

struct OverloadTrialOptions {
  /// Offered load relative to the VR's nominal capacity
  /// (per_vri_capacity_fps × vris): the x axis of the fidelity curve.
  double offered_multiplier = 2.0;
  /// Degradation ladder on/off (the off column is the baseline the curve is
  /// compared against).
  bool ladder = true;
  int vris = 3;
  int flows = 256;
  double attack_fraction = 0.0;
  /// Drain one VRI (decommission_vri) mid-measurement under load.
  bool decommission = false;
  int frame_bytes = 84;
  Nanos warmup = msec(10);
  Nanos measure = msec(60);
  std::uint64_t seed = 1;
};

struct OverloadTrialResult {
  /// Ground truth offered to the gateway (generator frames sent).
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  /// Offered / delivered split by traffic class (mouse, elephant, attack).
  std::uint64_t offered_by_class[3] = {0, 0, 0};
  std::uint64_t delivered_by_class[3] = {0, 0, 0};
  /// Delivered counts divided by each frame's recorded sampling rate
  /// (FrameMeta::admit_rate): the egress-side bias-corrected reconstruction
  /// of per-class offered load. Subject to real sampling variance — the
  /// subset keeps whole flows, so classes dominated by a few heavy flows
  /// reconstruct worse than the mouse tail.
  double corrected_by_class[3] = {0.0, 0.0, 0.0};
  /// Ladder drop counters plus the classic shed/queue drops.
  std::uint64_t sampled_shed = 0;
  std::uint64_t admission_rejected = 0;
  std::uint64_t shed_drops = 0;
  std::uint64_t queue_drops = 0;
  /// Bias-corrected offered estimate vs the gateway-side ground truth
  /// (frames_in + admission_rejected), as a relative error.
  double offered_estimate = 0.0;
  double estimate_error = 0.0;
  int peak_level = 0;  // highest OverloadLevel reached
  double delivered_fps = 0.0;
  double avg_latency_us = 0.0;
  /// Per-flow frame-id regressions at egress; must stay 0 through sampling,
  /// admission control and reset-free drains.
  std::uint64_t ordering_violations = 0;
  /// Reset-free drain stats (decommission trials).
  std::uint64_t drain_migrated = 0;
  std::uint64_t drain_dropped = 0;
  std::uint64_t drain_flows_evicted = 0;
  Nanos drain_handoff_latency = 0;
  /// Frames neither delivered nor reported through the drop hook after
  /// quiesce: offered − delivered − every DropCause. Must be 0.
  std::uint64_t lost = 0;
};

/// Drives a flash-crowd (2× ramp riding on `offered_multiplier`× nominal
/// capacity) plus optional adversarial mix through a gateway and measures
/// delivered fidelity, estimate accuracy, ordering and conservation —
/// the Exp 6 graceful-degradation claim.
OverloadTrialResult run_overload_trial(const OverloadTrialOptions& opt);

// --- Million-flow FlowTable scaling (Experiment 7, DESIGN.md §14) ---------------------

struct FlowScaleOptions {
  /// Concurrent flows resident in the table when the steady phase starts.
  std::size_t concurrent_flows = 1'000'000;
  /// false = classic FlowTable (linear probing, stop-the-world rehash),
  /// true = FlowTableV2 (bucketed cuckoo, incremental resize, GC wheel).
  bool v2 = true;
  /// Steady-phase operations; every one is timed individually so the
  /// percentiles are over single-op latencies, not batch averages.
  std::size_t steady_ops = 2'000'000;
  /// Traffic shape of the steady phase (Sec 4.1-style mixes at table scale):
  /// kZipf       — pure lookups, Zipf-ranked over the resident flows;
  /// kFlashCrowd — 80% hot-set lookups, 10% cold lookups, 10% new-flow
  ///               inserts (the learning churn of a crowd arriving);
  /// kSynFlood   — 50% inserts of never-revisited attack tuples + 50%
  ///               legitimate lookups: state bloat vs the GC wheel.
  enum class Mix { kZipf, kFlashCrowd, kSynFlood };
  Mix mix = Mix::kZipf;
  /// Idle timeout for both tables; the SYN-flood rows shrink it so attack
  /// state actually ages out inside the measurement window.
  Nanos idle_timeout = sec(30);
  /// Virtual-clock advance per steady op (drives expiry and the GC wheel).
  Nanos op_gap = usec(1);
  int vris = 8;
  std::uint64_t seed = 1;
};

struct FlowScaleResult {
  std::size_t flows = 0;          // resident flows after populate
  // Populate phase: every insert timed with the thread-CPU clock, which
  // excludes scheduler preemption — on shared vCPUs the wall-clock max is
  // dominated by hypervisor steal, not table work. A stop-the-world rehash
  // is real CPU and still shows as one fat sample; steal outliers are rare
  // and random, so repeating the trial and taking the min of the maxima
  // (the bench does this across its mix rows) recovers the algorithmic
  // worst case.
  double populate_ns_per_insert = 0.0;
  double populate_p99_ns = 0.0;   // typical migration-carrying insert
  double populate_p999_ns = 0.0;
  std::int64_t max_insert_pause_ns = 0;  // worst single insert (rehash pause)
  std::size_t resizes = 0;        // v1 rehashes / v2 resizes completed
  // Steady phase (every op timed): the sustained-rate story.
  double steady_kfps = 0.0;       // thousand table ops per wall-clock second
  double steady_ns_per_op = 0.0;
  double p50_op_ns = 0.0;
  double p99_op_ns = 0.0;
  double p999_op_ns = 0.0;
  std::int64_t max_op_ns = 0;
  double hit_rate = 0.0;          // hits / lookups in the steady phase
  // End state: what the mix left behind (SYN flood: v1 bloats, v2 reclaims).
  std::size_t final_size = 0;
  std::size_t final_slots = 0;
  std::uint64_t expired = 0;      // entries the table aged out itself
  // §13 drain path: evicting one VRI's pinned flows.
  double evict_vri_us = 0.0;
  std::size_t evicted = 0;
};

/// Host-time microbenchmark of the connection-tracking table at `flows`
/// resident entries — the one hot-path cost the virtual clock abstracts away
/// (the simulator charges a constant per probe; this measures the real
/// thing). Op streams are pregenerated so generator cost never pollutes the
/// timings, and both tables replay the identical stream.
FlowScaleResult run_flow_scale_trial(const FlowScaleOptions& opt);

// --- Elephant-flow spraying (Experiment 8, DESIGN.md §16) -----------------------------

struct ElephantTrialOptions {
  /// Elephant offered rate as a multiple of ONE VRI's nominal capacity
  /// (per_vri_capacity_fps). >1 means a pinned flow cannot be served.
  double elephant_multiplier = 4.0;
  /// State-compute replication on/off — the off column is the flow-affinity
  /// baseline the §16 claim is measured against.
  bool replication = true;
  int vris = 4;
  /// Background mouse flows sharing the VR (never sprayed; they must keep
  /// their single-VRI pins and their ordering).
  int mice_flows = 8;
  /// Aggregate mouse load as a fraction of one VRI's capacity.
  double mice_load = 0.1;
  int shards = 1;
  bool batched = false;
  int frame_bytes = 84;
  Nanos warmup = msec(20);
  Nanos measure = msec(100);
  std::uint64_t seed = 1;
};

struct ElephantTrialResult {
  FramesPerSec delivered_fps = 0.0;  // all flows
  FramesPerSec elephant_fps = 0.0;   // the elephant alone
  /// Per-flow frame-id regressions observed at egress (elephant and mice).
  /// Must be 0: the TX sequencer restores external order for sprayed flows
  /// and pinned flows never leave their FIFO path.
  std::uint64_t ordering_violations = 0;
  std::uint64_t sprayed_frames = 0;
  std::uint64_t spray_activations = 0;
  std::uint64_t deltas_sent = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t seq_window_overflows = 0;
};

/// Offers one elephant flow at `elephant_multiplier`× a single VRI's
/// capacity (plus background mice) to a stateful rate-limiter VR and
/// measures what gets through — the §16 claim is ≥1.5× one VRI's throughput
/// at 4 VRIs with replication on, and 0 external ordering violations.
ElephantTrialResult run_elephant_trial(const ElephantTrialOptions& opt);

// --- MPMC fabric & work stealing (Experiment 9, DESIGN.md §17) ----------------------------

struct FabricTrialOptions {
  int shards = 4;         // LvrmConfig::dispatch_shards
  int vris = 8;           // initial VRIs of the single C++ VR
  bool fabric = true;     // LvrmConfig::mpmc_fabric
  bool stealing = false;  // LvrmConfig::work_stealing (needs fabric)
  bool batched = true;
  /// Workload shape. kPinned replays `flows` pinned 5-tuples — per-flow
  /// ordering must stay exact, steals must refuse every pinned head.
  /// kElephant adds a §16 sprayed elephant over the pinned mice, so
  /// idle-VRI steals CAN fire and the TX sequencer must keep ordering
  /// exact anyway — the §17 × §16 composition claim. kSkewFrame uses frame
  /// granularity with one degraded VRI: maximum steal pressure, no
  /// per-flow ordering promise (ordering_violations not meaningful).
  enum class Workload { kPinned, kElephant, kSkewFrame };
  Workload workload = Workload::kPinned;
  int flows = 256;   // pinned 5-tuples (mice for kElephant)
  int frame_bytes = 84;
  Nanos warmup = msec(10);
  Nanos measure = msec(50);
  std::uint64_t seed = 1;
};

struct FabricTrialResult {
  int shards = 0;
  int vris = 0;
  FramesPerSec delivered_fps = 0.0;
  double avg_latency_us = 0.0;
  /// §17 arena audit: conceptual SPSC-mesh ring count/bytes vs what the
  /// fabric actually reserves for the same topology.
  std::size_t mesh_rings = 0;
  std::size_t fabric_rings = 0;
  std::size_t mesh_ring_bytes = 0;
  std::size_t fabric_ring_bytes = 0;
  /// Steal counters at end of run (0 unless `stealing`).
  std::uint64_t tx_steals = 0;
  std::uint64_t tx_steal_frames = 0;
  std::uint64_t vri_steals = 0;
  std::uint64_t vri_steal_frames = 0;
  /// Per-flow frame-id regressions at egress. Must be 0 for kPinned and
  /// kElephant (the §17 ordering claim); unconstrained for kSkewFrame.
  std::uint64_t ordering_violations = 0;
  /// Frames neither delivered nor reported through the drop hook after the
  /// run fully drains: offered − delivered − every DropCause. Must be 0:
  /// stealing moves frames between servers but never loses one.
  std::uint64_t lost = 0;
};

/// Replays a pinned-flow (or elephant / skewed) RAM trace through a
/// `shards` × `vris` gateway with the §17 fabric knobs as given, runs the
/// sim to full drain, and reports throughput, the ring-count/bytes audit,
/// steal counters, ordering violations, and lost frames.
FabricTrialResult run_fabric_trial(const FabricTrialOptions& opt);

// --- Control-event latency (Experiment 1e) --------------------------------------------

/// Average latency of relaying a control event between two VRIs of one VR.
/// `full_load` adds the Exp 1a achievable-throughput UDP stream.
double measure_control_latency_us(std::size_t event_bytes, bool full_load,
                                  int events = 300,
                                  std::size_t poll_batch =
                                      sim::costs::kPollBatch);

// --- Core allocation traces (Experiments 2c-2e) -----------------------------------------

struct AllocSample {
  double t_sec = 0.0;
  std::vector<int> vris_per_vr;
};

struct AllocTrace {
  std::vector<AllocSample> samples;
  std::vector<AllocationEvent> log;
};

AllocTrace run_allocation_trace(const WorldOptions& options, Nanos duration,
                                Nanos sample_every = msec(250));

// --- Per-VR throughput (Experiment 3b) ----------------------------------------------------

struct PerVrResult {
  std::vector<double> vr_delivered_fps;
  UdpTrialResult total;
};

PerVrResult run_udp_trial_per_vr(const WorldOptions& options,
                                 FramesPerSec total_rate);

// --- FTP/TCP worlds (Experiments 3c, 4) -----------------------------------------------------

struct TcpWorldOptions {
  Mechanism mech = Mechanism::kLvrmPfCpp;
  GatewayOptions gw;
  int flow_pairs = 100;
  Nanos warmup = sec(4);
  Nanos measure = sec(10);
  BitsPerSec app_drain_rate = sim::costs::kFtpAppDrainRate;
  /// Per-segment sender jitter (hosts are not phase-locked).
  Nanos send_jitter = usec(3);
  /// ACK-release jitter at the receiver (FTP client scheduling, Sec 4.5).
  Nanos ack_jitter = usec(300);
  /// Bottleneck (switch) queue depth in frames on the trunk links.
  std::size_t bottleneck_queue = 2000;
  /// >0: also record the aggregate-rate time series at this interval
  /// (Fig 4.22).
  Nanos series_interval = 0;
  std::uint64_t seed = 11;
};

struct TcpResult {
  double aggregate_mbps = 0.0;
  double jain = 0.0;
  double maxmin = 0.0;
  std::vector<double> per_flow_mbps;
  std::vector<std::pair<double, double>> series;  // (t seconds, Mbps)
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
};

TcpResult run_tcp_trial(const TcpWorldOptions& options);

// --- shared reporting ---------------------------------------------------------------------

/// Frame sizes swept by the throughput/latency figures (wire bytes incl.
/// preamble/IFG, 84 B minimum as in Sec 4.1).
std::vector<int> frame_size_sweep();

}  // namespace lvrm::exp
