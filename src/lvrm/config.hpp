// config.hpp — configuration of LVRM and of each hosted VR.
//
// Defaults mirror Sec 4.1's "Default implementation of LVRM": PF_RING socket
// adapter, dynamic core allocation with fixed thresholds, frame-based
// join-the-shortest-queue balancing, 1-second re-allocation period.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "lvrm/types.hpp"
#include "net/ip.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/costs.hpp"
#include "sim/topology.hpp"

namespace lvrm {

/// Health-monitoring layer (heartbeats + fail-slow watchdog). Disabled by
/// default so the stock Sec 3.2 supervision (the 1 s allocation pass) is the
/// baseline; every existing experiment is bit-for-bit unchanged with it off.
struct HealthConfig {
  bool enabled = false;

  /// Heartbeat sampling period of the LVRM poll loop — decoupled from (and
  /// much shorter than) the 1 s re-allocation period.
  Nanos probe_period = msec(100);

  /// A VRI whose progress counter has not advanced for this long while its
  /// data queue is non-empty is declared hung.
  Nanos heartbeat_timeout = msec(250);

  /// Fail-slow watchdog: a VRI is struck when its measured departure rate
  /// falls below this fraction of its siblings' median.
  double fail_slow_fraction = 0.5;

  /// Consecutive strikes before a fail-slow verdict (rides out transients).
  int fail_slow_grace = 3;

  /// Rescue frames stranded in a dead/hung VRI's incoming data queue and
  /// re-dispatch them across the surviving VRIs instead of dropping them.
  bool redispatch_stranded = true;
};

/// Overload-resilience ladder (DESIGN.md §13): a per-VR backpressure
/// controller that escalates normal -> adaptive per-flow sampling shed ->
/// RX-side admission control, plus the reset-free VRI drain path. Disabled
/// by default: with `enabled = false` no controller state is touched, no
/// metric is registered and every output is byte-identical to the seed —
/// the same rollout discipline as `batched_hot_path`.
struct OverloadConfig {
  bool enabled = false;

  /// A dispatched frame whose *chosen* data queue sits at or above this
  /// fraction of capacity counts as "pressured" in the adaptation window.
  /// Well under the classic `shed_watermark` so the ladder reacts before
  /// blind tail-drop would.
  double sample_watermark = 0.5;

  /// Adaptation cadence — the controller re-evaluates the window pressure
  /// at most once per period. Much shorter than the 1 s allocation pass:
  /// sampling is reversible and bias-corrected, so reacting inside a flash
  /// crowd's rise time is safe where core re-allocation is not.
  Nanos adapt_period = msec(1);

  /// Window pressure fraction at or above which the controller escalates
  /// (halves the sampling rate, bumps the ladder level).
  double escalate_pressure = 0.5;

  /// Window pressure fraction at or below which it relaxes (doubles the
  /// rate; the level steps down when the rate recovers to 1).
  double relax_pressure = 0.1;

  /// Floor of the per-flow sampling rate: even a worst-case flood keeps
  /// this fraction of flows fully monitored.
  double min_sample_rate = 1.0 / 64.0;

  /// Consecutive escalations before RX-side admission control (level 2)
  /// engages — sustained pressure, not one bursty window.
  int admission_after = 2;

  /// Drain (migrate live flows to siblings, keep router state warm)
  /// instead of dropping queued frames when the allocator destroys a VRI
  /// or the health layer quarantines a fail-slow one.
  bool drain_on_destroy = true;

  /// Salt decorrelating the sampling subset hash from the RSS shard hash
  /// and the flow-table hash (all three key on the same 5-tuple).
  std::uint64_t subset_salt = 0x9e3779b97f4a7c15ull;
};

/// State-compute replication (DESIGN.md §16): lets a single hot flow of a
/// *stateful* VR scale past one VRI. When a flow's measured rate crosses the
/// elephant threshold, the dispatcher "sprays" its frames across all healthy
/// VRIs; every state change the owning routers make rides the existing
/// control rings to the siblings as StateDelta records, and a TX-side
/// per-flow sequencer releases frames in dispatch order so the external
/// output is never reordered. Disabled by default: no detector state, no
/// metric is registered, every frame field stays 0 and outputs are
/// byte-identical to the seed (same rollout discipline as
/// `batched_hot_path` / `overload_control` / `tracing`).
struct StateReplicationConfig {
  bool enabled = false;

  /// A flow is an elephant when its rate inside one detection window
  /// exceeds this fraction of `per_vri_capacity_fps` — i.e. when it alone
  /// occupies this share of the core it is pinned to.
  double elephant_fraction = 0.5;

  /// Length of the windows the rate detector counts frames over.
  Nanos detect_window = msec(5);

  /// Floor on frames-per-window before a flow can be promoted, so tiny
  /// capacity configurations don't promote mice off a handful of frames.
  std::uint64_t min_frames = 64;

  /// Emit every Nth state delta of a sprayed flow (1 = every change).
  /// Larger periods trade replica staleness for control-ring traffic.
  std::uint32_t delta_period = 1;

  /// Max out-of-order frames the TX sequencer holds per sprayed flow
  /// before force-releasing (a safety valve, counted when it fires).
  std::size_t reorder_window = 1024;
};

struct LvrmConfig {
  AdapterKind adapter = AdapterKind::kPfRing;
  AllocatorKind allocator = AllocatorKind::kDynamicFixedThreshold;
  BalancerKind balancer = BalancerKind::kJoinShortestQueue;
  BalancerGranularity granularity = BalancerGranularity::kFrame;
  EstimatorKind estimator = EstimatorKind::kQueueLength;
  AffinityPolicy affinity = AffinityPolicy::kSibling;

  /// Core the LVRM process itself is pinned to. With `dispatch_shards` > 1
  /// this is shard 0's core; later shards are pinned by `shard_core(s)`.
  sim::CoreId lvrm_core = 0;

  /// Number of LVRM dispatcher shards (DESIGN.md §11). Each shard owns its
  /// own socket-adapter RX ring, flow tables, load balancers, and poll loop
  /// pinned to its own core; an RSS-style hash of the frame's flow key
  /// steers every frame of a flow to the same shard, so the paper's flow
  /// affinity (and per-flow ordering) holds end to end. Default 1 is the
  /// paper's single-dispatcher gateway, bit-identical to the unsharded
  /// code path.
  int dispatch_shards = 1;

  /// Minimum interval between core (de)allocation passes (Sec 3.2: "we set
  /// the period to be 1 second, while this parameter is tunable").
  Nanos realloc_period = sec(1);

  /// Per-core capacity threshold for the fixed-threshold allocator. The
  /// experiments use 60 Kfps, the service rate under the 1/60 ms dummy load.
  double per_vri_capacity_fps = 60'000.0;

  /// Destroy-side hysteresis keeping arrival == threshold from flapping.
  double destroy_hysteresis = 0.97;

  /// Weight of the Fig 3.4 EWMA recurrences.
  double ewma_weight = 7.0;

  /// Upper bound on VRIs per VR (the testbed has 7 cores besides LVRM's).
  int max_vris_per_vr = 7;

  std::size_t data_queue_capacity = sim::costs::kDataQueueCapacity;
  std::size_t control_queue_capacity = sim::costs::kControlQueueCapacity;

  /// Frames drained per poll-loop pass from the RX ring and from each VRI's
  /// outgoing queue. Larger batches amortize the loop but delay control
  /// events and (for TX) can reorder frames balanced across VRIs — see the
  /// dispatch ablation bench.
  std::size_t poll_batch = sim::costs::kPollBatch;

  /// Batched hot path (DESIGN.md §9): LVRM's RX and TX inputs drain their
  /// poll_batch burst as ONE coalesced core event — batch dispatch collapses
  /// repeated flow-table probes within the burst, and all frames of a burst
  /// complete together at its summed-cost completion time. Off by default:
  /// the classic per-frame serve order is the reference behavior every
  /// experiment is calibrated against (bit-identical results).
  bool batched_hot_path = false;

  /// MPMC virtual-link IPC fabric (DESIGN.md §17): collapses the
  /// O(shards × VRIs) SPSC mesh into one multi-producer ingress link per
  /// VRI and one multi-consumer TX drain per home shard
  /// (`queue/mpmc_link.hpp`). Off by default: the SPSC mesh is the
  /// calibrated reference and results are byte-identical off-vs-on with
  /// `work_stealing` off (same rollout discipline as `batched_hot_path`).
  bool mpmc_fabric = false;

  /// Work stealing over the MPMC fabric (DESIGN.md §17, requires
  /// `mpmc_fabric`): an idle shard steals TX bursts from another shard's
  /// home drain, and an idle VRI steals ingress frames from an overloaded
  /// same-VR sibling — only unpinned (frame-granularity or sprayed)
  /// frames, so flow pinning and the §16 sequencer keep external order
  /// exact. Off by default; no hook is installed and outputs are
  /// byte-identical with it off.
  bool work_stealing = false;

  /// Minimum victim backlog (queued frames) before an idle VRI steals from
  /// a sibling — stealing the last few frames of a near-empty queue costs
  /// more coherence traffic than it saves.
  std::size_t steal_min_backlog = 8;

  /// Re-poll period of an idle thief while same-VR siblings still hold
  /// backlog. The timer dies as soon as the VR goes idle, so a quiescing
  /// simulation still terminates.
  Nanos steal_poll_period = usec(5);

  /// Million-flow connection tracking (DESIGN.md §14): every per-shard
  /// Dispatcher swaps the linear-probing FlowTable for FlowTableV2 —
  /// cache-line-bucketed tags, incremental (pause-free) resize, idle-expiry
  /// GC wheel, O(flows-on-VRI) eviction. Off by default: the classic table
  /// is the calibrated reference and results are byte-identical off-vs-on
  /// (same rollout discipline as `batched_hot_path`).
  bool flow_table_v2 = false;

  /// Initial per-Dispatcher flow-table capacity hint, in entries. The
  /// default matches the classic table's historical footprint; a gateway
  /// expected to front millions of concurrent flows should start near its
  /// steady state so the ramp-up skips the early resize ladder.
  std::size_t flow_table_capacity = 4096;

  /// Seed for the random balancer, allocation-jitter and kernel-migration
  /// draws; everything is deterministic given the seed.
  std::uint64_t seed = 1;

  /// Health monitoring & fault tolerance (heartbeats, fail-slow watchdog,
  /// quarantine-and-respawn, stranded-frame re-dispatch).
  HealthConfig health;

  /// Overload shedding: drop policy applied per VR once it can grow no
  /// further (max VRIs or no free cores) and its chosen data queue passes
  /// `shed_watermark` of capacity. kNone keeps the legacy tail-drop.
  ShedPolicy shed_policy = ShedPolicy::kNone;
  double shed_watermark = 0.9;

  /// Graceful-degradation ladder + reset-free drain (DESIGN.md §13).
  OverloadConfig overload_control;

  /// Telemetry layer (DESIGN.md §10): metrics registry, latency sampling,
  /// decision audit trail, exporters. Enabled by default — the hot-path
  /// cost is bounded by the bench_hotpath CI gate (<3%); set
  /// `telemetry.enabled = false` to remove even that.
  obs::TelemetryConfig telemetry;

  /// Frame-level path tracing, flight recorder and load-adaptive sampling
  /// (DESIGN.md §15). Off by default: no Tracer is created, the hot path
  /// pays one pointer null check, and every output is byte-identical to
  /// the seed (same rollout discipline as `batched_hot_path` /
  /// `overload_control`).
  obs::TracingConfig tracing;

  /// State-compute replication for stateful VRs (DESIGN.md §16).
  StateReplicationConfig state_replication;
};

struct VrConfig {
  std::string name = "vr";

  /// Source subnets owned by this VR: a frame whose source address falls in
  /// one of them is dispatched to this VR (Sec 2.1 workflow step 2).
  std::vector<net::Prefix> subnets;

  VrKind kind = VrKind::kCpp;

  /// Route map (parse_route_map format); empty selects default_route_map().
  std::string route_map;

  /// Artificial per-frame processing load, e.g. the experiments' 1/60 ms.
  Nanos dummy_load = 0;

  /// Scales all per-frame processing cost; Exp 2e uses 2.0 for the slow VR
  /// (service-rate ratio 1:2).
  double service_multiplier = 1.0;

  /// VRIs activated at start(). The fixed allocator keeps exactly this
  /// many; dynamic allocators treat it as the starting point (normally 1).
  int initial_vris = 1;

  /// When hosting a Click VR, whether frames traverse the real element
  /// graph (tests/examples) or the equivalent LPM fallback (large sweeps).
  bool click_use_graph = true;

  /// Hand-written Click configuration for this VR (Click VRs only). Empty
  /// selects the generated minimal forwarder. Must declare a FromHost named
  /// "in" and at least one ToHost; a LookupIPRoute named "rt" participates
  /// in dynamic route updates.
  std::string click_script;

  // --- stateful-VR parameters (kNat / kFirewall / kRateLimit) -----------
  // The stateful kinds are decorators over a stateless forwarding engine;
  // `inner_kind` picks it (kCpp or kClick — the Click options above apply
  // to the inner engine too). See docs/VR_AUTHORING.md.

  /// Forwarding engine a stateful VR wraps. Ignored by kCpp/kClick.
  VrKind inner_kind = VrKind::kCpp;

  /// kNat: external (translated) source address; 0 selects 192.0.2.1.
  net::Ipv4Addr nat_external_ip = 0;

  /// kNat: first port and size of the external port pool.
  std::uint16_t nat_port_base = 20000;
  std::uint16_t nat_port_count = 4096;

  /// kRateLimit: per-flow token refill rate (frames/s) and bucket depth.
  double rate_limit_fps = 30'000.0;
  double rate_limit_burst = 64.0;
};

}  // namespace lvrm
