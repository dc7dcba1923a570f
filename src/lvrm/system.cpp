#include "lvrm/system.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <optional>

#include "common/log.hpp"
#include "net/flow.hpp"
#include "net/state_record.hpp"
#include "sim/costs.hpp"
#include "vr/factory.hpp"
#include "vr/stateful.hpp"

namespace lvrm {

namespace costs = sim::costs;
using sim::CostCategory;

/// output_if value a stateful VR sets when its admission step refuses a
/// frame (vs. -1, a routing miss). Aliased here so the drop site does not
/// spell the nested name next to locals called `vr`.
constexpr std::int32_t kPolicyDropIf = vr::StatefulVrBase::kPolicyDrop;

// --- internal structures --------------------------------------------------------

/// VRI adapter + LVRM adapter + the VRI process itself: queues, estimator,
/// service-rate measurement, and the poll loop pinned to the VRI's core.
struct LvrmSystem::VriSlot {
  int vr_id = -1;
  int index = -1;
  bool active = false;
  sim::CoreId core_id = sim::kNoCore;
  Nanos activated_at = 0;
  Nanos cold_until = 0;  // post-migration cold-cache window (default policy)

  std::unique_ptr<FrameQueue> data_in;
  std::unique_ptr<FrameQueue> data_out;
  std::unique_ptr<FrameQueue> ctrl_in;
  std::unique_ptr<FrameQueue> ctrl_out;
  std::unique_ptr<FrameServer> server;
  std::unique_ptr<VirtualRouter> router;
  std::unique_ptr<LoadEstimator> estimator;

  /// Sec 3.6: the LVRM adapter estimates the VRI's service rate from the
  /// time between consecutive fromLVRM() calls; here: EWMA of per-frame
  /// service cost, inverted into frames/s on demand.
  AlphaEwma service_time{0.2};

  std::uint64_t processed = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t no_route = 0;
  bool crashed = false;
  /// Reset-free drain quiesce in flight (DESIGN.md §13): the server is
  /// stopped but the slot keeps accepting pinned-flow frames until the
  /// in-service frame has egressed — then the backlog migrates atomically.
  bool draining = false;

  /// Dispatcher shard owning this slot's LVRM-side queue ends (control
  /// relay + TX drain) and anchoring its core placement (DESIGN.md §11).
  int home_shard = 0;
  /// NUMA distance of the current core pick relative to the home shard.
  NumaTier numa_tier = NumaTier::kNone;

  // Fault-injection / health state (robustness layer).
  bool hung = false;            // process alive but frozen (never reaped)
  double degrade = 1.0;         // injected service-cost multiplier
  double ctrl_loss_prob = 0.0;  // injected control-relay drop probability
  bool suspect = false;         // inside the fail-slow grace window
  bool needs_rebuild = false;   // next activation forks a fresh process

  queue::SegmentId shm_ids[4] = {queue::kInvalidSegment, queue::kInvalidSegment,
                                 queue::kInvalidSegment, queue::kInvalidSegment};
  sim::EventId migration_event = sim::kInvalidEvent;

  // §17 work stealing. Input indices let thieves repair the right hint on
  // the right server after an external pop; `steal_inflight` counts stolen
  // TX frames not yet egressed — the home server's drain gate stays closed
  // while it is non-zero, so newer same-slot frames cannot overtake the
  // stolen burst. `steal_timer_armed` dedups the idle re-poll timer.
  std::size_t data_in_input = 0;   // data_in's index on this slot's server
  std::size_t data_out_input = 0;  // data_out's index on the home server
  std::size_t steal_inflight = 0;
  bool steal_timer_armed = false;

  /// Frames the slot's stateful VR refused (§16 policy drops; 0 for the
  /// stateless thesis VRs, which never refuse).
  std::uint64_t policy_drops = 0;
};

/// §16 TX sequencer state for one sprayed flow: frames may complete on any
/// VRI, so TX release is keyed by the spray sequence number stamped at
/// dispatch. `held` parks out-of-order completions (nullopt = a tombstone
/// for a frame that dropped in flight, so the gap it leaves releases).
struct LvrmSystem::SeqOut {
  std::uint32_t next = 0;  // next sequence number eligible to egress
  // Held positions ahead of the cursor: a frame waiting for its turn, or a
  // nullopt tombstone for a position whose frame was dropped. Tombstones
  // hold no frame, so only `live` counts against the reorder window — under
  // overload a deep queue legitimately accumulates thousands of tombstoned
  // positions (dropped at enqueue, resolved only once the cursor crawls
  // past) without a single frame being held.
  std::map<std::uint32_t, std::optional<net::FrameMeta>> held;
  std::size_t live = 0;  // held entries that carry a frame
  Nanos last_activity = 0;
};

/// VR monitor state: configuration, the VRI monitor's dispatcher, and the
/// EWMA arrival-rate measurement driving core allocation.
struct LvrmSystem::VrState {
  int id = -1;
  VrConfig cfg;
  std::vector<std::unique_ptr<VriSlot>> slots;
  std::vector<int> active_order;  // activation order; destroy pops the back
  /// One dispatcher per shard (index == shard id): flow tables are
  /// partitioned by the ingress shard hash, so shards never share balancer
  /// state. dispatchers[0] is the paper's single dispatcher.
  std::vector<std::unique_ptr<Dispatcher>> dispatchers;

  /// Summed per-shard dispatcher counters (gauges and audit summaries).
  DispatchStats dispatch_stats() const {
    DispatchStats total;
    for (const auto& d : dispatchers) total += d->stats();
    return total;
  }
  PaperEwma arrival_gap{7.0};
  Nanos last_arrival = -1;
  Nanos pipeline_latency = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t data_drops = 0;
  std::uint64_t shed_drops = 0;

  // Telemetry bookkeeping (audit trail; see DESIGN.md §10). A shedding
  // episode opens on the first shed frame and closes at the first
  // allocation pass that saw no further shedding.
  bool shed_open = false;
  Nanos shed_start = 0;
  std::uint64_t shed_at_open = 0;
  std::uint64_t shed_last_seen = 0;
  double shed_rate = 0.0;
  double shed_service = 0.0;
  // Balancer-summary deltas between allocation passes.
  std::uint64_t summary_decisions = 0;
  std::uint64_t summary_hits = 0;

  // Degradation ladder (DESIGN.md §13; all zero/normal unless
  // `overload_control.enabled`). The window counters drive the pressure
  // measurement that escalates or relaxes the sampling rate.
  OverloadLevel level = OverloadLevel::kNormal;
  double sample_rate = 1.0;   // fraction of flows admitted past the subset
  int escalations = 0;        // consecutive escalating windows
  Nanos win_start = -1;       // current adaptation window's start
  std::uint64_t win_frames = 0;     // frames seen this window
  std::uint64_t win_pressured = 0;  // of those, arrivals at a hot queue
  std::uint64_t sampled_shed = 0;       // level-1 drops (out of subset)
  std::uint64_t admission_rejected = 0; // level-2 drops (RX-side reject)
  /// Bias-corrected offered-load estimate: +1/rate per subset-passing frame.
  double offered_estimate = 0.0;

  /// Every dynamic route update applied since start, in order; replayed into
  /// respawned VRIs so a fresh process starts consistent with its siblings.
  std::vector<route::RouteUpdate> route_log;

  // §16 state replication (touched only when state_replication.enabled).
  struct TupleHash {
    std::size_t operator()(const net::FiveTuple& t) const {
      return static_cast<std::size_t>(net::hash_tuple(t));
    }
  };
  /// One sprayed (or spray-pending) flow. Pending frames are stamped with
  /// spray metadata but stay pinned to the owner — every unstamped frame of
  /// the flow is already FIFO-ahead of them in the owner's queue, so the
  /// transition cannot reorder. Active frames pick per-frame by load.
  struct SprayState {
    enum class Phase : std::uint8_t { kPending, kActive };
    Phase phase = Phase::kPending;
    std::uint32_t id = 0;         // spray-flow id; keys the TX sequencer
    int owner = -1;               // VRI that owned the pin at promotion
    int shard = 0;                // dispatch shard steering the flow
    std::uint32_t next_seq = 0;   // next spray sequence number to stamp
    std::uint64_t frames = 0;     // frames sprayed over the lifetime
    std::uint64_t delta_seq = 0;  // delta_period gating counter
    Nanos last_frame = 0;         // idle-expiry clock
    double rate_fps = 0.0;        // detected rate at promotion
  };
  std::unordered_map<net::FiveTuple, SprayState, TupleHash> sprays;
  /// TX sequencers, keyed by spray-flow id — NOT the 5-tuple: a NAT VR
  /// rewrites the tuple in flight, so the dispatch-side tuple no longer
  /// matches the frame at TX. The stamped id survives translation.
  std::unordered_map<std::uint32_t, SeqOut> seq_out;
  /// Heavy-hitter detection: fixed hash-indexed per-window frame counts.
  /// Collisions can only over-count (promote early), never miss a true
  /// elephant, so a fixed array is safe at any flow count.
  static constexpr std::size_t kHhSlots = 512;
  std::array<std::uint64_t, kHhSlots> hh_counts{};
  std::array<std::uint64_t, kHhSlots> hh_window{};

  /// Healthy-pool generation mirrored into every shard dispatcher (seeded
  /// to 1 in add_vr — 0 means cache-off standalone semantics).
  std::uint64_t pool_generation = 1;
};

/// Pre-registered hot-path metric handles plus snapshot bookkeeping. The
/// data-path cost of telemetry is exactly: one null check on `obs_`, one
/// relaxed counter add per RX/TX frame, and — for the sampled 1-in-N subset
/// only — three histogram adds at TX. Everything else (gauges, queue depths,
/// dispatcher/poll-server counters) is read from existing accounting at
/// snapshot time.
struct LvrmSystem::ObsHooks {
  obs::Counter rx_frames;
  obs::Counter tx_frames;
  obs::LogHistogram queue_wait_ns;   // RX enqueue -> VRI service start
  obs::LogHistogram vri_service_ns;  // VRI service start -> done
  obs::LogHistogram e2e_ns;          // gateway in -> gateway out
  // Per-shard RX/TX counters, labeled shard="<id>". Populated only when
  // dispatch_shards > 1 (empty vectors keep the single-shard hot path and
  // export byte-identical to the unsharded build).
  std::vector<obs::Counter> shard_rx;
  std::vector<obs::Counter> shard_tx;
  // Degradation-ladder drop counters (registered only when
  // `overload_control.enabled`, keeping ladder-off exports byte-identical).
  obs::Counter sampled_shed;
  obs::Counter admission_rejected;
  // Flow-table probe length in buckets touched (registered only when
  // `flow_table_v2` is on — the classic-table export stays byte-identical).
  obs::LogHistogram flow_probe_len;
  // §16 replication counters (registered only when
  // `state_replication.enabled` — defaults-off exports stay byte-identical).
  obs::Counter sprayed_frames;
  obs::Counter spray_activations;
  obs::Counter deltas_sent;
  obs::Counter deltas_applied;
  obs::Counter seq_holds;
  obs::Counter seq_gap_skips;
  obs::Counter seq_window_overflow;
  // §17 work-stealing counters (registered only when `work_stealing` is on
  // over the fabric — defaults-off exports stay byte-identical).
  obs::Counter tx_steals;
  obs::Counter tx_steal_frames;
  obs::Counter vri_steals;
  obs::Counter vri_steal_frames;
  Nanos last_snapshot = 0;
};

// --- construction -----------------------------------------------------------------

LvrmSystem::LvrmSystem(sim::Simulator& sim, const sim::CpuTopology& topo,
                       LvrmConfig config)
    : sim_(sim), topo_(topo), config_(config), rng_(config.seed) {
  // §17: stealing is defined over the fabric's MPMC links; without the
  // fabric the gate is inert (documented in README's config table).
  fabric_ = config_.mpmc_fabric;
  stealing_ = fabric_ && config_.work_stealing;
  for (sim::CoreId c = 0; c < topo_.total_cores(); ++c)
    cores_.push_back(
        std::make_unique<sim::Core>(sim_, c, costs::kContextSwitch));
  core_used_.assign(static_cast<std::size_t>(topo_.total_cores()), false);
  core_used_[static_cast<std::size_t>(config_.lvrm_core)] = true;

  // The dispatch plane (DESIGN.md §11): shard 0 is the paper's single LVRM
  // process; further shards replicate the adapter + RX ring + poll loop on
  // their own cores, spread round-robin across sockets.
  const int n_shards = std::max(1, config_.dispatch_shards);
  auto adapters = make_adapters(config_.adapter, n_shards);
  shards_.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) {
    DispatchShard shard;
    shard.id = s;
    shard.core_id = s == 0 ? config_.lvrm_core : pick_shard_core(s);
    shard.adapter = std::move(adapters[static_cast<std::size_t>(s)]);
    const std::string suffix = s == 0 ? "" : "/s" + std::to_string(s);
    shard.rx_ring = std::make_unique<FrameQueue>(
        shard.adapter->ring_capacity(), "rx-ring" + suffix);
    shard.server = std::make_unique<FrameServer>(
        sim_, core(shard.core_id), /*owner=*/s, "lvrm" + suffix,
        costs::kPollDiscovery);
    shards_.push_back(std::move(shard));
  }

  allocator_ = make_allocator(config_.allocator, config_.per_vri_capacity_fps,
                              config_.destroy_hysteresis);
  if (config_.health.enabled)
    health_ = std::make_unique<HealthMonitor>(config_.health);

  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<obs::Telemetry>(config_.telemetry);
    obs_ = std::make_unique<ObsHooks>();
    auto& m = telemetry_->metrics();
    obs_->rx_frames = m.counter("lvrm_rx_frames_total");
    obs_->tx_frames = m.counter("lvrm_tx_frames_total");
    obs_->queue_wait_ns = m.histogram("lvrm_queue_wait_ns");
    obs_->vri_service_ns = m.histogram("lvrm_vri_service_ns");
    obs_->e2e_ns = m.histogram("lvrm_e2e_latency_ns");
    if (n_shards > 1) {
      // Per-shard RX/TX counters exist only on a sharded plane, so the
      // single-shard export stays byte-identical to the unsharded build.
      for (int s = 0; s < n_shards; ++s) {
        const std::string l = "shard=\"" + std::to_string(s) + "\"";
        obs_->shard_rx.push_back(m.counter("lvrm_rx_frames_total", l));
        obs_->shard_tx.push_back(m.counter("lvrm_tx_frames_total", l));
      }
    }
    if (config_.overload_control.enabled) {
      obs_->sampled_shed = m.counter("lvrm_sampled_shed_total");
      obs_->admission_rejected = m.counter("lvrm_admission_rejected_total");
    }
    if (config_.flow_table_v2) {
      obs_->flow_probe_len = m.histogram("lvrm_flowtable_probe_len");
    }
    if (config_.state_replication.enabled) {
      obs_->sprayed_frames = m.counter("lvrm_sprayed_frames_total");
      obs_->spray_activations = m.counter("lvrm_spray_activations_total");
      obs_->deltas_sent = m.counter("lvrm_state_deltas_sent_total");
      obs_->deltas_applied = m.counter("lvrm_state_deltas_applied_total");
      obs_->seq_holds = m.counter("lvrm_seq_holds_total");
      obs_->seq_gap_skips = m.counter("lvrm_seq_gap_skips_total");
      obs_->seq_window_overflow = m.counter("lvrm_seq_window_overflow_total");
    }
    if (stealing_) {
      // §17 steal counters exist only with work stealing on, so a
      // stealing-off export stays byte-identical to earlier builds.
      obs_->tx_steals = m.counter("lvrm_tx_steals_total");
      obs_->tx_steal_frames = m.counter("lvrm_tx_steal_frames_total");
      obs_->vri_steals = m.counter("lvrm_vri_steals_total");
      obs_->vri_steal_frames = m.counter("lvrm_vri_steal_frames_total");
    }
  }
  replication_ = config_.state_replication.enabled;

  // §15 tracing: per-shard flight recorders + adaptive span sampling. The
  // trace gauges are published only when this exists (publish_gauges), so
  // tracing-off exports stay byte-identical.
  if (config_.tracing.enabled)
    tracer_ = std::make_unique<obs::Tracer>(config_.tracing, n_shards);

  // The RX ring and each VRI's outgoing queue are drained in bursts of
  // poll_batch (PF_RING-style batched polls); control queues are serviced
  // per item at higher priority. With the batched hot path the burst is
  // coalesced into one core event and dispatched through
  // Dispatcher::dispatch_batch (DESIGN.md §9). `shards_` is never resized
  // after construction, so the captured shard pointers stay valid.
  for (DispatchShard& shard : shards_) {
    DispatchShard* sh = &shard;
    shard.server->add_input(
        *shard.rx_ring, /*priority=*/1,
        [this, sh](net::FrameMeta& f) { return rx_cost(f, *sh); },
        [this](net::FrameMeta&& f) { rx_sink(std::move(f)); },
        shard.adapter->recv_category(), config_.poll_batch,
        /*coalesce=*/config_.batched_hot_path,
        config_.batched_hot_path
            ? FrameServer::BatchCostFn([this, sh](std::span<net::FrameMeta> fs) {
                return rx_cost_batch(fs, *sh);
              })
            : FrameServer::BatchCostFn{});
  }

  // §17 MPMC fabric: TX collapses from one drain ring per (shard, VRI) pair
  // to ONE per-home-shard MPMC link all of that shard's slots feed. In the
  // simulation the per-slot BoundedQueues persist as the link's per-producer
  // claimed segments (each producer's burst occupies a contiguous claimed
  // sub-region, so per-producer FIFO sub-queues model the link exactly);
  // only the arena topology and the stealing capability change, which keeps
  // fabric-on byte-identical to fabric-off while work_stealing is off.
  if (fabric_) {
    for (DispatchShard& shard : shards_) {
      shard.tx_link_shm = arena_.create(config_.data_queue_capacity *
                                        sizeof(net::FrameMeta));
      if (!stealing_) continue;
      DispatchShard* sh = &shard;
      const std::string suffix =
          shard.id == 0 ? "" : "/s" + std::to_string(shard.id);
      // Staging queue for bursts stolen off other shards' TX links: frames
      // enter by move from the victim's drain and leave through the same
      // finish_tx path, so conservation holds (tested in test_system_fabric).
      shard.tx_steal_q = std::make_unique<FrameQueue>(
          config_.data_queue_capacity, "tx-steal" + suffix);
      shard.tx_steal_input = shard.server->add_input(
          *shard.tx_steal_q, /*priority=*/1,
          [this, sh](net::FrameMeta& f) {
            Nanos cost = costs::kDequeueCost + sh->adapter->send_cost(f);
            Nanos user_part = costs::kDequeueCost;
            // The producer is the victim VRI's core, not a dispatcher's.
            const VriSlot* victim = steal_victim_slot(f);
            if (victim && cross_socket(victim->core_id, sh->core_id)) {
              cost += costs::kCrossSocketQueueOp;
              user_part += costs::kCrossSocketQueueOp;
            }
            if (sh->adapter->send_category() != CostCategory::kUser)
              core(sh->core_id)
                  .reclassify(sh->adapter->send_category(),
                              CostCategory::kUser, user_part);
            return cost;
          },
          [this, sh](net::FrameMeta&& f) {
            f.gw_out_at = sim_.now();
            VriSlot* victim = steal_victim_slot(f);
            VrState* v = victim ? vrs_[static_cast<std::size_t>(victim->vr_id)]
                                      .get()
                                : nullptr;
            if (victim && victim->steal_inflight > 0 &&
                --victim->steal_inflight == 0) {
              // Last stolen frame egressed: reopen the victim's own drain
              // (the gate held it closed so nothing could overtake).
              shards_[static_cast<std::size_t>(victim->home_shard)]
                  .server->kick(victim->data_out_input);
            }
            if (!v) return;  // victim VR gone (cannot happen today)
            if (replication_ && f.sprayed) {
              sequence_tx(*v, std::move(f));
              return;
            }
            finish_tx(*v, std::move(f));
          },
          shard.adapter->send_category(), config_.poll_batch,
          /*coalesce=*/config_.batched_hot_path);
      shard.server->set_idle_hook([this, sh] { return try_tx_steal(*sh); });
    }
  }
}

LvrmSystem::~LvrmSystem() {
  for (auto& vr : vrs_)
    for (auto& slot : vr->slots)
      if (slot->migration_event != sim::kInvalidEvent)
        sim_.cancel(slot->migration_event);
}

int LvrmSystem::add_vr(VrConfig vr_config) {
  assert(!started_ && "add_vr must be called before start()");
  auto vr = std::make_unique<VrState>();
  vr->id = static_cast<int>(vrs_.size());
  vr->arrival_gap = PaperEwma(config_.ewma_weight);
  vr->cfg = std::move(vr_config);
  if (vr->cfg.route_map.empty()) vr->cfg.route_map = default_route_map();
  if (vr->cfg.subnets.empty())
    vr->cfg.subnets.push_back(net::Prefix{net::ipv4(10, 1, 0, 0), 16});

  // One dispatcher per shard. Shard 0 keeps the historical seed so the
  // single-shard balancer stream is unchanged; later shards derive their
  // own independent streams.
  for (int s = 0; s < shard_count(); ++s) {
    vr->dispatchers.push_back(std::make_unique<Dispatcher>(
        make_balancer(config_.balancer,
                      config_.seed + 17 * static_cast<std::uint64_t>(vr->id) +
                          7919 * static_cast<std::uint64_t>(s)),
        config_.granularity, sec(30), config_.flow_table_v2,
        config_.flow_table_capacity));
    // Healthy-pool generation cache: the system owns the candidate set, so
    // it seeds a non-zero generation and bumps it on every health change.
    vr->dispatchers.back()->set_pool_generation(vr->pool_generation);
    if (config_.flow_table_v2 && telemetry_) {
      Dispatcher* d = vr->dispatchers.back().get();
      d->set_probe_histogram(obs_->flow_probe_len);
      // flowtable_resize audit events: one per classic rehash, one per v2
      // migration start/finish — never per migration step, so a 16M-entry
      // resize cannot flood the bounded trail.
      const int vr_id = vr->id;
      d->set_flow_resize_hook([this, vr_id, s](const net::FlowResizeEvent& ev) {
        obs::AuditEvent e;
        e.time = e.until = sim_.now();
        e.kind = obs::AuditKind::kFlowTableResize;
        e.vr = static_cast<std::int16_t>(vr_id);
        e.shard = static_cast<std::int16_t>(s);
        e.cause = static_cast<std::uint8_t>(ev.cause);
        e.a = ev.buckets_before;
        e.b = ev.buckets_after;
        e.c = ev.migrated;
        telemetry_->audit().record(e);
      });
    }
  }

  const int max_vris = std::max(config_.max_vris_per_vr, vr->cfg.initial_vris);
  for (int i = 0; i < max_vris; ++i) {
    auto slot = std::make_unique<VriSlot>();
    VriSlot* s = slot.get();
    VrState* v = vr.get();
    s->vr_id = vr->id;
    s->index = i;
    // Static home shard: owns this slot's LVRM-side queue ends. Spreading
    // by (vr, index) keeps each shard's TX/control load even; with one
    // shard this is always 0.
    s->home_shard = (vr->id + i) % shard_count();
    const std::string base =
        vr->cfg.name + "/vri" + std::to_string(i);
    s->data_in = std::make_unique<FrameQueue>(config_.data_queue_capacity,
                                              base + "/data-in");
    s->data_out = std::make_unique<FrameQueue>(config_.data_queue_capacity,
                                               base + "/data-out");
    s->ctrl_in = std::make_unique<FrameQueue>(config_.control_queue_capacity,
                                              base + "/ctrl-in");
    s->ctrl_out = std::make_unique<FrameQueue>(config_.control_queue_capacity,
                                               base + "/ctrl-out");
    // One shared-memory segment per queue, as in Sec 3.8: the identifiers
    // are what a forked VRI would receive via its main() arguments.
    if (fabric_) {
      // §17 fabric layout: one MPMC ingress link every shard feeds
      // (shm_ids[0]), two control rings sized to the control capacity
      // instead of the data capacity, and NO per-slot TX segment: egress
      // rides the home shard's shared tx_link_shm.
      s->shm_ids[0] = arena_.create(config_.data_queue_capacity *
                                    sizeof(net::FrameMeta));
      s->shm_ids[1] = arena_.create(config_.control_queue_capacity *
                                    sizeof(net::FrameMeta));
      s->shm_ids[2] = arena_.create(config_.control_queue_capacity *
                                    sizeof(net::FrameMeta));
      s->shm_ids[3] = queue::kInvalidSegment;
    } else {
      for (int q = 0; q < 4; ++q)
        s->shm_ids[q] = arena_.create(config_.data_queue_capacity *
                                      sizeof(net::FrameMeta));
    }

    // The factory honors kind + click_script/click_use_graph and wraps the
    // stateful kinds (NAT / firewall / rate limit) around their configured
    // inner engine (§16).
    s->router = make_configured_vr(vr->cfg, vr->cfg.route_map);
    if (i == 0) vr->pipeline_latency = s->router->pipeline_latency();
    s->estimator = make_estimator(config_.estimator, config_.ewma_weight);

    // The VRI's poll loop; parked on the LVRM core until activated (the
    // placement is decided at activation time by the affinity policy).
    s->server = std::make_unique<FrameServer>(
        sim_, lvrm_core(), /*owner=*/100 + vr->id * 16 + i, base,
        costs::kPollDiscovery);

    // Control queue first: higher priority than data (Sec 2.1).
    s->server->add_input(
        *s->ctrl_in, /*priority=*/0,
        [](net::FrameMeta& f) {
          // §16 state deltas ride the control rings but arrive per sprayed
          // frame, not per control event — charging them the full control
          // cost would saturate the sibling cores on delta traffic alone.
          if (f.kind == net::FrameKind::kStateDelta)
            return costs::kStateDeltaApply;
          return costs::kControlEventFixed +
                 static_cast<Nanos>(costs::kControlEventPerByte *
                                    f.wire_bytes);
        },
        [this](net::FrameMeta&& f) {
          const auto it = control_cbs_.find(f.id);
          if (it != control_cbs_.end()) {
            auto cb = std::move(it->second);
            control_cbs_.erase(it);
            if (cb) cb(sim_.now() - f.created_at);
          }
        },
        CostCategory::kUser);

    s->data_in_input = s->server->add_input(
        *s->data_in, /*priority=*/1,
        [this, s, v](net::FrameMeta& f) {
          if (f.obs_sampled) f.obs_svc_at = sim_.now();
          if (tracer_)
            tracer_->record(f.dispatch_shard, obs::TraceHop::kVriStart, f.id,
                            s->vr_id, s->index, sim_.now(), 0,
                            f.obs_sampled != 0);
          Nanos cost = costs::kDequeueCost;
          // The queue's producer is the shard that dispatched the frame
          // (carried in the frame); crossing its socket costs a cache-line
          // transfer per op, exactly as with the single dispatcher.
          const sim::CoreId producer =
              f.dispatch_shard >= 0
                  ? shards_[static_cast<std::size_t>(f.dispatch_shard)].core_id
                  : shards_[static_cast<std::size_t>(s->home_shard)].core_id;
          if (cross_socket(s->core_id, producer))
            cost += costs::kCrossSocketQueueOp;
          if (!s->router->process(f) && f.output_if != kPolicyDropIf)
            f.output_if = -1;  // routing miss (vs. a stateful policy refuse)
          const Nanos work = static_cast<Nanos>(
              static_cast<double>(s->router->process_cost(f) +
                                  v->cfg.dummy_load) *
              v->cfg.service_multiplier * s->degrade);
          cost += work + costs::kEnqueueCost;
          // §16: the stateful step may have changed per-flow state — relay
          // the queued deltas to the active siblings while the frame is
          // still in service (emit cost charged here, apply cost at the
          // sibling's ctrl_in).
          if (replication_ && f.sprayed && s->router->stateful())
            cost += static_cast<Nanos>(relay_deltas(*v, *s)) *
                    costs::kStateDeltaEmit;
          s->service_time.update(static_cast<double>(cost));
          return cost;
        },
        [this, s, v](net::FrameMeta&& f) {
          ++s->processed;
          if (f.obs_sampled) f.obs_done_at = sim_.now();
          if (tracer_)
            tracer_->record(f.dispatch_shard, obs::TraceHop::kVriEnd, f.id,
                            s->vr_id, s->index, sim_.now(), 0,
                            f.obs_sampled != 0);
          if (f.output_if < 0) {
            if (f.output_if == kPolicyDropIf) {
              ++s->policy_drops;
              note_drop(f, DropCause::kVrPolicy);
            } else {
              ++s->no_route;
              note_drop(f, DropCause::kNoRoute);
            }
            return;
          }
          if (v->pipeline_latency > 0) {
            // The Click VR's internal Queue element delays the frame without
            // consuming extra CPU (Fig 4.6's higher latency).
            sim_.after(v->pipeline_latency, [this, s, v, f] {
              if (!push_or_note(*s->data_out, f, DropCause::kQueueFull))
                ++v->data_drops;
              else
                maybe_poke_tx_thieves(*s);
            });
          } else if (!push_or_note(*s->data_out, f, DropCause::kQueueFull)) {
            ++v->data_drops;
          } else {
            maybe_poke_tx_thieves(*s);
          }
        },
        CostCategory::kUser);

    // LVRM-side inputs for this slot — control relay and TX — live on the
    // slot's home shard's poll loop (shard 0 with dispatch_shards=1).
    DispatchShard& home = shards_[static_cast<std::size_t>(s->home_shard)];
    home.server->add_input(
        *s->ctrl_out, /*priority=*/0,
        [this, s, &home](net::FrameMeta& f) {
          Nanos cost = costs::kDequeueCost + costs::kEnqueueCost +
                       static_cast<Nanos>(costs::kControlRelayPerByte *
                                          f.wire_bytes);
          if (cross_socket(s->core_id, home.core_id))
            cost += costs::kCrossSocketQueueOp;
          return cost;
        },
        [this, v](net::FrameMeta&& f) {
          const std::uint64_t id = f.id;
          const int dst = f.dispatch_vri;
          if (dst < 0 || dst >= static_cast<int>(v->slots.size())) {
            ++control_drops_;
            control_cbs_.erase(id);
            return;
          }
          VriSlot& target = *v->slots[static_cast<std::size_t>(dst)];
          if (target.ctrl_loss_prob > 0.0 &&
              rng_.uniform01() < target.ctrl_loss_prob) {
            // Injected lossy control path: the event vanishes in transit.
            ++control_drops_;
            control_cbs_.erase(id);
            return;
          }
          if (!target.ctrl_in->push(std::move(f))) {
            ++control_drops_;
          }
        },
        CostCategory::kUser);

    s->data_out_input = home.server->add_input(
        *s->data_out, /*priority=*/1,
        [this, s, &home](net::FrameMeta& f) {
          Nanos cost = costs::kDequeueCost + home.adapter->send_cost(f);
          Nanos user_part = costs::kDequeueCost;
          if (cross_socket(s->core_id, home.core_id)) {
            cost += costs::kCrossSocketQueueOp;
            user_part += costs::kCrossSocketQueueOp;
          }
          if (home.adapter->send_category() != CostCategory::kUser)
            core(home.core_id)
                .reclassify(home.adapter->send_category(),
                            CostCategory::kUser, user_part);
          return cost;
        },
        [this, v](net::FrameMeta&& f) {
          // TX completion: the frame leaves the IPC plane here. Sprayed
          // frames (§16) detour through the per-flow sequencer, which
          // restores external arrival order before finish_tx releases them.
          f.gw_out_at = sim_.now();
          if (replication_ && f.sprayed) {
            sequence_tx(*v, std::move(f));
            return;
          }
          finish_tx(*v, std::move(f));
        },
        home.adapter->send_category(), config_.poll_batch,
        // Batched hot path: the TX burst is one coalesced core event; the
        // per-item cost fn above is summed over the drained frames.
        /*coalesce=*/config_.batched_hot_path);

    if (stealing_) {
      // §17: while a TX-steal is in flight the victim's own drain is held
      // closed, so the stolen (older) burst cannot be overtaken by newer
      // frames from the same slot — TX order per slot stays exact. The gate
      // intentionally leaves the nonempty hint intact; kick() reopens it.
      home.server->set_input_gate(s->data_out_input,
                                  [s] { return s->steal_inflight == 0; });
      // Idle-VRI data-plane stealing: when this slot's own queues are dry
      // its poll loop scans same-VR siblings for unpinned backlog.
      s->server->set_idle_hook(
          [this, v, s] { return try_vri_steal(*v, *s); });
    }

    vr->slots.push_back(std::move(slot));
  }

  vrs_.push_back(std::move(vr));
  return static_cast<int>(vrs_.size()) - 1;
}

void LvrmSystem::start() {
  assert(!started_);
  started_ = true;
  for (auto& vr : vrs_) {
    const int initial = std::max(1, vr->cfg.initial_vris);
    for (int i = 0; i < initial; ++i) activate_vri(*vr);
  }
  for (auto& shard : shards_) shard.server->start();
}

// --- data path ----------------------------------------------------------------------

int LvrmSystem::shard_of(const net::FrameMeta& frame) const {
  if (shards_.size() == 1) return 0;
  // RSS-style steering: the same 5-tuple hash the flow table keys on, so
  // every frame of a flow lands on one shard and per-flow order holds.
  return static_cast<int>(net::hash_tuple(net::FiveTuple::from_frame(frame)) %
                          shards_.size());
}

bool LvrmSystem::ingress(net::FrameMeta frame) {
  frame.gw_in_at = sim_.now();
  // Level-2 admission control (DESIGN.md §13): while any VR sits at
  // kAdmission, its out-of-subset flows are rejected here — before a ring
  // entry is consumed. One int compare when the ladder is idle, so the
  // ingress cost is unchanged with the feature off.
  if (admission_active_ > 0 && admission_reject(frame)) return false;
  const int s = shard_of(frame);
  frame.dispatch_shard = static_cast<std::int16_t>(s);
  DispatchShard& shard = shards_[static_cast<std::size_t>(s)];
  if (!push_or_note(*shard.rx_ring, frame, DropCause::kRxRingFull))
    return false;
  ++shard.rx_admitted;
  if (tracer_)
    tracer_->record(s, obs::TraceHop::kRxIngress, frame.id, frame.dispatch_vr,
                    -1, frame.gw_in_at,
                    static_cast<std::uint32_t>(frame.wire_bytes));
  return true;
}

LvrmSystem::VrState& LvrmSystem::classify(net::FrameMeta& frame) {
  // "LVRM inspects the source IP address of the data frame, and determines
  // the VR that will process the data frame" (Sec 2.1). Unmatched frames
  // fall back to VR 0 so the single-VR experiments need no subnet setup.
  for (auto& vr : vrs_) {
    for (const auto& prefix : vr->cfg.subnets) {
      if (net::in_prefix(frame.src_ip, prefix.network, prefix.length)) {
        frame.dispatch_vr = static_cast<std::int16_t>(vr->id);
        return *vr;
      }
    }
  }
  frame.dispatch_vr = 0;
  return *vrs_.front();
}

Nanos LvrmSystem::rx_cost(net::FrameMeta& frame, DispatchShard& shard) {
  VrState& vr = classify(frame);
  const Nanos now = sim_.now();
  // §15: the RX-serve stamp completes the gw_in -> rx -> enq -> svc -> tx
  // hop timeline; one gated store per frame, never read by decision logic.
  if (tracer_) frame.obs_rx_at = now;
  if (vr.last_arrival >= 0) {
    const Nanos gap = now - vr.last_arrival;
    if (gap > 0) vr.arrival_gap.update(static_cast<double>(gap));
  }
  vr.last_arrival = now;
  ++vr.frames_in;

  Nanos cost = shard.adapter->recv_cost(frame) + costs::kClassifyCost +
               costs::kDispatchFixed;
  Nanos user_part = costs::kClassifyCost + costs::kDispatchFixed;

  // Fig 3.4 "estimate: called upon receipt of a packet": each VRI adapter
  // observes its current queue, then Fig 3.3's "get estimate" feeds JSQ.
  std::vector<VriView> views;
  views.reserve(vr.active_order.size());
  for (int idx : vr.active_order) {
    VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
    s.estimator->on_packet_observed(s.data_in->size(), now);
    views.push_back(VriView{idx, s.estimator->load_at(now), s.suspect});
  }
  if (views.empty()) {
    frame.dispatch_vri = -1;
    return cost;
  }

  Dispatcher& disp = *vr.dispatchers[static_cast<std::size_t>(shard.id)];
  int chosen = disp.dispatch(frame, views, now);
  // §16: a detected elephant overrides its pin with a per-frame spray pick.
  if (replication_)
    chosen = maybe_spray(vr, shard, frame, views, chosen, now);
  frame.dispatch_vri = static_cast<std::int16_t>(chosen);
  const Nanos decision =
      disp.decision_cost(views.size(), disp.last_was_flow_hit());
  cost += decision + costs::kEnqueueCost;
  user_part += decision + costs::kEnqueueCost;

  const VriSlot& target = *vr.slots[static_cast<std::size_t>(chosen)];
  if (cross_socket(target.core_id, shard.core_id)) {
    cost += costs::kCrossSocketQueueOp;
    user_part += costs::kCrossSocketQueueOp;
  }
  if (now < target.cold_until) {
    cost += costs::kColdCacheSurcharge;
    user_part += costs::kColdCacheSurcharge;
  }

  // The whole task is charged to the adapter's recv category; move the
  // dispatch work to user time for the Fig 4.3 breakdown.
  if (shard.adapter->recv_category() != CostCategory::kUser)
    core(shard.core_id)
        .reclassify(shard.adapter->recv_category(), CostCategory::kUser,
                    user_part);
  return cost;
}

Nanos LvrmSystem::rx_cost_batch(std::span<net::FrameMeta> frames,
                                DispatchShard& shard) {
  // Batched-hot-path equivalent of rx_cost over a whole drained burst
  // (DESIGN.md §9): classification and adapter receive stay per-frame, the
  // load-estimator observation and VriView construction happen once per VR
  // per burst (the burst is served at one instant), and the dispatch
  // decisions go through Dispatcher::dispatch_batch so same-flow frames
  // share one flow-table probe.
  const Nanos now = sim_.now();
  Nanos cost = 0;
  Nanos user_part = 0;

  if (rx_groups_.size() < vrs_.size()) rx_groups_.resize(vrs_.size());
  for (auto& g : rx_groups_) g.clear();

  for (net::FrameMeta& f : frames) {
    if (tracer_) f.obs_rx_at = now;
    VrState& vr = classify(f);
    if (vr.last_arrival >= 0) {
      const Nanos gap = now - vr.last_arrival;
      if (gap > 0) vr.arrival_gap.update(static_cast<double>(gap));
    }
    vr.last_arrival = now;
    ++vr.frames_in;
    cost += shard.adapter->recv_cost(f) + costs::kClassifyCost +
            costs::kDispatchFixed;
    user_part += costs::kClassifyCost + costs::kDispatchFixed;
    rx_groups_[static_cast<std::size_t>(f.dispatch_vr)].push_back(&f);
  }

  for (std::size_t vid = 0; vid < vrs_.size(); ++vid) {
    auto& group = rx_groups_[vid];
    if (group.empty()) continue;
    VrState& vr = *vrs_[vid];

    views_scratch_.clear();
    for (int idx : vr.active_order) {
      VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
      s.estimator->on_packet_observed(s.data_in->size(), now);
      views_scratch_.push_back(
          VriView{idx, s.estimator->load_at(now), s.suspect});
    }
    if (views_scratch_.empty()) {
      for (net::FrameMeta* f : group) f->dispatch_vri = -1;
      continue;
    }

    const Nanos decision =
        vr.dispatchers[static_cast<std::size_t>(shard.id)]->dispatch_batch(
            group, views_scratch_, now);
    cost += decision;
    user_part += decision;

    // §16: spray overrides run after the batch decision, before the
    // enqueue-cost pass reads each frame's final target.
    if (replication_) {
      for (net::FrameMeta* f : group)
        if (f->dispatch_vri >= 0)
          f->dispatch_vri = static_cast<std::int16_t>(
              maybe_spray(vr, shard, *f, views_scratch_, f->dispatch_vri, now));
    }

    for (const net::FrameMeta* f : group) {
      cost += costs::kEnqueueCost;
      user_part += costs::kEnqueueCost;
      const VriSlot& target =
          *vr.slots[static_cast<std::size_t>(f->dispatch_vri)];
      if (cross_socket(target.core_id, shard.core_id)) {
        cost += costs::kCrossSocketQueueOp;
        user_part += costs::kCrossSocketQueueOp;
      }
      if (now < target.cold_until) {
        cost += costs::kColdCacheSurcharge;
        user_part += costs::kColdCacheSurcharge;
      }
    }
  }

  if (shard.adapter->recv_category() != CostCategory::kUser)
    core(shard.core_id)
        .reclassify(shard.adapter->recv_category(), CostCategory::kUser,
                    user_part);
  return cost;
}

void LvrmSystem::rx_sink(net::FrameMeta&& frame) {
  // Fig 3.2: the allocation pass runs "upon receipt of a packet after 1s or
  // more from the previous core allocation/deallocation process".
  maybe_allocate();
  // The heartbeat pass rides the same poll loop but on its own (much
  // shorter) period, so faults are noticed well inside the 1 s window.
  maybe_health_probe();
  // The snapshot tick piggybacks on the same loop: telemetry aggregation
  // never needs its own timer or thread.
  if (obs_) {
    obs_->rx_frames.inc();
    if (!obs_->shard_rx.empty() && frame.dispatch_shard >= 0)
      obs_->shard_rx[static_cast<std::size_t>(frame.dispatch_shard)].inc();
    maybe_snapshot();
  }

  if (frame.dispatch_vr < 0 || frame.dispatch_vri < 0) {
    ++unclassified_drops_;
    note_drop(frame, DropCause::kUnclassified);
    return;
  }
  VrState& vr = *vrs_[static_cast<std::size_t>(frame.dispatch_vr)];
  VriSlot& slot = *vr.slots[static_cast<std::size_t>(frame.dispatch_vri)];
  if (!slot.active) {
    ++vr.data_drops;
    note_drop(frame, DropCause::kVriInactive);
    return;
  }
  if (config_.overload_control.enabled) {
    // Degradation ladder (DESIGN.md §13): adapt the VR's sampling rate on
    // window boundaries, then apply the level-1 per-flow sampling shed.
    overload_tick(vr, sim_.now());
    if (maybe_sample_shed(vr, slot, frame)) return;
  }
  if (maybe_shed(vr, slot, frame)) return;
  if (tracer_) {
    // §15 load-adaptive sampling replaces the fixed §10 countdown. The
    // pressure signal is the same one the §13 ladder watches — the chosen
    // data queue at/above the sample watermark — so span resolution rises
    // when the pipeline is idle and backs off under overload.
    const auto watermark = static_cast<std::size_t>(
        config_.overload_control.sample_watermark *
        static_cast<double>(slot.data_in->capacity()));
    tracer_->observe_pressure(slot.data_in->size() >= watermark, sim_.now());
    if (tracer_->should_sample()) {
      frame.obs_sampled = 1;
      frame.obs_enq_at = sim_.now();
    }
    tracer_->record(frame.dispatch_shard, obs::TraceHop::kDispatch, frame.id,
                    frame.dispatch_vr, frame.dispatch_vri, sim_.now(), 0,
                    frame.obs_sampled != 0);
  } else if (obs_ && telemetry_->should_sample()) {
    frame.obs_sampled = 1;
    frame.obs_enq_at = sim_.now();
  }
  if (!push_or_note(*slot.data_in, frame, DropCause::kQueueFull)) {
    ++vr.data_drops;
    return;
  }
  // Fig 3.4 "estimate": one sample per dispatched frame.
  slot.estimator->on_dispatch(slot.data_in->size(), sim_.now());
}

bool LvrmSystem::maybe_shed(VrState& vr, VriSlot& slot,
                            net::FrameMeta& frame) {
  if (config_.shed_policy == ShedPolicy::kNone) return false;
  // Shed only when the VR cannot grow out of the overload — it is at its
  // VRI cap or no cores remain — and even its *chosen* (shortest for JSQ)
  // queue is past the watermark, i.e. arrival has exceeded the allocated
  // capacity for long enough to back every queue up.
  if (static_cast<int>(vr.active_order.size()) < config_.max_vris_per_vr &&
      any_free_core())
    return false;
  const auto watermark = static_cast<std::size_t>(
      config_.shed_watermark * static_cast<double>(slot.data_in->capacity()));
  if (slot.data_in->size() < watermark) return false;

  ++vr.shed_drops;
  if (telemetry_ && !vr.shed_open) {
    // Open a shedding episode: remember the load picture that caused it.
    vr.shed_open = true;
    vr.shed_start = sim_.now();
    vr.shed_at_open = vr.shed_drops - 1;
    vr.shed_rate = arrival_rate_estimate(vr.id);
    vr.shed_service = measured_service_rate(vr);
    LVRM_CLOG(kShed, kInfo)
        << "vr=" << vr.id << " shedding opened: arrival="
        << vr.shed_rate << " fps, service=" << vr.shed_service
        << " fps/vri, watermark=" << config_.shed_watermark;
  }
  LVRM_CLOG(kShed, kTrace) << "vr=" << vr.id << " shed frame at vri="
                           << slot.index;
  if (config_.shed_policy == ShedPolicy::kDropOldest &&
      !slot.data_in->empty()) {
    // Evict the stalest queued frame to admit the fresh one.
    note_drop(slot.data_in->pop(), DropCause::kShedDropOldest);
    if (push_or_note(*slot.data_in, frame, DropCause::kQueueFull))
      slot.estimator->on_dispatch(slot.data_in->size(), sim_.now());
    return true;
  }
  // kDropNewest: the arriving frame is shed before the enqueue.
  note_drop(frame, DropCause::kShedDropNewest);
  return true;
}

// --- degradation ladder (DESIGN.md §13) ---------------------------------------------

bool LvrmSystem::in_subset(const net::FrameMeta& f, double rate) const {
  if (rate >= 1.0) return true;
  // Deterministic per-flow subsetting: the same 5-tuple hash the flow table
  // and RSS steering key on, salted so the subset is independent of both.
  // Halving the rate always keeps a subset of the previous survivors, so
  // escalation never re-admits a flow it already shed.
  const std::uint64_t h = net::hash_tuple(net::FiveTuple::from_frame(f)) ^
                          config_.overload_control.subset_salt;
  return static_cast<double>(h >> 32) < rate * 4294967296.0;
}

bool LvrmSystem::admission_reject(net::FrameMeta& frame) {
  // classify() is idempotent (rx_cost re-runs it on the admitted frames).
  VrState& vr = classify(frame);
  if (vr.level != OverloadLevel::kAdmission) return false;
  // The gate can be the only code still seeing this VR's frames (everything
  // outside the subset dies right here), so it must drive the adaptation
  // clock too — otherwise a fully-gated VR would never relax.
  overload_tick(vr, sim_.now());
  if (vr.level != OverloadLevel::kAdmission) return false;
  if (in_subset(frame, vr.sample_rate)) {
    // Record the gate's sampling rate in the frame: egress consumers divide
    // delivered counts by the recorded rate to bias-correct them back to
    // offered counts (DESIGN.md §13).
    frame.admit_rate = vr.sample_rate;
    return false;
  }
  ++vr.admission_rejected;
  // The reject runs *after* the cheap source-prefix classification, so the
  // offered tally stays exact even while the gate drops at ingress — unlike
  // a NIC-ring overflow, which loses frames before anything knows which VR
  // they belonged to.
  vr.offered_estimate += 1.0;
  if (obs_) obs_->admission_rejected.inc();
  note_drop(frame, DropCause::kAdmissionReject);
  return true;
}

bool LvrmSystem::maybe_sample_shed(VrState& vr, VriSlot& slot,
                                   net::FrameMeta& f) {
  const OverloadConfig& oc = config_.overload_control;
  ++vr.win_frames;
  const auto watermark = static_cast<std::size_t>(
      oc.sample_watermark * static_cast<double>(slot.data_in->capacity()));
  if (slot.data_in->size() >= watermark) ++vr.win_pressured;
  // Every frame the sampler inspects is tallied before the shed decision:
  // level-1 drops happen with the frame in hand, so — together with the
  // admission gate's exact reject tally — the per-VR offered count stays
  // reconstructible to well under the Exp 6 five-percent bar no matter how
  // hard the ladder sheds.
  vr.offered_estimate += 1.0;
  if (vr.level == OverloadLevel::kNormal) return false;
  if (in_subset(f, vr.sample_rate)) {
    // Survivors record their end-to-end sampling rate: the hash subsets
    // nest (subset(r1) ∩ subset(r2) == subset(min(r1, r2))), so the min of
    // the admission-gate rate stamped at ingress and the current rate is
    // this frame's exact survival probability. Dividing per-flow delivered
    // counts by the recorded rate bias-corrects them back to offered
    // counts, however the ladder moved while the frame sat in a ring.
    f.admit_rate = std::min(f.admit_rate, vr.sample_rate);
    return false;
  }
  ++vr.sampled_shed;
  if (obs_) obs_->sampled_shed.inc();
  note_drop(f, DropCause::kSampledShed);
  return true;
}

void LvrmSystem::overload_tick(VrState& vr, Nanos now) {
  const OverloadConfig& oc = config_.overload_control;
  if (vr.win_start < 0) {
    vr.win_start = now;
    return;
  }
  if (now - vr.win_start < oc.adapt_period) return;
  // An empty window is calm, not unknown: at a deep admission rung every
  // active flow can fall outside the subset, so no frame ever reaches the
  // sampler again — holding the rung on silence would deadlock the ladder.
  const double pressure = vr.win_frames == 0
                              ? 0.0
                              : static_cast<double>(vr.win_pressured) /
                                    static_cast<double>(vr.win_frames);
  if (pressure >= oc.escalate_pressure) {
    ++vr.escalations;
    const double next = std::max(oc.min_sample_rate, vr.sample_rate * 0.5);
    const OverloadLevel level = vr.escalations >= oc.admission_after
                                    ? OverloadLevel::kAdmission
                                    : OverloadLevel::kSampling;
    if (level != vr.level || next != vr.sample_rate)
      set_overload_state(vr, level, next, pressure);
  } else if (pressure <= oc.relax_pressure) {
    vr.escalations = 0;
    if (vr.level == OverloadLevel::kAdmission) {
      // Step down one rung at a time: admission releases first, the
      // sampling rate recovers on the following calm windows.
      set_overload_state(vr, OverloadLevel::kSampling, vr.sample_rate,
                         pressure);
    } else if (vr.level == OverloadLevel::kSampling) {
      const double next = std::min(1.0, vr.sample_rate * 2.0);
      set_overload_state(vr,
                         next >= 1.0 ? OverloadLevel::kNormal
                                     : OverloadLevel::kSampling,
                         next, pressure);
    }
  } else {
    // Plateau: hold the rung; consecutive-escalation streak is broken.
    vr.escalations = 0;
  }
  vr.win_start = now;
  vr.win_frames = 0;
  vr.win_pressured = 0;
}

void LvrmSystem::set_overload_state(VrState& vr, OverloadLevel level,
                                    double rate, double pressure) {
  const OverloadLevel before = vr.level;
  if (level == OverloadLevel::kNormal) rate = 1.0;
  // The ingress admission gate stays zero-cost while no VR is at kAdmission.
  if (before != OverloadLevel::kAdmission &&
      level == OverloadLevel::kAdmission) {
    ++admission_active_;
    // §15 black box: the ladder reaching admission is an incident — dump
    // the flight recorders before the gate starts erasing the evidence.
    if (tracer_)
      trace_flight_dump(obs::FlightDumpCause::kAdmission, /*shard=*/-1,
                        vr.id, /*vri=*/-1);
  }
  if (before == OverloadLevel::kAdmission &&
      level != OverloadLevel::kAdmission)
    --admission_active_;
  vr.level = level;
  vr.sample_rate = rate;
  LVRM_CLOG(kShed, kInfo) << "vr=" << vr.id << " overload "
                          << to_string(before) << " -> " << to_string(level)
                          << " rate=" << rate << " pressure=" << pressure;
  if (telemetry_) {
    obs::AuditEvent e;
    e.time = sim_.now();
    e.until = e.time;
    e.kind = obs::AuditKind::kOverloadLevel;
    e.vr = static_cast<std::int16_t>(vr.id);
    e.rate = rate;
    e.threshold = pressure;
    e.a = static_cast<std::uint64_t>(level);
    e.b = static_cast<std::uint64_t>(before);
    e.c = vr.sampled_shed + vr.admission_rejected;
    telemetry_->audit().record(e);
  }
}

// --- control events -------------------------------------------------------------------

void LvrmSystem::send_control(int vr_id, int src_vri, int dst_vri,
                              std::size_t bytes,
                              std::function<void(Nanos)> on_delivered,
                              net::FrameKind kind) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& src = *vr.slots.at(static_cast<std::size_t>(src_vri));
  net::FrameMeta f;
  f.kind = kind;
  f.id = next_control_id_++;
  f.wire_bytes = static_cast<int>(bytes);
  f.created_at = sim_.now();
  f.dispatch_vr = static_cast<std::int16_t>(vr_id);
  f.dispatch_vri = static_cast<std::int16_t>(dst_vri);
  control_cbs_.emplace(f.id, std::move(on_delivered));
  if (!src.ctrl_out->push(std::move(f))) {
    ++control_drops_;
    control_cbs_.erase(next_control_id_ - 1);
  }
}

void LvrmSystem::broadcast_route_update(int vr_id, int src_vri,
                                        const route::RouteUpdate& update,
                                        std::function<void(Nanos)> on_synced) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));

  // The originator applies immediately; inactive siblings are updated in
  // place so a later activation starts from consistent state.
  for (auto& slot : vr.slots) {
    if (slot->index == src_vri || !slot->active)
      slot->router->apply_route_update(update);
  }

  // Logged so a respawned (fresh-process) VRI can replay every update it
  // would otherwise have missed — part of the Sec 2.1 routing-state sync.
  vr.route_log.push_back(update);

  struct SyncState {
    int pending = 0;
    Nanos worst = 0;
    std::function<void(Nanos)> done;
  };
  auto sync = std::make_shared<SyncState>();
  sync->done = std::move(on_synced);
  for (const int idx : vr.active_order)
    if (idx != src_vri) ++sync->pending;
  if (sync->pending == 0) {
    if (sync->done) sync->done(0);
    return;
  }

  const std::size_t bytes = route::kRouteUpdateWireSize + 16;  // + header
  for (const int idx : vr.active_order) {
    if (idx == src_vri) continue;
    VriSlot* slot = vr.slots[static_cast<std::size_t>(idx)].get();
    send_control(vr_id, src_vri, idx, bytes,
                 [slot, update, sync](Nanos latency) {
                   slot->router->apply_route_update(update);
                   sync->worst = std::max(sync->worst, latency);
                   if (--sync->pending == 0 && sync->done)
                     sync->done(sync->worst);
                 });
  }
}

// --- state replication (DESIGN.md §16) ----------------------------------------------

int LvrmSystem::maybe_spray(VrState& vr, DispatchShard& shard,
                            net::FrameMeta& f, std::span<const VriView> views,
                            int chosen, Nanos now) {
  // Spraying needs a flow pin to relax and a sibling to spray to.
  if (config_.granularity != BalancerGranularity::kFlow || chosen < 0)
    return chosen;
  const StateReplicationConfig& rc = config_.state_replication;
  const auto tuple = net::FiveTuple::from_frame(f);

  const auto it = vr.sprays.find(tuple);
  if (it != vr.sprays.end()) {
    VrState::SprayState& sp = it->second;
    // Stamp every frame from the promotion decision onward — including the
    // Pending phase, where the flow is still pinned to its owner. Every
    // unstamped frame of the flow is FIFO-ahead of the first stamped one in
    // the owner's queue, so the pin-to-spray transition cannot reorder.
    f.sprayed = 1;
    f.spray_flow = sp.id;
    f.spray_seq = sp.next_seq++;
    ++sp.frames;
    sp.last_frame = now;
    ++sprayed_frames_;
    if (obs_) obs_->sprayed_frames.inc();
    if (sp.phase != VrState::SprayState::Phase::kActive) return chosen;
    // Active: per-frame min-load pick over the non-suspect candidates (the
    // replicated state makes every sibling a valid target).
    int best = chosen;
    double best_load = std::numeric_limits<double>::infinity();
    for (const VriView& v : views) {
      if (v.suspect) continue;
      if (v.load < best_load) {
        best_load = v.load;
        best = v.index;
      }
    }
    return best;
  }

  // Heavy-hitter detection: count the flow in its current window slot. A
  // hash collision can only over-count (promote a mouse early — harmless,
  // it just gets replicated too), never miss a true elephant.
  if (views.size() < 2) return chosen;
  const std::size_t slot = static_cast<std::size_t>(
      net::hash_tuple(tuple) & (VrState::kHhSlots - 1));
  const Nanos window = std::max<Nanos>(1, rc.detect_window);
  const auto win = static_cast<std::uint64_t>(now / window);
  if (vr.hh_window[slot] != win) {
    vr.hh_window[slot] = win;
    vr.hh_counts[slot] = 0;
  }
  const std::uint64_t count = ++vr.hh_counts[slot];
  const double window_sec = static_cast<double>(window) / 1e9;
  const double threshold_frames =
      std::max(static_cast<double>(rc.min_frames),
               rc.elephant_fraction * config_.per_vri_capacity_fps *
                   window_sec);
  if (static_cast<double>(count) < threshold_frames) return chosen;

  // Promotion: enter Pending (still pinned), start the snapshot handshake,
  // and stamp this frame as the flow's first sprayed frame.
  VrState::SprayState sp;
  sp.id = next_spray_flow_++;
  sp.owner = chosen;
  sp.shard = shard.id;
  sp.rate_fps = static_cast<double>(count) / window_sec;
  sp.last_frame = now;
  f.sprayed = 1;
  f.spray_flow = sp.id;
  f.spray_seq = sp.next_seq++;
  sp.frames = 1;
  ++sprayed_frames_;
  if (obs_) obs_->sprayed_frames.inc();
  const double threshold_fps = threshold_frames / window_sec;
  vr.sprays.emplace(tuple, sp);
  start_spray_handshake(vr, shard.id, chosen, tuple, sp.rate_fps,
                        threshold_fps);
  return chosen;
}

void LvrmSystem::start_spray_handshake(VrState& vr, int shard, int owner,
                                       const net::FiveTuple& tuple,
                                       double rate_fps, double threshold_fps) {
  // Snapshot the owner's state for this flow and copy it to every active
  // sibling over the control rings (the broadcast_route_update pattern).
  // The spray goes Active only when the slowest sibling has acked — until
  // then frames stay pinned, so a sibling never sees a mid-flow frame
  // before the snapshot that explains it.
  VriSlot& own = *vr.slots.at(static_cast<std::size_t>(owner));
  net::StateDelta snap;
  const bool have_state =
      own.router->stateful() && own.router->export_flow_state(tuple, snap);

  struct Sync {
    int pending = 0;
    Nanos worst = 0;
  };
  auto sync = std::make_shared<Sync>();
  for (const int idx : vr.active_order)
    if (idx != owner) ++sync->pending;

  const Nanos started = sim_.now();
  VrState* vrp = &vr;
  auto activate = [this, vrp, tuple, shard, owner, rate_fps, threshold_fps,
                   started](Nanos worst) {
    const auto it = vrp->sprays.find(tuple);
    if (it == vrp->sprays.end()) return;  // idle-expired mid-handshake
    it->second.phase = VrState::SprayState::Phase::kActive;
    ++spray_activations_;
    if (obs_) obs_->spray_activations.inc();
    LVRM_CLOG(kDispatch, kInfo)
        << "vr=" << vrp->id << " flow sprayed: rate=" << rate_fps
        << " fps >= threshold=" << threshold_fps << " fps, fanout="
        << vrp->active_order.size() << ", handshake=" << worst << " ns";
    if (telemetry_) {
      obs::AuditEvent e;
      e.time = started;
      e.until = sim_.now();
      e.kind = obs::AuditKind::kFlowSpray;
      e.vr = static_cast<std::int16_t>(vrp->id);
      e.vri = static_cast<std::int16_t>(owner);
      e.shard = static_cast<std::int16_t>(shard);
      e.rate = rate_fps;
      e.threshold = threshold_fps;
      e.a = vrp->active_order.size();
      e.b = it->second.id;
      e.c = static_cast<std::uint64_t>(worst);
      telemetry_->audit().record(e);
    }
  };
  if (sync->pending == 0) {  // unreachable behind the >= 2 VRI gate
    activate(0);
    return;
  }
  for (const int idx : vr.active_order) {
    if (idx == owner) continue;
    VriSlot* sib = vr.slots[static_cast<std::size_t>(idx)].get();
    // A lost handshake leg (injected control loss) erases the callback:
    // the spray then stays Pending — i.e. pinned — forever. Safe by
    // construction; never wrong, only not faster.
    send_control(vr.id, owner, idx, net::StateDelta::kWireBytes + 16,
                 [sib, snap, have_state, sync, activate](Nanos latency) {
                   if (have_state && sib->active && !sib->crashed)
                     sib->router->apply_delta(snap);
                   sync->worst = std::max(sync->worst, latency);
                   if (--sync->pending == 0) activate(sync->worst);
                 });
  }
}

std::size_t LvrmSystem::relay_deltas(VrState& vr, VriSlot& slot) {
  const StateReplicationConfig& rc = config_.state_replication;
  net::StateDelta d;
  std::size_t drained = 0;
  while (slot.router->take_delta(d)) {
    ++drained;
    if (rc.delta_period > 1) {
      // Relay every Nth delta of the flow; the ones in between are absorbed
      // by the next relayed record (deltas carry absolute state, so a
      // skipped one costs freshness, not correctness).
      const auto it = vr.sprays.find(d.flow);
      if (it != vr.sprays.end() &&
          (it->second.delta_seq++ % rc.delta_period) != 0)
        continue;
    }
    for (const int idx : vr.active_order) {
      if (idx == slot.index) continue;
      VriSlot* sib = vr.slots[static_cast<std::size_t>(idx)].get();
      ++deltas_sent_;
      if (obs_) obs_->deltas_sent.inc();
      // The callback runs when the sibling consumes the delta from its
      // ctrl_in (charged at the §16 delta-apply cost, not the full control
      // cost). Re-read the slot's router at delivery — a respawn may have
      // replaced it. A lost delta (ctrl loss) erases the callback: safe
      // loss, the next relayed delta for the flow carries absolute state.
      send_control(
          vr.id, slot.index, idx, net::StateDelta::kWireBytes,
          [this, sib, d](Nanos) {
            if (!sib->active || sib->crashed) return;
            if (sib->router->apply_delta(d)) {
              ++deltas_applied_;
              if (obs_ && replication_) obs_->deltas_applied.inc();
            }
          },
          net::FrameKind::kStateDelta);
    }
  }
  return drained;
}

void LvrmSystem::finish_tx(VrState& vr, net::FrameMeta&& f) {
  ++forwarded_;
  ++vr.forwarded;
  if (f.dispatch_vri >= 0 &&
      f.dispatch_vri < static_cast<std::int16_t>(vr.slots.size()))
    ++vr.slots[static_cast<std::size_t>(f.dispatch_vri)]->forwarded;
  if (tracer_) {
    tracer_->record(f.dispatch_shard, obs::TraceHop::kTxDrain, f.id,
                    f.dispatch_vr, f.dispatch_vri, f.gw_out_at, 0,
                    f.obs_sampled != 0);
    // A delivered sample's hop timeline is complete here: collect the span
    // (terminal 0 = egressed).
    if (f.obs_sampled) tracer_->add_span(span_of(f, 0));
  }
  if (obs_) {
    obs_->tx_frames.inc();
    if (!obs_->shard_tx.empty() && f.dispatch_shard >= 0)
      obs_->shard_tx[static_cast<std::size_t>(f.dispatch_shard)].inc();
    if (f.obs_sampled) {
      // The three stages of the latency pipeline, recorded for the sampled
      // subset only (identical in classic and batched mode).
      obs_->queue_wait_ns.record(static_cast<std::uint64_t>(
          std::max<Nanos>(0, f.obs_svc_at - f.obs_enq_at)));
      obs_->vri_service_ns.record(static_cast<std::uint64_t>(
          std::max<Nanos>(0, f.obs_done_at - f.obs_svc_at)));
      obs_->e2e_ns.record(static_cast<std::uint64_t>(
          std::max<Nanos>(0, f.gw_out_at - f.gw_in_at)));
    }
  }
  if (egress_) egress_(std::move(f));
}

void LvrmSystem::seq_release_run(VrState& vr, SeqOut& so) {
  auto it = so.held.find(so.next);
  while (it != so.held.end()) {
    if (it->second) {
      --so.live;
      finish_tx(vr, std::move(*it->second));
    }
    so.held.erase(it);
    ++so.next;
    it = so.held.find(so.next);
  }
}

void LvrmSystem::sequence_tx(VrState& vr, net::FrameMeta&& f) {
  SeqOut& so = vr.seq_out[f.spray_flow];
  so.last_activity = sim_.now();
  if (f.spray_seq < so.next) {
    // Behind the release cursor: its position was force-released by a
    // window overflow (or tombstoned then superseded). Let it through late
    // rather than hold it forever.
    finish_tx(vr, std::move(f));
    return;
  }
  if (f.spray_seq == so.next) {
    ++so.next;
    finish_tx(vr, std::move(f));
    seq_release_run(vr, so);
    return;
  }
  // Ahead of the cursor: park until the gap fills (or tombstones).
  ++seq_holds_;
  if (obs_ && replication_) obs_->seq_holds.inc();
  const std::uint32_t seq = f.spray_seq;
  const auto [it, inserted] =
      so.held.emplace(seq, std::optional<net::FrameMeta>());
  if (!inserted) {  // duplicate position (cannot happen by construction)
    finish_tx(vr, std::move(f));
    return;
  }
  it->second = std::move(f);
  ++so.live;
  while (so.live > config_.state_replication.reorder_window) {
    // Overflow: more FRAMES held than the window allows — force-release
    // from the oldest held position. This is the one case external order
    // can be violated, and it is counted.
    ++seq_window_overflows_;
    if (obs_ && replication_) obs_->seq_window_overflow.inc();
    auto first = so.held.begin();
    so.next = first->first + 1;
    if (first->second) {
      --so.live;
      finish_tx(vr, std::move(*first->second));
    }
    so.held.erase(first);
    seq_release_run(vr, so);
  }
}

void LvrmSystem::seq_skip(const net::FrameMeta& f) {
  if (f.dispatch_vr < 0 ||
      f.dispatch_vr >= static_cast<std::int16_t>(vrs_.size()))
    return;
  VrState& vr = *vrs_[static_cast<std::size_t>(f.dispatch_vr)];
  SeqOut& so = vr.seq_out[f.spray_flow];
  so.last_activity = sim_.now();
  if (f.spray_seq < so.next) return;  // cursor already passed this position
  ++seq_gap_skips_;
  if (obs_ && replication_) obs_->seq_gap_skips.inc();
  if (f.spray_seq == so.next) {
    ++so.next;
    seq_release_run(vr, so);
    return;
  }
  so.held.emplace(f.spray_seq, std::nullopt);  // tombstone the hole
}

void LvrmSystem::spray_gc(Nanos now) {
  if (now - last_spray_gc_ < sec(1)) return;
  last_spray_gc_ = now;
  const Nanos idle =
      std::max<Nanos>(sec(1), 2 * config_.state_replication.detect_window);
  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    for (auto it = vr.sprays.begin(); it != vr.sprays.end();) {
      const VrState::SprayState& sp = it->second;
      if (now - sp.last_frame < idle) {
        ++it;
        continue;
      }
      if (telemetry_) {
        obs::AuditEvent e;
        e.time = now;
        e.until = now;
        e.kind = obs::AuditKind::kFlowSprayEnd;
        e.vr = static_cast<std::int16_t>(vr.id);
        e.shard = static_cast<std::int16_t>(sp.shard);
        e.a = sp.frames;
        e.b = sp.id;
        telemetry_->audit().record(e);
      }
      it = vr.sprays.erase(it);
    }
    // Idle sequencers retire too. One still holding frames had a gap that
    // will never fill (its frame is gone for good) — flush the stragglers
    // in positional order rather than leak them.
    for (auto it = vr.seq_out.begin(); it != vr.seq_out.end();) {
      SeqOut& so = it->second;
      if (now - so.last_activity < idle) {
        ++it;
        continue;
      }
      for (auto& [seq, frame] : so.held)
        if (frame) finish_tx(vr, std::move(*frame));
      it = vr.seq_out.erase(it);
    }
  }
}

void LvrmSystem::bump_pool_generation(VrState& vr) {
  ++vr.pool_generation;
  for (auto& d : vr.dispatchers) d->set_pool_generation(vr.pool_generation);
}

// ---------------------------------------------------------------------------
// §17 MPMC fabric + work stealing
// ---------------------------------------------------------------------------

LvrmSystem::VriSlot* LvrmSystem::steal_victim_slot(const net::FrameMeta& f) {
  if (f.dispatch_vr < 0 || f.dispatch_vr >= static_cast<int>(vrs_.size()))
    return nullptr;
  VrState& vr = *vrs_[static_cast<std::size_t>(f.dispatch_vr)];
  if (f.dispatch_vri < 0 ||
      f.dispatch_vri >= static_cast<int>(vr.slots.size()))
    return nullptr;
  return vr.slots[static_cast<std::size_t>(f.dispatch_vri)].get();
}

bool LvrmSystem::spray_is_active(const VrState& vr,
                                 const net::FrameMeta& f) const {
  // Ingress frames have not run the stateful step yet, so the 5-tuple is
  // still the dispatch-side one the spray map is keyed by.
  const auto it = vr.sprays.find(net::FiveTuple::from_frame(f));
  return it != vr.sprays.end() &&
         it->second.phase == VrState::SprayState::Phase::kActive;
}

bool LvrmSystem::try_tx_steal(DispatchShard& thief) {
  if (!stealing_ || !thief.tx_steal_q) return false;
  // One victim burst at a time: the staging queue must fully egress (and
  // reopen the victim's gate) before the next steal, or bursts from two
  // victims would interleave in one FIFO.
  if (!thief.tx_steal_q->empty() ||
      thief.server->serving_input(thief.tx_steal_input))
    return false;
  for (auto& vrp : vrs_) {
    for (auto& sp : vrp->slots) {
      VriSlot& s = *sp;
      if (s.home_shard == thief.id) continue;  // only foreign drains
      if (s.steal_inflight > 0) continue;      // already being stolen from
      if (s.data_out->size() < config_.steal_min_backlog) continue;
      DispatchShard& home = shards_[static_cast<std::size_t>(s.home_shard)];
      // Never steal under the home server's feet: mid-burst frames must
      // egress before anything younger, and the stolen burst would race.
      if (home.server->serving_input(s.data_out_input)) continue;
      std::size_t moved = 0;
      const std::size_t want =
          std::min<std::size_t>(config_.poll_batch, s.data_out->size());
      while (moved < want && !s.data_out->empty()) {
        if (!thief.tx_steal_q->push(s.data_out->pop())) break;  // staging full
        ++moved;
      }
      if (moved == 0) continue;
      // Close the victim's own drain until the stolen (older) burst has
      // egressed — newer same-slot frames cannot overtake it.
      s.steal_inflight = moved;
      home.server->repair_hint(s.data_out_input);
      ++tx_steals_;
      tx_steal_frames_ += moved;
      if (obs_) {
        obs_->tx_steals.inc();
        obs_->tx_steal_frames.add(moved);
      }
      audit_steal(obs::AuditKind::kTxSteal, thief.id, s, moved);
      return true;
    }
  }
  // Nothing stealable right now. A foreign drain with backlog may become
  // stealable once its home server moves off it — re-poll; with no backlog
  // anywhere let the timer die so an idle sim can drain.
  arm_tx_steal_timer(thief);
  return false;
}

void LvrmSystem::maybe_poke_tx_thieves(VriSlot& s) {
  if (!stealing_) return;
  // Exactly at the threshold crossing: one poke per backlog build-up, not
  // one per egress frame. Busy thieves find steals through their own idle
  // transitions; this only wakes shards with nothing else to run.
  if (s.data_out->size() != config_.steal_min_backlog) return;
  for (auto& shard : shards_) {
    if (shard.id == s.home_shard) continue;
    if (!shard.server->busy()) shard.server->maybe_serve();
  }
}

void LvrmSystem::arm_tx_steal_timer(DispatchShard& thief) {
  if (thief.tx_steal_timer_armed) return;
  bool backlog = false;
  for (const auto& vrp : vrs_) {
    for (const auto& sp : vrp->slots) {
      if (sp->home_shard != thief.id &&
          sp->data_out->size() >= config_.steal_min_backlog) {
        backlog = true;
        break;
      }
    }
    if (backlog) break;
  }
  if (!backlog) return;
  thief.tx_steal_timer_armed = true;
  DispatchShard* t = &thief;
  sim_.after(config_.steal_poll_period, [this, t] {
    t->tx_steal_timer_armed = false;
    if (!stealing_ || t->server->busy()) return;
    // Re-run the idle scan (which re-arms this timer while backlog holds).
    t->server->maybe_serve();
  });
}

bool LvrmSystem::try_vri_steal(VrState& vr, VriSlot& thief) {
  if (!stealing_) return false;
  if (!thief.active || thief.crashed || thief.draining || thief.hung)
    return false;
  for (const int idx : vr.active_order) {
    VriSlot& victim = *vr.slots[static_cast<std::size_t>(idx)];
    if (&victim == &thief) continue;
    if (victim.crashed || victim.hung || victim.draining) continue;
    if (victim.data_in->size() < config_.steal_min_backlog) continue;
    std::size_t moved = 0;
    const std::size_t want =
        std::min<std::size_t>(config_.poll_batch, victim.data_in->size());
    while (moved < want && !victim.data_in->empty()) {
      // Steal-only-unpinned: frame-granularity frames carry no per-flow
      // FIFO promise, and Active-sprayed frames are re-sequenced at TX
      // (§16). Anything else is pinned — stop at the first pinned head so
      // a pinned flow's in-queue order is never split across VRIs.
      const net::FrameMeta& head = victim.data_in->front();
      const bool unpinned =
          config_.granularity == BalancerGranularity::kFrame ||
          (head.sprayed != 0 && spray_is_active(vr, head));
      if (!unpinned) break;
      if (thief.data_in->size() >= thief.data_in->capacity()) break;
      net::FrameMeta f = victim.data_in->pop();
      // Re-stamp the dispatch decision: service accounting, NUMA costing
      // and TX-steal victim lookup all key off the executing VRI.
      f.dispatch_vri = static_cast<std::int16_t>(thief.index);
      thief.data_in->push(std::move(f));
      ++moved;
    }
    if (moved == 0) continue;
    victim.server->repair_hint(victim.data_in_input);
    ++vri_steals_;
    vri_steal_frames_ += moved;
    if (obs_) {
      obs_->vri_steals.inc();
      obs_->vri_steal_frames.add(moved);
    }
    audit_steal(obs::AuditKind::kVriSteal, thief.index, victim, moved);
    return true;
  }
  // Nothing stealable right now. If a live sibling still holds backlog the
  // heads may unpin later (a spray going Active, pinned frames draining) —
  // re-poll; otherwise let the timer die so an idle sim can drain.
  arm_steal_timer(vr, thief);
  return false;
}

void LvrmSystem::arm_steal_timer(VrState& vr, VriSlot& thief) {
  if (thief.steal_timer_armed) return;
  bool backlog = false;
  for (const int idx : vr.active_order) {
    const VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
    if (&s == &thief || s.crashed || s.hung) continue;
    if (s.data_in->size() >= config_.steal_min_backlog) {
      backlog = true;
      break;
    }
  }
  if (!backlog) return;
  thief.steal_timer_armed = true;
  VrState* v = &vr;
  VriSlot* t = &thief;
  sim_.after(config_.steal_poll_period, [this, v, t] {
    t->steal_timer_armed = false;
    if (!stealing_ || !t->active || t->crashed || t->server->busy()) return;
    // Re-run the idle scan (which re-arms this timer while backlog holds).
    t->server->maybe_serve();
  });
}

void LvrmSystem::audit_steal(obs::AuditKind kind, int thief,
                             const VriSlot& victim, std::size_t burst) {
  if (!telemetry_) return;
  const Nanos now = sim_.now();
  // Rate-limited: at most one event per sim second per kind — the
  // counters stay exact, the bounded trail stays unflooded.
  Nanos& last = kind == obs::AuditKind::kTxSteal ? last_tx_steal_audit_
                                                 : last_vri_steal_audit_;
  if (last >= 0 && now - last < sec(1)) return;
  last = now;
  obs::AuditEvent e;
  e.time = e.until = now;
  e.kind = kind;
  e.vr = static_cast<std::int16_t>(victim.vr_id);
  e.a = burst;
  if (kind == obs::AuditKind::kTxSteal) {
    e.shard = static_cast<std::int16_t>(thief);
    e.vri = static_cast<std::int16_t>(victim.index);
    e.b = tx_steals_;
    e.c = tx_steal_frames_;
  } else {
    e.vri = static_cast<std::int16_t>(thief);
    e.service = static_cast<double>(victim.index);
    e.b = vri_steals_;
    e.c = vri_steal_frames_;
  }
  telemetry_->audit().record(e);
}

std::size_t LvrmSystem::mesh_ring_count() const {
  // The SPSC mesh this fabric replaces: with S dispatch shards every slot
  // needs a per-(shard, slot) ring in EACH direction (any shard may dispatch
  // to any slot; any slot's egress is drained by its producer shard — §11's
  // per-shard TX drains) plus its two control rings, and each shard has its
  // RX ring. rings = Σ_slots (2S + 2) + S.
  const std::size_t S = shards_.size();
  std::size_t slots = 0;
  for (const auto& vr : vrs_) slots += vr->slots.size();
  return slots * (2 * S + 2) + S;
}

std::size_t LvrmSystem::fabric_ring_count() const {
  // The fabric: one MPMC ingress link per slot (all shards produce into
  // it), two control rings per slot, one MPMC TX link per shard (all of the
  // shard's homed slots produce into it) plus the shard's RX ring.
  const std::size_t S = shards_.size();
  std::size_t slots = 0;
  for (const auto& vr : vrs_) slots += vr->slots.size();
  return slots * 3 + 2 * S;
}

std::size_t LvrmSystem::mesh_ring_bytes() const {
  // Mesh data rings carry full FrameMeta records, control rings are sized
  // like the mesh arena sizes them today (data capacity); RX rings are
  // identical under both topologies and excluded from both sides.
  const std::size_t S = shards_.size();
  std::size_t slots = 0;
  for (const auto& vr : vrs_) slots += vr->slots.size();
  const std::size_t data = config_.data_queue_capacity * sizeof(net::FrameMeta);
  return slots * (2 * S * data + 2 * data);
}

std::size_t LvrmSystem::fabric_ring_bytes() const {
  // Mirrors what the fabric arena actually reserves: per slot one ingress
  // link + two control rings at the control capacity; per shard one TX link.
  const std::size_t S = shards_.size();
  std::size_t slots = 0;
  for (const auto& vr : vrs_) slots += vr->slots.size();
  const std::size_t link = config_.data_queue_capacity * sizeof(net::FrameMeta);
  const std::size_t ctrl =
      config_.control_queue_capacity * sizeof(net::FrameMeta);
  return slots * (link + 2 * ctrl) + S * link;
}

std::size_t LvrmSystem::spray_active_flows() const {
  std::size_t n = 0;
  for (const auto& vr : vrs_) n += vr->sprays.size();
  return n;
}

std::size_t LvrmSystem::seq_held_frames() const {
  std::size_t n = 0;
  for (const auto& vr : vrs_)
    for (const auto& [id, so] : vr->seq_out) n += so.live;  // frames, not tombstones
  return n;
}

std::uint64_t LvrmSystem::vr_policy_drops(int vr) const {
  std::uint64_t total = 0;
  for (const auto& slot : vrs_.at(static_cast<std::size_t>(vr))->slots)
    total += slot->policy_drops;
  return total;
}

// --- core allocation --------------------------------------------------------------------

void LvrmSystem::inject_vri_crash(int vr_id, int vri) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  if (!slot.active) return;
  slot.crashed = true;
  slot.server->stop();  // the process is gone; its queues go stale
}

void LvrmSystem::inject_vri_hang(int vr_id, int vri) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  if (!slot.active || slot.crashed) return;
  slot.hung = true;
  slot.server->stop();  // alive but frozen; queues keep filling
}

void LvrmSystem::clear_vri_hang(int vr_id, int vri) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  // If the health layer already quarantined and respawned the slot, the
  // stall is over anyway and there is nothing to resume.
  if (!slot.active || !slot.hung) return;
  slot.hung = false;
  slot.server->start();
}

void LvrmSystem::inject_vri_slowdown(int vr_id, int vri, double multiplier) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  slot.degrade = multiplier > 0.0 ? multiplier : 1.0;
}

void LvrmSystem::inject_control_loss(int vr_id, int vri,
                                     double drop_probability) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  slot.ctrl_loss_prob = drop_probability;
}

void LvrmSystem::inject_overload_burst(int vr_id, double fps, Nanos duration) {
  if (fps <= 0.0 || duration <= 0) return;
  const Nanos gap = std::max<Nanos>(1, static_cast<Nanos>(1e9 / fps));
  burst_step(vr_id, gap, sim_.now() + duration);
}

void LvrmSystem::burst_step(int vr_id, Nanos gap, Nanos until) {
  if (sim_.now() > until) return;
  const VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  const net::Prefix& p = vr.cfg.subnets.front();
  ++burst_seq_;
  net::FrameMeta f;
  // High id bit-space keeps burst frames distinguishable from a workload
  // generator's ids in traces without any coordination.
  f.id = 0x4000000000000000ull + burst_seq_;
  f.kind = net::FrameKind::kUdp;
  f.protocol = 17;
  f.wire_bytes = 84;
  // 64 synthetic flows inside the VR's own first subnet: they classify to
  // the target VR, route under its own prefix, and compete with real
  // traffic for the same rings and queues the ladder protects.
  f.src_ip = p.network + 2 + static_cast<net::Ipv4Addr>(burst_seq_ % 64);
  f.dst_ip = p.network + 1;
  f.src_port = static_cast<std::uint16_t>(40000 + burst_seq_ % 64);
  f.dst_port = 9;
  f.created_at = sim_.now();
  ingress(std::move(f));  // its drops are counted like any other ingress
  sim_.after(gap, [this, vr_id, gap, until] { burst_step(vr_id, gap, until); });
}

bool LvrmSystem::decommission_vri(int vr_id, int vri) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  if (!slot.active || slot.crashed || slot.draining) return false;
  drain_slot(vr, slot, DrainCause::kDecommission);
  return true;
}

void LvrmSystem::drain_slot(VrState& vr, VriSlot& slot, DrainCause cause,
                            std::function<void(const DrainEvent&)> done) {
  if (slot.draining) return;  // a quiesce is already in flight
  slot.draining = true;
  // Stop cleanly: the in-service frame (if any) completes and drains out
  // through data_out as usual; nothing new is popped afterwards. Until it
  // has, the slot stays active and pinned so same-flow arrivals keep
  // queueing FIFO behind the backlog — migrating the backlog while a frame
  // is still in service would let its redispatched successors overtake it
  // through a shorter sibling queue. Slot pointers are heap-stable
  // (vector<unique_ptr>), so the deferred references stay valid.
  slot.server->quiesce([this, &vr, &slot, cause, done = std::move(done)] {
    finish_drain(vr, slot, cause, done);
  });
}

void LvrmSystem::finish_drain(
    VrState& vr, VriSlot& slot, DrainCause cause,
    const std::function<void(const DrainEvent&)>& done) {
  // Aborted while quiescing (a crash + reap can beat the in-service
  // completion): the crash path already disposed of the backlog and pins.
  if (!slot.draining || !slot.active || slot.crashed) return;
  slot.draining = false;

  const Nanos now = sim_.now();
  DrainEvent ev;
  ev.time = now;
  ev.vr = vr.id;
  ev.vri = slot.index;
  ev.cause = cause;

  slot.active = false;
  std::erase(vr.active_order, slot.index);
  bump_pool_generation(vr);
  if (slot.migration_event != sim::kInvalidEvent) {
    sim_.cancel(slot.migration_event);
    slot.migration_event = sim::kInvalidEvent;
  }

  // Pop the backlog in FIFO order BEFORE evicting the flow pins, so the
  // redispatch below re-pins every live flow exactly once at its new home
  // and same-flow frames stay in arrival order end to end.
  std::vector<net::FrameMeta> live;
  while (!slot.data_in->empty()) live.push_back(slot.data_in->pop());
  for (auto& d : vr.dispatchers)
    ev.flows_evicted += d->on_vri_destroyed(slot.index);
  flows_migrated_ += ev.flows_evicted;

  audit_vri_change(vr, slot, /*create=*/false, /*from_recovery=*/false);
  release_core(slot.core_id);
  slot.core_id = sim::kNoCore;
  if (health_) health_->forget(vr.id, slot.index);
  // Reset-free: needs_rebuild stays false — the router keeps its applied
  // route state (broadcast_route_update also updates inactive slots), so a
  // later activation skips the fork and the route-log replay entirely.

  if (!live.empty()) {
    if (vr.active_order.empty()) {
      ev.dropped = live.size();
      vr.data_drops += live.size();
      for (const auto& f : live) note_drop(f, DropCause::kVriDestroyed);
    } else {
      ev.migrated = redispatch(vr, live);
      ev.dropped = live.size() - ev.migrated;
      redispatched_ += ev.migrated;
    }
  }
  LVRM_CLOG(kAlloc, kInfo) << "vr=" << vr.id << " vri=" << slot.index
                           << " drained (" << to_string(cause)
                           << "): migrated=" << ev.migrated
                           << " dropped=" << ev.dropped
                           << " flows_evicted=" << ev.flows_evicted;

  // Charon-style ownership handoff: each surviving sibling learns over the
  // control rings that it now owns part of the drained slot's flows; the
  // drain event records the slowest sibling's apply latency.
  const std::size_t di = drain_log_.size();
  drain_log_.push_back(ev);
  for (const int idx : vr.active_order) {
    send_control(vr.id, slot.index, idx, /*bytes=*/80, [this, di](Nanos lat) {
      drain_log_[di].handoff_latency =
          std::max(drain_log_[di].handoff_latency, lat);
    });
  }

  if (telemetry_) {
    obs::AuditEvent ae;
    ae.time = now;
    ae.until = now;
    ae.kind = obs::AuditKind::kVriDrain;
    ae.vr = static_cast<std::int16_t>(vr.id);
    ae.vri = static_cast<std::int16_t>(slot.index);
    ae.cause = static_cast<std::uint8_t>(cause);
    ae.rate = arrival_rate_estimate(vr.id);
    ae.service = measured_service_rate(vr);
    ae.a = ev.migrated;
    ae.b = ev.flows_evicted;
    ae.c = ev.dropped;
    telemetry_->audit().record(ae);
  }
  if (done) done(ev);
}

void LvrmSystem::reap_crashed() {
  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    std::vector<net::FrameMeta> stranded;
    for (auto it = vr.active_order.begin(); it != vr.active_order.end();) {
      VriSlot& slot = *vr.slots[static_cast<std::size_t>(*it)];
      if (!slot.crashed) {
        ++it;
        continue;
      }
      // §15 black box: snapshot the flight recorders before the rescue path
      // rewrites the dead incarnation's queues — the dump is the record of
      // what was in flight when the crash was noticed.
      if (tracer_)
        trace_flight_dump(obs::FlightDumpCause::kVriCrash, slot.home_shard,
                          vr.id, slot.index);
      // waitpid()-style reaping: free the core, rescue (health layer) or
      // discard the dead process' queued frames, drop its flow pins.
      if (health_ && config_.health.redispatch_stranded) {
        while (!slot.data_in->empty()) stranded.push_back(slot.data_in->pop());
      } else {
        vr.data_drops += drain_and_drop(*slot.data_in,
                                        DropCause::kVriDestroyed);
      }
      discard_stale_control(slot);
      slot.active = false;
      slot.crashed = false;
      slot.draining = false;  // a crash mid-quiesce aborts the drain
      slot.needs_rebuild = true;  // a replacement is a fresh fork
      if (slot.migration_event != sim::kInvalidEvent) {
        sim_.cancel(slot.migration_event);
        slot.migration_event = sim::kInvalidEvent;
      }
      LVRM_CLOG(kHealth, kWarn) << "vr=" << vr.id << " vri=" << slot.index
                                << " reaped after crash";
      it = vr.active_order.erase(it);
      bump_pool_generation(vr);
      audit_vri_change(vr, slot, /*create=*/false, /*from_recovery=*/true);
      release_core(slot.core_id);
      slot.core_id = sim::kNoCore;
      for (auto& d : vr.dispatchers) d->on_vri_destroyed(slot.index);
      if (health_) health_->forget(vr.id, slot.index);
      ++crashes_reaped_;
    }
    // The fixed allocator promised a fixed core set: respawn replacements.
    if (allocator_->kind() == AllocatorKind::kFixed) {
      while (static_cast<int>(vr.active_order.size()) <
             std::max(1, vr.cfg.initial_vris))
        activate_vri(vr, /*from_recovery=*/true);
    }
    if (!stranded.empty()) {
      if (vr.active_order.empty()) {
        vr.data_drops += stranded.size();
        for (const auto& f : stranded) note_drop(f, DropCause::kVriDestroyed);
      } else {
        redispatched_ += redispatch(vr, stranded);
      }
    }
  }
}

void LvrmSystem::discard_stale_control(VriSlot& slot) {
  // The dead incarnation's control queues die with it (fresh segments are
  // allocated at respawn): in-flight events are lost, and their delivery
  // callbacks with them. Counted as control drops, never silent.
  while (!slot.ctrl_in->empty()) {
    control_cbs_.erase(slot.ctrl_in->pop().id);
    ++control_drops_;
  }
  while (!slot.ctrl_out->empty()) {
    control_cbs_.erase(slot.ctrl_out->pop().id);
    ++control_drops_;
  }
}

std::size_t LvrmSystem::redispatch(VrState& vr,
                                   std::vector<net::FrameMeta>& frames) {
  const Nanos now = sim_.now();
  std::vector<VriView> views;
  views.reserve(vr.active_order.size());
  for (int idx : vr.active_order) {
    VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
    views.push_back(VriView{idx, s.estimator->load_at(now), s.suspect});
  }
  std::size_t admitted = 0;
  for (net::FrameMeta& f : frames) {
    // Re-dispatch through the frame's own shard's dispatcher so flow pins
    // stay consistent within the shard that owns the flow.
    const std::size_t shard =
        f.dispatch_shard >= 0 ? static_cast<std::size_t>(f.dispatch_shard) : 0;
    const int chosen = vr.dispatchers[shard]->dispatch(f, views, now);
    f.dispatch_vri = static_cast<std::int16_t>(chosen);
    VriSlot& target = *vr.slots[static_cast<std::size_t>(chosen)];
    if (push_or_note(*target.data_in, f, DropCause::kQueueFull)) {
      target.estimator->on_dispatch(target.data_in->size(), now);
      ++admitted;
    } else {
      ++vr.data_drops;  // survivors saturated: tail-drop the overflow
    }
  }
  lvrm_core().charge(
      static_cast<Nanos>(frames.size()) * costs::kRedispatchPerFrame,
      CostCategory::kSystem);
  return admitted;
}

void LvrmSystem::maybe_allocate() {
  const Nanos now = sim_.now();
  if (now - last_alloc_pass_ < config_.realloc_period) return;
  last_alloc_pass_ = now;
  reap_crashed();
  // §16: idle-expire sprayed flows and drained sequencers (1 s cadence).
  if (replication_) spray_gc(now);
  // Audit: per-VR balancer summaries and shed-episode closure ride the
  // allocation pass (the decision cadence of the whole system).
  if (telemetry_) audit_balance_and_shed(now);
  if (allocator_->kind() == AllocatorKind::kFixed) return;

  const Nanos iterate =
      costs::kAllocIterateBase +
      costs::kAllocIteratePerVri * total_active_vris();

  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    const VrAllocView view = alloc_view(vr);
    const AllocDecision decision = allocator_->decide(view);

    const double jitter =
        1.0 + costs::kAllocJitter * (rng_.uniform01() * 2.0 - 1.0);

    if (decision == AllocDecision::kCreate &&
        view.active_vris < config_.max_vris_per_vr) {
      LVRM_CLOG(kAlloc, kInfo)
          << "vr=" << vr.id << " create: arrival=" << view.arrival_rate_fps
          << " fps >= capacity=" << allocator_->capacity_fps(view)
          << " fps (" << view.active_vris << " vris)";
      activate_vri(vr);
      const Nanos reaction = static_cast<Nanos>(
          static_cast<double>(iterate + costs::kAllocateBase +
                              costs::kAllocatePerVri * total_active_vris()) *
          jitter);
      lvrm_core().charge(reaction, CostCategory::kSystem);  // vfork + setup
      alloc_log_.push_back(AllocationEvent{
          now, vr.id, true, reaction,
          static_cast<int>(vr.active_order.size()), total_active_vris()});
      return;  // Fig 3.2: one action per pass
    }
    if (decision == AllocDecision::kDestroy && view.active_vris > 1) {
      LVRM_CLOG(kAlloc, kInfo)
          << "vr=" << vr.id << " destroy: arrival=" << view.arrival_rate_fps
          << " fps under capacity=" << allocator_->capacity_fps(view)
          << " fps (" << view.active_vris << " vris)";
      deactivate_vri(vr);
      const Nanos reaction = static_cast<Nanos>(
          static_cast<double>(iterate + costs::kDeallocateBase +
                              costs::kDeallocatePerVri * total_active_vris()) *
          jitter);
      lvrm_core().charge(reaction, CostCategory::kSystem);  // kill + teardown
      alloc_log_.push_back(AllocationEvent{
          now, vr.id, false, reaction,
          static_cast<int>(vr.active_order.size()), total_active_vris()});
      return;
    }
  }
}

// --- health monitoring & recovery -------------------------------------------------

void LvrmSystem::maybe_health_probe() {
  if (!health_) return;
  const Nanos now = sim_.now();
  if (now - last_health_probe_ < config_.health.probe_period) return;
  last_health_probe_ = now;
  // The probe itself: LVRM reads each VRI's progress counter and queue
  // depth out of the shared segments — cheap, hence the short period.
  lvrm_core().charge(costs::kHealthProbeBase +
                         costs::kHealthProbePerVri * total_active_vris(),
                     CostCategory::kSystem);

  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    if (vr.active_order.empty()) continue;
    std::vector<VriProbe> probes;
    probes.reserve(vr.active_order.size());
    for (int idx : vr.active_order) {
      VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
      probes.push_back(VriProbe{idx, !s.crashed, s.server->served(),
                                s.data_in->size(), vri_departure_rate(s)});
    }
    const auto verdicts = health_->probe(vr.id, probes, now);
    for (const HealthVerdict& v : verdicts)
      recover_slot(vr, *vr.slots[static_cast<std::size_t>(v.vri)], v.state,
                   v.stalled_for);
    // Refresh the grace-window marks the dispatcher steers around. Only an
    // actual flip invalidates the cached healthy pool.
    bool suspicion_changed = false;
    for (int idx : vr.active_order) {
      VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
      const bool suspect = health_->is_suspect(vr.id, idx);
      if (suspect != s.suspect) {
        s.suspect = suspect;
        suspicion_changed = true;
      }
    }
    if (suspicion_changed) bump_pool_generation(vr);
  }
}

void LvrmSystem::recover_slot(VrState& vr, VriSlot& slot, VriHealth reason,
                              Nanos stalled_for) {
  if (slot.draining) return;  // a reset-free drain is already quiescing it
  const Nanos now = sim_.now();
  RecoveryEvent ev;
  ev.time = now;
  ev.vr = vr.id;
  ev.vri = slot.index;
  ev.reason = reason;
  ev.stalled_for = stalled_for;
  ev.stranded = slot.data_in->size();

  if (reason == VriHealth::kFailSlow && config_.overload_control.enabled &&
      config_.overload_control.drain_on_destroy &&
      vr.active_order.size() > 1) {
    // Reset-free quarantine (DESIGN.md §13): a fail-slow process is alive —
    // it can be stopped cleanly and its backlog migrated over the normal
    // dispatch path, so nothing is lost and the router state stays warm.
    // The injected degrade stays with the process (it was never killed);
    // only the suspicion marks are cleared so a later reactivation is not
    // penalized by stale dispatch steering.
    slot.hung = false;
    slot.suspect = false;
    // §15: a fail-slow quarantine is an incident even when it drains
    // reset-free — dump before the migration rewrites the queues.
    if (tracer_)
      trace_flight_dump(obs::FlightDumpCause::kQuarantine, slot.home_shard,
                        vr.id, slot.index);
    // The quiesce may outlive this call (the slow in-service frame has to
    // egress first), so the recovery record lands when the drain completes.
    drain_slot(vr, slot, DrainCause::kFailSlow,
               [this, &vr, ev, stalled_for](const DrainEvent& dev) mutable {
                 ev.redispatched = dev.migrated;
                 recovery_log_.push_back(ev);
                 if (telemetry_) {
                   obs::AuditEvent ae;
                   ae.time = ev.time;
                   ae.until = dev.time;
                   ae.kind = obs::AuditKind::kHealthFailSlow;
                   ae.vr = static_cast<std::int16_t>(ev.vr);
                   ae.vri = static_cast<std::int16_t>(ev.vri);
                   ae.rate = static_cast<double>(stalled_for);
                   ae.threshold =
                       static_cast<double>(config_.health.heartbeat_timeout);
                   ae.service = measured_service_rate(vr);
                   ae.a = ev.stranded;
                   ae.b = ev.redispatched;
                   ae.c = 0;  // reset-free: no respawn, stays warm
                   telemetry_->audit().record(ae);
                 }
               });
    return;
  }

  // §15 black box: the health monitor quarantining a VRI is an incident —
  // the dump captures what the pipeline was doing in the milliseconds
  // before the verdict, including this VRI's in-flight frames.
  if (tracer_)
    trace_flight_dump(obs::FlightDumpCause::kQuarantine, slot.home_shard,
                      vr.id, slot.index);

  // Quarantine: kill the incarnation (hung/slow processes get SIGKILL; a
  // dead one needs no kill) and take it out of the dispatch set.
  slot.server->stop();
  slot.crashed = false;
  slot.hung = false;
  slot.degrade = 1.0;  // the sickness dies with the process
  slot.ctrl_loss_prob = 0.0;
  slot.suspect = false;
  slot.needs_rebuild = true;

  // Rescue the frames stranded in the dead incarnation's incoming queue
  // before its segments are torn down.
  std::vector<net::FrameMeta> stranded;
  if (config_.health.redispatch_stranded) {
    while (!slot.data_in->empty()) stranded.push_back(slot.data_in->pop());
  } else {
    vr.data_drops += drain_and_drop(*slot.data_in, DropCause::kVriDestroyed);
  }
  discard_stale_control(slot);

  slot.active = false;
  std::erase(vr.active_order, slot.index);
  bump_pool_generation(vr);
  if (slot.migration_event != sim::kInvalidEvent) {
    sim_.cancel(slot.migration_event);
    slot.migration_event = sim::kInvalidEvent;
  }
  LVRM_CLOG(kHealth, kWarn)
      << "vr=" << vr.id << " vri=" << slot.index << " quarantined ("
      << to_string(reason) << "), stalled_for=" << stalled_for << " ns, "
      << ev.stranded << " stranded";
  audit_vri_change(vr, slot, /*create=*/false, /*from_recovery=*/true);
  release_core(slot.core_id);
  slot.core_id = sim::kNoCore;
  for (auto& d : vr.dispatchers) d->on_vri_destroyed(slot.index);
  health_->forget(vr.id, slot.index);

  // Respawn policy: the fixed allocator promised a fixed set; the dynamic
  // allocators respawn when the arrival rate still demands the lost
  // capacity (else the Fig 3.2 pass regrows on its own schedule). A VR is
  // never left with zero VRIs.
  bool respawn = vr.active_order.empty();
  if (allocator_->kind() == AllocatorKind::kFixed) {
    respawn = respawn || static_cast<int>(vr.active_order.size()) <
                             std::max(1, vr.cfg.initial_vris);
  } else {
    const VrAllocView view = alloc_view(vr);
    respawn =
        respawn || view.arrival_rate_fps > allocator_->capacity_fps(view);
  }
  if (respawn) {
    activate_slot(vr, slot, /*from_recovery=*/true);
    const Nanos reaction =
        costs::kAllocateBase + costs::kAllocatePerVri * total_active_vris() +
        static_cast<Nanos>(vr.route_log.size()) * costs::kRouteReplayPerUpdate;
    lvrm_core().charge(reaction, CostCategory::kSystem);  // vfork + replay
    ev.respawned = true;
  }

  // Re-dispatch rescued frames across the (possibly regrown) active set.
  if (!stranded.empty()) {
    if (vr.active_order.empty()) {
      vr.data_drops += stranded.size();
    } else {
      ev.redispatched = redispatch(vr, stranded);
      redispatched_ += ev.redispatched;
    }
  }
  recovery_log_.push_back(ev);

  if (telemetry_) {
    obs::AuditEvent ae;
    ae.time = now;
    ae.until = now;
    switch (reason) {
      case VriHealth::kDead: ae.kind = obs::AuditKind::kHealthDead; break;
      case VriHealth::kHung: ae.kind = obs::AuditKind::kHealthHung; break;
      default: ae.kind = obs::AuditKind::kHealthFailSlow; break;
    }
    ae.vr = static_cast<std::int16_t>(vr.id);
    ae.vri = static_cast<std::int16_t>(slot.index);
    ae.rate = static_cast<double>(stalled_for);
    ae.threshold = static_cast<double>(config_.health.heartbeat_timeout);
    ae.service = measured_service_rate(vr);
    ae.a = ev.stranded;
    ae.b = ev.redispatched;
    ae.c = ev.respawned ? 1 : 0;
    telemetry_->audit().record(ae);
  }
}

void LvrmSystem::activate_vri(VrState& vr, bool from_recovery) {
  // First inactive slot.
  VriSlot* slot = nullptr;
  for (auto& s : vr.slots) {
    if (!s->active) {
      slot = s.get();
      break;
    }
  }
  if (!slot) return;  // every slot already active
  activate_slot(vr, *slot, from_recovery);
}

void LvrmSystem::activate_slot(VrState& vr, VriSlot& slot,
                               bool from_recovery) {
  // A slot whose previous incarnation died is a *fresh fork*: it starts
  // from the VR's static configuration, so the dynamic route updates
  // applied since start are replayed into it before it serves traffic.
  if (slot.needs_rebuild) rebuild_router(vr, slot);
  // Anchor placement at the slot's home shard: its LVRM-side queue ends
  // live there, so that is the socket worth staying close to.
  const NumaPick pick =
      pick_core(shards_[static_cast<std::size_t>(slot.home_shard)].core_id);
  const sim::CoreId core_id = pick.core;
  slot.core_id = core_id;
  slot.numa_tier = pick.tier;
  slot.server->migrate(core(core_id), 0);
  slot.estimator->reset();
  slot.service_time.reset();
  slot.active = true;
  slot.activated_at = sim_.now();
  vr.active_order.push_back(slot.index);
  bump_pool_generation(vr);
  slot.server->start();
  LVRM_CLOG(kAlloc, kDebug) << "vr=" << vr.id << " vri=" << slot.index
                            << " activated on core=" << core_id
                            << (from_recovery ? " (respawn)" : "");
  audit_vri_change(vr, slot, /*create=*/true, from_recovery);
  if (config_.affinity == AffinityPolicy::kDefault) schedule_migration(slot);
}

void LvrmSystem::rebuild_router(VrState& vr, VriSlot& slot) {
  // Same factory seam as add_vr: a respawn rebuilds exactly what the slot
  // started with, stateful wrapper included (its flow state starts empty —
  // a fresh fork remembers nothing; §16 deltas repopulate it as siblings
  // keep replicating).
  slot.router = make_configured_vr(vr.cfg, vr.cfg.route_map);
  // Routing-state resync (Sec 2.1): replay the dynamic updates the previous
  // incarnation had applied, so the replacement matches its siblings.
  for (const route::RouteUpdate& u : vr.route_log)
    slot.router->apply_route_update(u);
  // Fresh shared-memory segments for the new process' queues (Sec 3.8).
  for (int q = 0; q < 4; ++q) {
    arena_.destroy(slot.shm_ids[q]);
    slot.shm_ids[q] =
        arena_.create(config_.data_queue_capacity * sizeof(net::FrameMeta));
  }
  slot.needs_rebuild = false;
}

void LvrmSystem::deactivate_vri(VrState& vr) {
  if (vr.active_order.empty()) return;
  const int idx = vr.active_order.back();
  VriSlot& slot = *vr.slots[static_cast<std::size_t>(idx)];
  if (slot.draining) return;  // quiescing already; retry next pass
  if (config_.overload_control.enabled &&
      config_.overload_control.drain_on_destroy &&
      vr.active_order.size() > 1) {
    // Reset-free destroy (DESIGN.md §13): the allocator's scale-down stops
    // the VRI but migrates its backlog and flow pins to the survivors —
    // Fig 3.2's semantics without the frame loss.
    drain_slot(vr, slot, DrainCause::kAllocatorDestroy);
    return;
  }
  vr.active_order.pop_back();
  slot.active = false;
  bump_pool_generation(vr);
  slot.server->stop();
  // Fig 3.2 "destroy": queues are destroyed, so queued frames are lost.
  vr.data_drops += drain_and_drop(*slot.data_in, DropCause::kVriDestroyed);
  if (slot.migration_event != sim::kInvalidEvent) {
    sim_.cancel(slot.migration_event);
    slot.migration_event = sim::kInvalidEvent;
  }
  LVRM_CLOG(kAlloc, kDebug) << "vr=" << vr.id << " vri=" << idx
                            << " deactivated, core=" << slot.core_id
                            << " released";
  audit_vri_change(vr, slot, /*create=*/false, /*from_recovery=*/false);
  release_core(slot.core_id);
  slot.core_id = sim::kNoCore;
  for (auto& d : vr.dispatchers) d->on_vri_destroyed(idx);
}

NumaPick LvrmSystem::pick_core(sim::CoreId anchor) {
  auto first_free = [this](const std::vector<sim::CoreId>& candidates) {
    for (sim::CoreId c : candidates)
      if (!core_used_[static_cast<std::size_t>(c)]) return c;
    return sim::kNoCore;
  };

  sim::CoreId chosen = sim::kNoCore;
  switch (config_.affinity) {
    case AffinityPolicy::kSibling:
      // Two-level preference (DESIGN.md §11): same socket as the anchoring
      // shard, then same machine, then remote. On a single machine this is
      // exactly the paper's sibling-then-non-sibling order.
      chosen = pick_numa_core(topo_, core_used_, anchor).core;
      break;
    case AffinityPolicy::kNonSibling:
      chosen = first_free(topo_.non_siblings_of(anchor));
      if (chosen == sim::kNoCore)
        chosen = first_free(topo_.siblings_of(anchor));
      break;
    case AffinityPolicy::kSame:
      return NumaPick{anchor, NumaTier::kSameSocket};
    case AffinityPolicy::kDefault: {
      std::vector<sim::CoreId> free_cores;
      for (sim::CoreId c = 0; c < topo_.total_cores(); ++c)
        if (!core_used_[static_cast<std::size_t>(c)]) free_cores.push_back(c);
      if (!free_cores.empty())
        chosen = free_cores[rng_.uniform(free_cores.size())];
      break;
    }
  }
  if (chosen == sim::kNoCore) {
    // Over-commit: the VRI lands on its home shard's core and time-shares
    // it (the contention Exp 2b observes past the available core count).
    return NumaPick{anchor, NumaTier::kNone};
  }
  core_used_[static_cast<std::size_t>(chosen)] = true;
  return NumaPick{chosen, numa_tier_of(topo_, anchor, chosen)};
}

sim::CoreId LvrmSystem::pick_shard_core(int shard) {
  // Spread shards round-robin across sockets, first free core of the
  // preferred socket; any free core otherwise. A plane wider than the
  // machine time-shares the LVRM core (documented over-commit).
  const int preferred =
      (topo_.socket_of(config_.lvrm_core) + shard) % topo_.sockets();
  sim::CoreId fallback = sim::kNoCore;
  for (sim::CoreId c = 0; c < topo_.total_cores(); ++c) {
    if (core_used_[static_cast<std::size_t>(c)]) continue;
    if (topo_.socket_of(c) == preferred) {
      core_used_[static_cast<std::size_t>(c)] = true;
      return c;
    }
    if (fallback == sim::kNoCore) fallback = c;
  }
  if (fallback != sim::kNoCore) {
    core_used_[static_cast<std::size_t>(fallback)] = true;
    return fallback;
  }
  return config_.lvrm_core;
}

void LvrmSystem::release_core(sim::CoreId id) {
  if (id == sim::kNoCore) return;
  for (const auto& sh : shards_)
    if (id == sh.core_id) return;  // dispatcher cores are never released
  core_used_[static_cast<std::size_t>(id)] = false;
}

void LvrmSystem::schedule_migration(VriSlot& slot) {
  const auto gap = static_cast<Nanos>(rng_.exponential(
      static_cast<double>(costs::kMigrationMeanPeriod)));
  slot.migration_event = sim_.after(std::max<Nanos>(gap, usec(50)), [this,
                                                                     &slot] {
    slot.migration_event = sim::kInvalidEvent;
    if (!slot.active) return;
    // The kernel rebalances the VRI onto some other free core when one
    // exists; either way caches are cold afterwards.
    std::vector<sim::CoreId> free_cores;
    for (sim::CoreId c = 0; c < topo_.total_cores(); ++c)
      if (!core_used_[static_cast<std::size_t>(c)] && c != slot.core_id)
        free_cores.push_back(c);
    if (!free_cores.empty()) {
      const sim::CoreId next = free_cores[rng_.uniform(free_cores.size())];
      release_core(slot.core_id);
      core_used_[static_cast<std::size_t>(next)] = true;
      slot.server->migrate(core(next), costs::kMigrationPenalty);
      slot.core_id = next;
    } else {
      core(slot.core_id).charge(costs::kMigrationPenalty,
                                CostCategory::kSystem);
    }
    slot.cold_until = sim_.now() + costs::kColdCacheWindow;
    schedule_migration(slot);
  });
}

// --- helpers / accessors ------------------------------------------------------------------

bool LvrmSystem::cross_socket(sim::CoreId a, sim::CoreId b) const {
  return a != sim::kNoCore && b != sim::kNoCore && !topo_.siblings(a, b);
}

int LvrmSystem::total_active_vris() const {
  int total = 0;
  for (const auto& vr : vrs_) total += static_cast<int>(vr->active_order.size());
  return total;
}

double LvrmSystem::measured_service_rate(const VrState& vr) const {
  double sum = 0.0;
  int n = 0;
  for (int idx : vr.active_order) {
    const VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
    if (s.service_time.valid() && s.service_time.value() > 0.0) {
      sum += 1e9 / s.service_time.value();
      ++n;
    }
  }
  return n ? sum / n : 0.0;
}

double LvrmSystem::vri_departure_rate(const VriSlot& slot) const {
  if (!slot.service_time.valid() || slot.service_time.value() <= 0.0)
    return 0.0;
  return 1e9 / slot.service_time.value();
}

VrAllocView LvrmSystem::alloc_view(const VrState& vr) const {
  VrAllocView view;
  view.active_vris = static_cast<int>(vr.active_order.size());
  view.arrival_rate_fps = arrival_rate_estimate(vr.id);
  view.service_rate_per_vri = measured_service_rate(vr);
  return view;
}

bool LvrmSystem::any_free_core() const {
  for (std::size_t c = 0; c < core_used_.size(); ++c)
    if (!core_used_[c] && static_cast<sim::CoreId>(c) != config_.lvrm_core)
      return true;
  return false;
}

int LvrmSystem::active_vris(int vr) const {
  return static_cast<int>(
      vrs_.at(static_cast<std::size_t>(vr))->active_order.size());
}

std::vector<sim::CoreId> LvrmSystem::vri_cores(int vr) const {
  std::vector<sim::CoreId> out;
  const VrState& v = *vrs_.at(static_cast<std::size_t>(vr));
  for (int idx : v.active_order)
    out.push_back(v.slots[static_cast<std::size_t>(idx)]->core_id);
  return out;
}

double LvrmSystem::arrival_rate_estimate(int vr) const {
  const VrState& v = *vrs_.at(static_cast<std::size_t>(vr));
  if (!v.arrival_gap.valid() || v.arrival_gap.value() <= 0.0) return 0.0;
  return 1e9 / v.arrival_gap.value();
}

double LvrmSystem::service_rate_estimate(int vr) const {
  return measured_service_rate(*vrs_.at(static_cast<std::size_t>(vr)));
}

std::uint64_t LvrmSystem::vr_forwarded(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->forwarded;
}

std::uint64_t LvrmSystem::vri_forwarded(int vr, int vri) const {
  return vrs_.at(static_cast<std::size_t>(vr))
      ->slots.at(static_cast<std::size_t>(vri))
      ->forwarded;
}

std::uint64_t LvrmSystem::data_queue_drops() const {
  std::uint64_t total = 0;
  for (const auto& vr : vrs_) total += vr->data_drops;
  return total;
}

std::uint64_t LvrmSystem::no_route_drops() const {
  std::uint64_t total = 0;
  for (const auto& vr : vrs_)
    for (const auto& slot : vr->slots) total += slot->no_route;
  return total;
}

std::uint64_t LvrmSystem::shed_drops() const {
  std::uint64_t total = 0;
  for (const auto& vr : vrs_) total += vr->shed_drops;
  return total;
}

std::uint64_t LvrmSystem::vr_shed_drops(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->shed_drops;
}

OverloadLevel LvrmSystem::overload_level(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->level;
}

double LvrmSystem::sample_rate(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->sample_rate;
}

std::uint64_t LvrmSystem::vr_sampled_shed(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->sampled_shed;
}

std::uint64_t LvrmSystem::sampled_shed_drops() const {
  std::uint64_t total = 0;
  for (const auto& vr : vrs_) total += vr->sampled_shed;
  return total;
}

std::uint64_t LvrmSystem::vr_admission_rejected(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->admission_rejected;
}

std::uint64_t LvrmSystem::admission_rejected_drops() const {
  std::uint64_t total = 0;
  for (const auto& vr : vrs_) total += vr->admission_rejected;
  return total;
}

std::uint64_t LvrmSystem::vr_frames_in(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->frames_in;
}

double LvrmSystem::vr_offered_estimate(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->offered_estimate;
}

double LvrmSystem::capacity_estimate(int vr) const {
  return allocator_->capacity_fps(
      alloc_view(*vrs_.at(static_cast<std::size_t>(vr))));
}

const Dispatcher& LvrmSystem::dispatcher(int vr) const {
  return *vrs_.at(static_cast<std::size_t>(vr))->dispatchers.front();
}

const Dispatcher& LvrmSystem::dispatcher(int vr, int shard) const {
  return *vrs_.at(static_cast<std::size_t>(vr))
              ->dispatchers.at(static_cast<std::size_t>(shard));
}

void LvrmSystem::reset_accounting() {
  for (auto& c : cores_) c->reset_accounting();
}

Nanos LvrmSystem::vr_pipeline_latency(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->pipeline_latency;
}

// --- telemetry (DESIGN.md §10) ------------------------------------------------------

void LvrmSystem::audit_vri_change(VrState& vr, VriSlot& slot, bool create,
                                  bool from_recovery) {
  if (!telemetry_) return;
  // The cause fields capture the allocator's picture at decision time, so
  // the trail answers "why" without re-running the estimator. The threshold
  // is the capacity the rate was compared against, i.e. at the PRE-change
  // VRI count (alloc_view already reflects the change).
  VrAllocView view = alloc_view(vr);
  obs::AuditEvent e;
  e.time = sim_.now();
  e.until = e.time;
  e.kind = create ? obs::AuditKind::kVriCreate : obs::AuditKind::kVriDestroy;
  e.vr = static_cast<std::int16_t>(vr.id);
  e.vri = static_cast<std::int16_t>(slot.index);
  e.shard = static_cast<std::int16_t>(slot.home_shard);
  e.numa_tier = static_cast<std::int8_t>(slot.numa_tier);
  e.rate = view.arrival_rate_fps;
  view.active_vris += create ? -1 : 1;
  e.threshold = allocator_->capacity_fps(view);
  e.service = view.service_rate_per_vri;
  e.a = vr.active_order.size();  // VRI count after the change
  e.b = slot.core_id == sim::kNoCore
            ? ~std::uint64_t{0}
            : static_cast<std::uint64_t>(slot.core_id);
  e.c = from_recovery ? 1 : 0;
  telemetry_->audit().record(e);
}

obs::PathSpan LvrmSystem::span_of(const net::FrameMeta& f,
                                  std::uint8_t terminal) const {
  obs::PathSpan s;
  s.frame_id = f.id;
  s.vr = f.dispatch_vr;
  s.vri = f.dispatch_vri;
  s.shard = f.dispatch_shard;
  s.gw_in = f.gw_in_at;
  s.rx_serve = f.obs_rx_at;
  s.enq = f.obs_enq_at;
  s.svc_start = f.obs_svc_at;
  s.svc_end = f.obs_done_at;
  s.gw_out = f.gw_out_at;
  s.terminal = terminal;
  return s;
}

void LvrmSystem::trace_drop(const net::FrameMeta& f, DropCause cause) {
  // Every drop/shed/quarantine exit funnels through note_drop, so this one
  // hook gives the flight recorder (and sampled spans) the terminal hop of
  // every frame that never reached TX.
  const Nanos t = sim_.now();
  tracer_->record(f.dispatch_shard, obs::TraceHop::kDrop, f.id, f.dispatch_vr,
                  f.dispatch_vri, t, static_cast<std::uint32_t>(cause),
                  f.obs_sampled != 0);
  if (f.obs_sampled)
    tracer_->add_span(
        span_of(f, static_cast<std::uint8_t>(static_cast<int>(cause) + 1)));
}

void LvrmSystem::trace_flight_dump(obs::FlightDumpCause cause, int shard,
                                   int vr, int vri) {
  const std::uint64_t seq = tracer_->dump(sim_.now(), cause, shard, vr, vri);
  if (!telemetry_) return;
  obs::AuditEvent e;
  e.time = sim_.now();
  e.until = e.time;
  e.kind = obs::AuditKind::kFlightDump;
  e.vr = static_cast<std::int16_t>(vr);
  e.vri = static_cast<std::int16_t>(vri);
  e.shard = static_cast<std::int16_t>(shard);
  e.cause = static_cast<std::uint8_t>(cause);
  e.a = tracer_->last_dump_records();
  e.b = seq;
  e.c = tracer_->records_total();
  telemetry_->audit().record(e);
}

void LvrmSystem::close_shed_episode(VrState& vr, Nanos now) {
  if (!vr.shed_open) return;
  vr.shed_open = false;
  obs::AuditEvent e;
  e.time = vr.shed_start;
  e.until = now;
  e.kind = obs::AuditKind::kShedEpisode;
  e.vr = static_cast<std::int16_t>(vr.id);
  e.rate = vr.shed_rate;
  e.threshold = config_.shed_watermark;
  e.service = vr.shed_service;
  e.a = vr.shed_drops - vr.shed_at_open;
  telemetry_->audit().record(e);
  LVRM_CLOG(kShed, kInfo) << "vr=" << vr.id << " shedding closed: " << e.a
                          << " frames shed over " << (now - vr.shed_start)
                          << " ns";
}

void LvrmSystem::audit_balance_and_shed(Nanos now) {
  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    // A pass with no new shed frames ends the episode.
    if (vr.shed_open && vr.shed_drops == vr.shed_last_seen)
      close_shed_episode(vr, now);
    vr.shed_last_seen = vr.shed_drops;

    const DispatchStats stats = vr.dispatch_stats();
    const std::uint64_t decisions = stats.decisions;
    const std::uint64_t hits = stats.flow_hits;
    if (decisions != vr.summary_decisions) {
      obs::AuditEvent e;
      e.time = now;
      e.until = now;
      e.kind = obs::AuditKind::kBalanceSummary;
      e.vr = static_cast<std::int16_t>(vr.id);
      e.rate = arrival_rate_estimate(vr.id);
      e.service = measured_service_rate(vr);
      e.a = decisions - vr.summary_decisions;
      e.b = hits - vr.summary_hits;
      e.c = vr.active_order.size();
      telemetry_->audit().record(e);
      vr.summary_decisions = decisions;
      vr.summary_hits = hits;
    }
  }
}

void LvrmSystem::maybe_snapshot() {
  const Nanos period = config_.telemetry.snapshot_period;
  if (period <= 0) return;
  const Nanos now = sim_.now();
  if (now - obs_->last_snapshot < period) return;
  obs_->last_snapshot = now;
  snapshot_telemetry();
}

void LvrmSystem::snapshot_telemetry() {
  if (!telemetry_) return;
  publish_gauges();
  telemetry_->take_snapshot(sim_.now());
}

void LvrmSystem::publish_gauges() {
  // Everything here reads accounting the system keeps anyway — queue depth
  // fields, dispatcher counters, poll-server counters — so the hot path
  // pays nothing for these series.
  auto& m = telemetry_->metrics();
  std::uint64_t ring_depth = 0, ring_drops = 0;
  std::uint64_t serve_events = 0, batches = 0, batch_items = 0;
  for (const auto& sh : shards_) {
    ring_depth += sh.rx_ring->size();
    ring_drops += sh.rx_ring->drops();
    serve_events += sh.server->serve_events();
    batches += sh.server->batches();
    batch_items += sh.server->batch_items();
  }
  m.gauge("lvrm_rx_ring_depth").set(static_cast<double>(ring_depth));
  m.gauge("lvrm_rx_ring_drops").set(static_cast<double>(ring_drops));
  m.gauge("lvrm_poll_serve_events").set(static_cast<double>(serve_events));
  m.gauge("lvrm_poll_batches").set(static_cast<double>(batches));
  m.gauge("lvrm_poll_batch_items").set(static_cast<double>(batch_items));
  if (shards_.size() > 1) {
    // Per-shard breakdowns exist only on a sharded plane so single-shard
    // exports match the unsharded build byte for byte.
    for (const auto& sh : shards_) {
      const std::string l = "shard=\"" + std::to_string(sh.id) + "\"";
      m.gauge("lvrm_rx_ring_depth", l)
          .set(static_cast<double>(sh.rx_ring->size()));
      m.gauge("lvrm_rx_ring_drops", l)
          .set(static_cast<double>(sh.rx_ring->drops()));
      m.gauge("lvrm_poll_serve_events", l)
          .set(static_cast<double>(sh.server->serve_events()));
      m.gauge("lvrm_shard_rx_admitted", l)
          .set(static_cast<double>(sh.rx_admitted));
      m.gauge("lvrm_shard_core", l).set(static_cast<double>(sh.core_id));
    }
  }
  if (tracer_) {
    // Trace gauges exist only with tracing on, so defaults-off exports stay
    // byte-identical (same rule as the ladder gauges).
    m.gauge("lvrm_trace_sample_every")
        .set(static_cast<double>(tracer_->sample_every()));
    m.gauge("lvrm_trace_adaptations")
        .set(static_cast<double>(tracer_->adaptations()));
    m.gauge("lvrm_trace_records_total")
        .set(static_cast<double>(tracer_->records_total()));
    m.gauge("lvrm_trace_spans")
        .set(static_cast<double>(tracer_->spans().size()));
    m.gauge("lvrm_trace_spans_dropped")
        .set(static_cast<double>(tracer_->spans_dropped()));
    m.gauge("lvrm_flight_dumps")
        .set(static_cast<double>(tracer_->dumps_taken()));
  }
  m.gauge("lvrm_audit_events").set(static_cast<double>(telemetry_->audit().total()));
  m.gauge("lvrm_audit_overwritten")
      .set(static_cast<double>(telemetry_->audit().overwritten()));
  if (replication_) {
    // Replication gauges exist only with §16 replication on, so
    // replication-off exports stay byte-identical.
    m.gauge("lvrm_spray_active_flows")
        .set(static_cast<double>(spray_active_flows()));
    m.gauge("lvrm_seq_held_frames")
        .set(static_cast<double>(seq_held_frames()));
  }
  if (fabric_) {
    // §17 fabric gauges exist only with the MPMC fabric on (same
    // byte-identity rule as the replication gauges above). Reclaimed
    // headroom = what the SPSC mesh would have reserved minus what the
    // fabric actually reserves — the ShmArena audit the satellite asks for.
    m.gauge("lvrm_fabric_rings")
        .set(static_cast<double>(fabric_ring_count()));
    m.gauge("lvrm_mesh_rings").set(static_cast<double>(mesh_ring_count()));
    const std::size_t mesh_b = mesh_ring_bytes();
    const std::size_t fab_b = fabric_ring_bytes();
    m.gauge("lvrm_fabric_reclaimed_bytes")
        .set(static_cast<double>(mesh_b > fab_b ? mesh_b - fab_b : 0));
    if (stealing_) {
      m.gauge("lvrm_tx_steals").set(static_cast<double>(tx_steals_));
      m.gauge("lvrm_tx_steal_frames")
          .set(static_cast<double>(tx_steal_frames_));
      m.gauge("lvrm_vri_steals").set(static_cast<double>(vri_steals_));
      m.gauge("lvrm_vri_steal_frames")
          .set(static_cast<double>(vri_steal_frames_));
    }
  }

  for (const auto& vrp : vrs_) {
    const VrState& vr = *vrp;
    const std::string l = "vr=\"" + std::to_string(vr.id) + "\"";
    m.gauge("lvrm_active_vris", l)
        .set(static_cast<double>(vr.active_order.size()));
    m.gauge("lvrm_arrival_rate_fps", l).set(arrival_rate_estimate(vr.id));
    m.gauge("lvrm_service_rate_fps", l).set(measured_service_rate(vr));
    m.gauge("lvrm_capacity_fps", l)
        .set(allocator_->capacity_fps(alloc_view(vr)));
    m.gauge("lvrm_frames_in", l).set(static_cast<double>(vr.frames_in));
    m.gauge("lvrm_forwarded", l).set(static_cast<double>(vr.forwarded));
    m.gauge("lvrm_data_queue_drops", l)
        .set(static_cast<double>(vr.data_drops));
    m.gauge("lvrm_shed_drops", l).set(static_cast<double>(vr.shed_drops));
    const DispatchStats stats = vr.dispatch_stats();
    m.gauge("lvrm_dispatch_decisions", l)
        .set(static_cast<double>(stats.decisions));
    m.gauge("lvrm_flow_probes", l)
        .set(static_cast<double>(stats.flow_probes));
    m.gauge("lvrm_flow_hits", l).set(static_cast<double>(stats.flow_hits));
    std::size_t depth = 0;
    for (int idx : vr.active_order)
      depth += vr.slots[static_cast<std::size_t>(idx)]->data_in->size();
    m.gauge("lvrm_data_queue_depth", l).set(static_cast<double>(depth));
    if (config_.flow_table_v2) {
      // Flow-table gauges exist only with the v2 table on (same
      // byte-identity rule as the ladder gauges below). Entries and slots
      // are summed across the VR's per-shard dispatchers.
      std::size_t entries = 0, slots = 0;
      for (const auto& d : vr.dispatchers) {
        entries += d->flow_entries();
        slots += d->flow_slots();
      }
      m.gauge("lvrm_flowtable_entries", l).set(static_cast<double>(entries));
      m.gauge("lvrm_flowtable_occupancy", l)
          .set(slots == 0 ? 0.0
                          : static_cast<double>(entries) /
                                static_cast<double>(slots));
    }
    if (config_.overload_control.enabled) {
      // Ladder gauges exist only with the ladder on, so defaults-off
      // exports stay byte-identical.
      m.gauge("lvrm_overload_level", l)
          .set(static_cast<double>(static_cast<int>(vr.level)));
      m.gauge("lvrm_overload_sample_rate", l).set(vr.sample_rate);
      m.gauge("lvrm_offered_estimate", l).set(vr.offered_estimate);
      m.gauge("lvrm_sampled_shed", l)
          .set(static_cast<double>(vr.sampled_shed));
      m.gauge("lvrm_admission_rejected", l)
          .set(static_cast<double>(vr.admission_rejected));
    }
  }
}

bool LvrmSystem::export_telemetry(const std::string& prefix) {
  if (!telemetry_) return false;
  const Nanos now = sim_.now();
  for (auto& vrp : vrs_) close_shed_episode(*vrp, now);
  publish_gauges();
  return telemetry_->export_files(prefix, now,
                                  tracer_ ? &tracer_->spans() : nullptr);
}

}  // namespace lvrm
