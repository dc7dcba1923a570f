// system.hpp — LvrmSystem: the assembled load-aware virtual router monitor.
//
// This wires every Chapter 3 component into the Fig 3.1 hierarchy on top of
// the simulated gateway:
//
//   socket adapter -> [LVRM poll loop on its pinned core]
//        |   classify by source IP -> VR monitor (core allocation, Fig 3.2)
//        |   -> VRI monitor (load balancing, Fig 3.3)
//        |   -> VRI adapter (load estimation, Fig 3.4) -> data queue
//        v
//   [VRI poll loops, one per allocated core] -> outgoing data queues
//        -> LVRM TX -> socket adapter -> egress
//
// Control queues outrank data queues at both LVRM and the VRIs (Sec 2.1).
// Shared-memory segment ids are allocated per queue through ShmArena,
// following the shmget()-identifier protocol of Sec 3.8.
//
// With `LvrmConfig::dispatch_shards` > 1 the dispatch plane itself is
// replicated (DESIGN.md §11): N dispatcher shards, each with its own socket
// adapter, RX ring, poll loop on its own core, and per-VR flow table +
// balancer. An RSS-style hash of the 5-tuple steers every frame of a flow
// to one shard at ingress, so flow affinity — and therefore per-flow frame
// ordering — is preserved end to end without any cross-shard locking.
// Shard 0 doubles as the management plane (core allocation, health,
// telemetry snapshots run off its sink); with one shard the system is
// bit-identical to the paper's single-dispatcher gateway.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "lvrm/config.hpp"
#include "lvrm/core_allocator.hpp"
#include "lvrm/health_monitor.hpp"
#include "lvrm/load_balancer.hpp"
#include "lvrm/load_estimator.hpp"
#include "lvrm/socket_adapter.hpp"
#include "lvrm/vri.hpp"
#include "net/frame.hpp"
#include "queue/shm_arena.hpp"
#include "sim/core.hpp"
#include "sim/poll_server.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace lvrm {

/// One entry of the allocation log (drives Figs 4.10-4.13).
struct AllocationEvent {
  Nanos time = 0;
  int vr = -1;
  bool create = false;       // false = deallocation
  Nanos reaction = 0;        // begin-iterate .. end-create/destroy (Fig 4.11)
  int vr_vris_after = 0;     // VRIs of this VR after the action
  int total_vris_after = 0;  // VRIs across all VRs after the action
};

/// One reset-free VRI drain (DESIGN.md §13; drives Exp 6). Unlike the
/// crash path, the drained incarnation stays warm: its router keeps the
/// applied route state, so a later activation needs no fork and no
/// route-log replay.
struct DrainEvent {
  Nanos time = 0;
  int vr = -1;
  int vri = -1;
  DrainCause cause = DrainCause::kDecommission;
  std::size_t migrated = 0;       // queued frames moved to sibling VRIs
  std::size_t dropped = 0;        // overflow: the survivors were saturated
  std::size_t flows_evicted = 0;  // flow pins released for re-balancing
  /// Worst sibling's control-handoff apply latency (Charon-style ownership
  /// transfer over the control rings); 0 until the slowest sibling acks.
  Nanos handoff_latency = 0;
};

/// One health-monitor recovery action (drives the MTTR bench).
struct RecoveryEvent {
  Nanos time = 0;  // detection time (the health pass that fired the verdict)
  int vr = -1;
  int vri = -1;
  VriHealth reason = VriHealth::kHealthy;
  Nanos stalled_for = 0;        // progress-stall age at detection
  std::size_t stranded = 0;     // frames found in the dead incarnation's queue
  std::size_t redispatched = 0; // of those, rescued onto surviving VRIs
  bool respawned = false;       // a replacement incarnation was started
};

class LvrmSystem {
 public:
  LvrmSystem(sim::Simulator& sim, const sim::CpuTopology& topo,
             LvrmConfig config);
  ~LvrmSystem();
  LvrmSystem(const LvrmSystem&) = delete;
  LvrmSystem& operator=(const LvrmSystem&) = delete;

  /// Registers a VR before start(). Returns the VR id.
  int add_vr(VrConfig config);

  /// Activates initial VRIs and starts the LVRM poll loop.
  void start();

  /// Frame arrival at the gateway's input (from the NIC ring / RAM trace).
  /// Returns false when the adapter's RX ring is full (tail drop).
  bool ingress(net::FrameMeta frame);

  /// Invoked (at the TX completion time) for every forwarded frame.
  void set_egress(std::function<void(net::FrameMeta&&)> egress) {
    egress_ = std::move(egress);
  }

  /// Sends a control event from one VRI of `vr` to another through the
  /// control queues; `on_delivered` receives the end-to-end latency when the
  /// destination VRI consumes it (Exp 1e). `kind` selects the consumption
  /// cost at the destination: kControl pays the full control-event cost,
  /// kStateDelta pays only the §16 delta-apply cost — state deltas ride the
  /// same rings but arrive orders of magnitude more often.
  void send_control(int vr, int src_vri, int dst_vri, std::size_t bytes,
                    std::function<void(Nanos)> on_delivered,
                    net::FrameKind kind = net::FrameKind::kControl);

  /// Failure injection: the VRI process dies (as if it crashed or was
  /// OOM-killed). LVRM only notices at its next allocation pass — the same
  /// once-per-period loop that runs Fig 3.2 — which reaps the corpse, frees
  /// its core, evicts its flow pins, and (fixed allocator) respawns a
  /// replacement; the dynamic allocators regrow capacity on their own.
  /// Frames queued at the dead VRI are lost, as with Fig 3.2's destroy.
  void inject_vri_crash(int vr, int vri);

  /// Failure injection (fail-slow family; see fault_injector.hpp): the VRI
  /// process stalls but stays alive — waitpid() never reaps it, so only the
  /// health monitor's heartbeat can notice. clear_vri_hang models a
  /// transient stall (e.g. a long GC pause) resolving on its own.
  void inject_vri_hang(int vr, int vri);
  void clear_vri_hang(int vr, int vri);

  /// Multiplies the VRI incarnation's per-frame service cost (a sick
  /// process); 1.0 restores full speed. Cleared by a respawn.
  void inject_vri_slowdown(int vr, int vri, double multiplier);

  /// Control events relayed to this VRI are dropped with this probability
  /// (lossy control path); 0 restores reliability. Cleared by a respawn.
  void inject_control_loss(int vr, int vri, double drop_probability);

  /// Failure injection (FaultKind::kOverloadBurst): a synthetic flash crowd
  /// aimed at `vr` — `fps` extra frames per second pushed straight into
  /// ingress() for `duration`. The burst cycles 64 synthetic flows inside
  /// the VR's first subnet, so it competes with real traffic for the same
  /// rings and queues the ladder protects.
  void inject_overload_burst(int vr, double fps, Nanos duration);

  /// Reset-free decommission (DESIGN.md §13): stops the VRI, migrates its
  /// queued frames and flow pins to the surviving siblings through the
  /// normal dispatch path (per-flow order preserved), and hands ownership
  /// over via control events — no frames dropped unless the survivors are
  /// saturated, no route-log replay on a later reactivation. Returns false
  /// when the slot is not active (or has crashed — a corpse cannot drain).
  bool decommission_vri(int vr, int vri);

  /// Every reset-free drain so far (allocator destroy with
  /// `overload_control.drain_on_destroy`, fail-slow quarantine, or explicit
  /// decommission_vri), in order.
  const std::vector<DrainEvent>& drain_log() const { return drain_log_; }
  /// Flow pins migrated to siblings across all drains.
  std::uint64_t flows_migrated() const { return flows_migrated_; }

  /// VRIs reaped after crashes, across all VRs.
  std::uint64_t crashed_vris_reaped() const { return crashes_reaped_; }

  /// Health-monitor recovery actions (empty unless config.health.enabled).
  const std::vector<RecoveryEvent>& recovery_log() const {
    return recovery_log_;
  }
  /// Frames rescued from dead/hung VRIs' queues and re-dispatched.
  std::uint64_t redispatched_frames() const { return redispatched_; }
  /// The health monitor, or nullptr when disabled.
  const HealthMonitor* health() const { return health_.get(); }

  /// Dynamic routing (Sec 3.7): `src_vri` of `vr` learns a route update,
  /// applies it locally, and synchronizes it to the sibling VRIs over the
  /// control queues (the Sec 2.1 routing-state sync). Inactive VRIs receive
  /// it directly so later activations start consistent. `on_synced` (may be
  /// empty) fires when the slowest sibling has applied it, with that
  /// worst-case latency.
  void broadcast_route_update(int vr, int src_vri,
                              const route::RouteUpdate& update,
                              std::function<void(Nanos)> on_synced = {});

  // --- introspection / statistics ------------------------------------------
  int vr_count() const { return static_cast<int>(vrs_.size()); }
  int active_vris(int vr) const;
  /// Core ids currently running this VR's VRIs, in activation order.
  std::vector<sim::CoreId> vri_cores(int vr) const;
  double arrival_rate_estimate(int vr) const;   // frames/s (EWMA)
  double service_rate_estimate(int vr) const;   // frames/s per VRI (measured)

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t vr_forwarded(int vr) const;
  std::uint64_t vri_forwarded(int vr, int vri) const;
  /// Tail drops across every shard's RX ring (one ring with one shard).
  std::uint64_t rx_ring_drops() const {
    std::uint64_t total = 0;
    for (const auto& sh : shards_) total += sh.rx_ring->drops();
    return total;
  }
  std::uint64_t data_queue_drops() const;
  std::uint64_t no_route_drops() const;
  /// Frames shed by the overload drop policy (documented, not silent).
  std::uint64_t shed_drops() const;
  std::uint64_t vr_shed_drops(int vr) const;

  // --- overload ladder (DESIGN.md §13) --------------------------------------
  /// The VR's current degradation-ladder level (kNormal unless
  /// `overload_control.enabled`).
  OverloadLevel overload_level(int vr) const;
  /// The VR's current per-flow sampling rate (1.0 at kNormal).
  double sample_rate(int vr) const;
  /// Frames shed by the adaptive sampling subset, per VR / total.
  std::uint64_t vr_sampled_shed(int vr) const;
  std::uint64_t sampled_shed_drops() const;
  /// Frames rejected by RX-side admission control, per VR / total.
  std::uint64_t vr_admission_rejected(int vr) const;
  std::uint64_t admission_rejected_drops() const;
  /// Frames classified to this VR after ring admission (includes frames the
  /// sampling subset later shed) — the ground truth the bias-corrected
  /// estimate reconstructs.
  std::uint64_t vr_frames_in(int vr) const;
  /// Bias-corrected offered-load estimate: every frame admitted past the
  /// sampling subset adds 1/rate, so the sum is an unbiased reconstruction
  /// of `vr_frames_in + vr_admission_rejected` whatever the ladder did.
  double vr_offered_estimate(int vr) const;

  // --- state replication (DESIGN.md §16) ------------------------------------
  // All zero unless `config.state_replication.enabled`.
  /// Frames dispatched past their flow pin by the spray path.
  std::uint64_t sprayed_frames() const { return sprayed_frames_; }
  /// Flows promoted to spraying (one per completed snapshot handshake).
  std::uint64_t spray_activations() const { return spray_activations_; }
  /// Per-frame state deltas relayed to siblings / applied at delivery.
  std::uint64_t deltas_sent() const { return deltas_sent_; }
  std::uint64_t deltas_applied() const { return deltas_applied_; }
  /// TX sequencer activity: frames parked for an earlier sequence number,
  /// holes released by a drop tombstone, and force-releases when the reorder
  /// window overflowed (the only case external order can be violated).
  std::uint64_t seq_holds() const { return seq_holds_; }
  std::uint64_t seq_gap_skips() const { return seq_gap_skips_; }
  std::uint64_t seq_window_overflows() const { return seq_window_overflows_; }
  /// Flows currently in the spray set / frames parked in sequencers.
  std::size_t spray_active_flows() const;
  std::size_t seq_held_frames() const;
  /// Frames refused by a stateful VR's admission decision (policy drops).
  std::uint64_t vr_policy_drops(int vr) const;

  /// Test/harness hook invoked once per dropped frame with its cause — the
  /// conservation check `delivered + every cause == offered` per flow
  /// class. Null (the default) costs the hot path one pointer check.
  using DropHook = std::function<void(const net::FrameMeta&, DropCause)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }
  /// The allocator's aggregate capacity estimate for this VR (frames/s).
  double capacity_estimate(int vr) const;

  const std::vector<AllocationEvent>& allocation_log() const {
    return alloc_log_;
  }

  sim::Core& core(sim::CoreId id) { return *cores_.at(static_cast<std::size_t>(id)); }
  const sim::Core& core(sim::CoreId id) const {
    return *cores_.at(static_cast<std::size_t>(id));
  }
  sim::Core& lvrm_core() { return core(config_.lvrm_core); }
  const SocketAdapter& adapter() const { return *shards_.front().adapter; }
  const LvrmConfig& config() const { return config_; }
  const queue::ShmArena& shm() const { return arena_; }
  /// Shard 0's dispatcher for `vr` (the only one with dispatch_shards=1).
  const Dispatcher& dispatcher(int vr) const;
  /// A specific shard's dispatcher for `vr`.
  const Dispatcher& dispatcher(int vr, int shard) const;

  // --- sharded dispatch plane (DESIGN.md §11) -------------------------------
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Core the given dispatcher shard's poll loop is pinned to.
  sim::CoreId shard_core(int shard) const {
    return shards_.at(static_cast<std::size_t>(shard)).core_id;
  }
  /// Frames admitted through this shard's RX ring since start.
  std::uint64_t shard_rx_admitted(int shard) const {
    return shards_.at(static_cast<std::size_t>(shard)).rx_admitted;
  }
  /// The shard the RSS-style flow hash steers this frame's 5-tuple to.
  int shard_of(const net::FrameMeta& frame) const;

  // --- MPMC fabric & work stealing (DESIGN.md §17) --------------------------
  // Ring accounting contrasts the two IPC topologies over the *same* shard
  // and VRI-slot geometry: the SPSC mesh needs one ring per (shard, VRI)
  // pair in each data direction, the fabric one MPMC ingress link per VRI
  // and one MPMC TX drain per home shard. Control rings and RX rings are
  // common to both. These are the numbers behind the `lvrm_fabric_*`
  // gauges and `bench_exp9_fabric`.
  /// Data-plane rings the SPSC mesh allocates for this geometry.
  std::size_t mesh_ring_count() const;
  /// Data-plane rings the MPMC fabric allocates for this geometry.
  std::size_t fabric_ring_count() const;
  /// Shared-memory bytes those rings pin (headroom), mesh vs fabric. The
  /// difference is the reclaimed-headroom gauge (satellite of §17).
  std::size_t mesh_ring_bytes() const;
  std::size_t fabric_ring_bytes() const;
  /// Work-stealing counters (all zero unless `work_stealing`): TX bursts an
  /// idle shard pulled from another shard's drain, ingress bursts an idle
  /// VRI pulled from an overloaded sibling, and the frames they moved.
  std::uint64_t tx_steals() const { return tx_steals_; }
  std::uint64_t tx_steal_frames() const { return tx_steal_frames_; }
  std::uint64_t vri_steals() const { return vri_steals_; }
  std::uint64_t vri_steal_frames() const { return vri_steal_frames_; }

  /// Telemetry layer (DESIGN.md §10), or nullptr when
  /// `config.telemetry.enabled` is false.
  obs::Telemetry* telemetry() { return telemetry_.get(); }
  const obs::Telemetry* telemetry() const { return telemetry_.get(); }

  /// §15 tracer (path spans, per-shard flight recorders, load-adaptive
  /// sampling), or nullptr when `config.tracing.enabled` is false.
  obs::Tracer* tracer() { return tracer_.get(); }
  const obs::Tracer* tracer() const { return tracer_.get(); }

  /// Flushes open audit episodes, publishes the gauge set, and writes
  /// `<prefix>.prom`, `<prefix>.csv` and `<prefix>.trace.json`. Returns
  /// false when telemetry is disabled or a file could not be opened.
  bool export_telemetry(const std::string& prefix);

  /// Publishes the gauge set and appends a snapshot to the retained series
  /// (also runs periodically from the poll loop; exposed for tests).
  void snapshot_telemetry();

  /// Zeroes all per-core accounting (for windowed CPU-usage measurements).
  void reset_accounting();

  /// Extra one-way latency of a given VR's implementation (Click pipeline).
  Nanos vr_pipeline_latency(int vr) const;

 private:
  struct VriSlot;
  struct VrState;
  struct SeqOut;  // §16 per-spray-flow TX sequencer state

  /// Every IPC queue carries the FrameMeta itself (DESIGN.md §12).
  using FrameQueue = sim::BoundedQueue<net::FrameMeta>;
  using FrameServer = sim::PollServer<net::FrameMeta>;

  /// One dispatcher shard: its own adapter instance, RX ring, and poll loop
  /// pinned to its own core. Shard 0 is the paper's LVRM process (owner 0,
  /// name "lvrm", pinned to config.lvrm_core); it also hosts the management
  /// plane and every VRI's control relay for shard-0-homed slots.
  struct DispatchShard {
    int id = 0;
    sim::CoreId core_id = sim::kNoCore;
    std::unique_ptr<SocketAdapter> adapter;
    std::unique_ptr<FrameQueue> rx_ring;
    std::unique_ptr<FrameServer> server;
    std::uint64_t rx_admitted = 0;  // frames accepted into this shard's ring
    // §17 fabric: this shard's shared TX drain segment (one MPMC link all
    // homed VRIs produce into), and — with work stealing — the staging
    // queue stolen TX bursts are parked in until this shard's loop drains
    // them, plus its input index on the shard's server.
    queue::SegmentId tx_link_shm = queue::kInvalidSegment;
    std::unique_ptr<FrameQueue> tx_steal_q;
    std::size_t tx_steal_input = 0;
    bool tx_steal_timer_armed = false;
  };

  /// Drops every queued frame; returns how many.
  std::size_t drain_and_drop(FrameQueue& q, DropCause cause) {
    std::size_t n = 0;
    while (q.size() > 0) {
      note_drop(q.pop(), cause);
      ++n;
    }
    return n;
  }
  /// Reports a drop to the installed hook and (tracing on) the §15 flight
  /// recorder + span collector. Every drop/shed/quarantine exit point in
  /// the system funnels through here, which is what makes one tracer hook
  /// cover them all. Two null checks when both are unset.
  void note_drop(const net::FrameMeta& f, DropCause cause) {
    // §16: a sprayed frame that dies anywhere leaves a hole in its spray
    // sequence — tombstone it so the TX sequencer can release past it
    // instead of stalling until the reorder window overflows.
    if (replication_ && f.sprayed) seq_skip(f);
    if (tracer_) trace_drop(f, cause);
    if (drop_hook_) drop_hook_(f, cause);
  }
  /// Pushes `f`, reporting it as a `cause` drop when the queue refuses it.
  bool push_or_note(FrameQueue& q, const net::FrameMeta& f, DropCause cause) {
    if (q.push(f)) return true;
    note_drop(f, cause);
    return false;
  }

  VrState& classify(net::FrameMeta& frame);
  Nanos rx_cost(net::FrameMeta& frame, DispatchShard& shard);
  Nanos rx_cost_batch(std::span<net::FrameMeta> frames, DispatchShard& shard);
  void rx_sink(net::FrameMeta&& frame);
  void maybe_allocate();
  void reap_crashed();
  void activate_vri(VrState& vr, bool from_recovery = false);
  void activate_slot(VrState& vr, VriSlot& slot, bool from_recovery = false);
  void deactivate_vri(VrState& vr);
  /// Picks a core for a VRI anchored at its home shard's core, applying the
  /// affinity policy with the two-level NUMA preference (DESIGN.md §11).
  NumaPick pick_core(sim::CoreId anchor);
  void release_core(sim::CoreId id);
  void schedule_migration(VriSlot& slot);
  /// Whether a queue operation between these two cores crosses a socket.
  bool cross_socket(sim::CoreId a, sim::CoreId b) const;
  /// Core a dispatcher shard created after shard 0 gets pinned to.
  sim::CoreId pick_shard_core(int shard);
  int total_active_vris() const;
  double measured_service_rate(const VrState& vr) const;
  double vri_departure_rate(const VriSlot& slot) const;
  VrAllocView alloc_view(const VrState& vr) const;
  bool any_free_core() const;
  // Health monitoring & recovery.
  void maybe_health_probe();
  void recover_slot(VrState& vr, VriSlot& slot, VriHealth reason,
                    Nanos stalled_for);
  void rebuild_router(VrState& vr, VriSlot& slot);
  void discard_stale_control(VriSlot& slot);
  std::size_t redispatch(VrState& vr, std::vector<net::FrameMeta>& frames);
  // Overload shedding; returns true when the frame was handled (shed).
  bool maybe_shed(VrState& vr, VriSlot& slot, net::FrameMeta& frame);
  // Overload ladder (DESIGN.md §13; all no-ops unless
  // config.overload_control.enabled).
  /// Whether the frame's flow falls in the sampling subset at this rate.
  bool in_subset(const net::FrameMeta& f, double rate) const;
  /// Level-2 RX gate; true when the frame was rejected before the ring.
  bool admission_reject(net::FrameMeta& frame);
  /// Level-1 dispatch-time sampling shed (also feeds the window pressure
  /// accounting and the bias-corrected offered estimate).
  bool maybe_sample_shed(VrState& vr, VriSlot& slot, net::FrameMeta& frame);
  /// Window adaptation: escalate / relax the VR's sampling rate and level.
  void overload_tick(VrState& vr, Nanos now);
  void set_overload_state(VrState& vr, OverloadLevel level, double rate,
                          double pressure);
  /// Reset-free drain, phase 1: quiesce the slot's server (the in-service
  /// frame completes and egresses; nothing new is popped) and run
  /// finish_drain once it is idle — synchronously when already idle. The
  /// slot stays dispatchable until then so pinned-flow arrivals queue FIFO
  /// behind the backlog instead of racing it to a sibling. `done` (optional)
  /// fires with the completed DrainEvent.
  void drain_slot(VrState& vr, VriSlot& slot, DrainCause cause,
                  std::function<void(const DrainEvent&)> done = {});
  /// Reset-free drain, phase 2: migrate the slot's live queue and flow pins
  /// to the surviving siblings, keep its router state warm for reactivation.
  void finish_drain(VrState& vr, VriSlot& slot, DrainCause cause,
                    const std::function<void(const DrainEvent&)>& done);
  /// One synthetic flash-crowd frame + reschedule (inject_overload_burst).
  void burst_step(int vr, Nanos gap, Nanos until);
  // Telemetry (all no-ops when telemetry is disabled).
  void maybe_snapshot();
  void publish_gauges();
  // §15 tracing (all no-ops when tracing is disabled / tracer_ is null).
  /// Flight-record + (sampled frames) span-collect a drop exit.
  void trace_drop(const net::FrameMeta& f, DropCause cause);
  /// Snapshot the flight recorders on an incident and audit the dump.
  void trace_flight_dump(obs::FlightDumpCause cause, int shard, int vr,
                         int vri);
  /// The frame's hop timeline as a PathSpan (terminal: 0 = delivered).
  obs::PathSpan span_of(const net::FrameMeta& f, std::uint8_t terminal) const;
  void audit_vri_change(VrState& vr, VriSlot& slot, bool create,
                        bool from_recovery);
  void audit_balance_and_shed(Nanos now);
  void close_shed_episode(VrState& vr, Nanos now);
  // State replication (DESIGN.md §16; all no-ops unless
  // config.state_replication.enabled → replication_).
  /// Heavy-hitter detection + spray override after the flow-pinned dispatch
  /// decision: counts the flow in its detection window, starts the snapshot
  /// handshake on promotion, stamps spray metadata, and — once the flow is
  /// Active — overrides `chosen` with a per-frame min-load pick.
  int maybe_spray(VrState& vr, DispatchShard& shard, net::FrameMeta& f,
                  std::span<const VriView> views, int chosen, Nanos now);
  /// Copies the flow's state from the owner to every active sibling over
  /// the control rings; the spray goes Active when the slowest acks.
  void start_spray_handshake(VrState& vr, int shard, int owner,
                             const net::FiveTuple& tuple, double rate_fps,
                             double threshold_fps);
  /// Drains the deltas a stateful router queued while processing a sprayed
  /// frame and relays each to the active siblings (delta_period-gated).
  /// Returns how many deltas were drained (the emit-cost multiplier).
  std::size_t relay_deltas(VrState& vr, VriSlot& slot);
  /// TX-side completion: counters, tracer/telemetry, egress. Split out of
  /// the TX sink so the sequencer can release held frames through it.
  void finish_tx(VrState& vr, net::FrameMeta&& f);
  /// Reorders a sprayed frame back into external arrival order; releases
  /// every in-order frame (and tombstoned hole) through finish_tx.
  void sequence_tx(VrState& vr, net::FrameMeta&& f);
  /// Records a dropped sprayed frame's sequence number as a hole.
  void seq_skip(const net::FrameMeta& f);
  /// Releases the run of consecutive held frames/tombstones at `so.next`.
  void seq_release_run(VrState& vr, SeqOut& so);
  /// Idle-expires spray entries and empty sequencers (1 s cadence, rides
  /// the allocation pass).
  void spray_gc(Nanos now);
  /// Invalidates every shard dispatcher's cached healthy pool for this VR;
  /// called whenever a slot's health/membership could have changed.
  void bump_pool_generation(VrState& vr);
  // §17 MPMC fabric & work stealing (no-ops unless `work_stealing`).
  /// Idle-shard TX-drain steal: pull a head burst from another shard's
  /// homed slot's drain into this shard's staging queue, gating the victim
  /// until the burst has egressed so same-slot frames cannot overtake.
  /// Returns true when a burst was staged (the idle scan then re-runs).
  bool try_tx_steal(DispatchShard& thief);
  /// Idle-VRI ingress steal from an overloaded same-VR sibling. Only
  /// unpinned heads move: frame-granularity frames carry no per-flow FIFO
  /// promise, and Active-sprayed frames are re-sequenced at TX (§16) —
  /// the scan stops at the first pinned head, so a pinned flow's FIFO is
  /// never broken. Returns true when frames were moved.
  bool try_vri_steal(VrState& vr, VriSlot& thief);
  /// Re-polls an idle thief while same-VR siblings still hold stealable
  /// backlog; the timer dies with the VR's queues so the sim can drain.
  void arm_steal_timer(VrState& vr, VriSlot& thief);
  /// Re-polls an idle shard's TX-steal hook while any foreign slot's egress
  /// drain holds a stealable backlog (the shard's own loop only re-scans on
  /// events, and a fully idle thief gets none).
  void arm_tx_steal_timer(DispatchShard& thief);
  /// Wakes idle foreign shards when `s`'s egress drain crosses the steal
  /// threshold — the event-driven bootstrap for the timer above.
  void maybe_poke_tx_thieves(VriSlot& s);
  /// Whether the frame's spray entry is Active (replicated state on every
  /// sibling); Pending-sprayed frames stay pinned and must not be stolen.
  bool spray_is_active(const VrState& vr, const net::FrameMeta& f) const;
  /// Rate-limited (1/sim-second per kind) §17 steal audit event.
  void audit_steal(obs::AuditKind kind, int thief, const VriSlot& victim,
                   std::size_t burst);
  /// The slot whose TX drain a stolen frame came from (from its dispatch
  /// stamps); null only if the stamps are out of range.
  VriSlot* steal_victim_slot(const net::FrameMeta& f);

  sim::Simulator& sim_;
  sim::CpuTopology topo_;
  LvrmConfig config_;
  Rng rng_;

  std::vector<std::unique_ptr<sim::Core>> cores_;
  std::vector<bool> core_used_;
  queue::ShmArena arena_;

  std::vector<DispatchShard> shards_;  // fixed at construction, never resized
  std::unique_ptr<CoreAllocator> allocator_;

  std::vector<std::unique_ptr<VrState>> vrs_;
  std::function<void(net::FrameMeta&&)> egress_;

  // Initialized so the first allocation pass happens one full period after
  // start ("after 1s or more from the previous core allocation process" —
  // VR start counts as the previous process), by which time the arrival
  // EWMA has real samples.
  Nanos last_alloc_pass_ = 0;
  std::vector<AllocationEvent> alloc_log_;

  std::unique_ptr<HealthMonitor> health_;
  Nanos last_health_probe_ = 0;
  std::vector<RecoveryEvent> recovery_log_;
  std::uint64_t redispatched_ = 0;

  // Overload-resilience layer (DESIGN.md §13).
  DropHook drop_hook_;
  std::vector<DrainEvent> drain_log_;
  std::uint64_t flows_migrated_ = 0;
  /// VRs currently at kAdmission: ingress pays the classify + subset check
  /// only while this is non-zero (one int compare otherwise).
  int admission_active_ = 0;
  std::uint64_t burst_seq_ = 0;  // synthetic overload-burst frame ids

  // Batched-hot-path scratch (reused per burst; no allocation after warm-up):
  // per-VR pointer groups of the current RX burst, and the VriView set.
  std::vector<std::vector<net::FrameMeta*>> rx_groups_;
  std::vector<VriView> views_scratch_;

  // Telemetry layer. `obs_` carries the pre-registered hot-path handles and
  // snapshot bookkeeping; one null check gates every hot-path touch.
  struct ObsHooks;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<ObsHooks> obs_;

  // §15 tracing layer: per-shard flight recorders + the adaptive sampling
  // controller + the retained path spans. Null unless config.tracing is
  // enabled; every hot-path touch is gated on this one pointer.
  std::unique_ptr<obs::Tracer> tracer_;

  std::uint64_t forwarded_ = 0;
  std::uint64_t crashes_reaped_ = 0;
  std::uint64_t unclassified_drops_ = 0;
  std::uint64_t control_drops_ = 0;
  std::uint64_t next_control_id_ = 1;
  std::unordered_map<std::uint64_t, std::function<void(Nanos)>> control_cbs_;

  // State replication (DESIGN.md §16). `replication_` caches the config
  // gate so the hot-path checks (note_drop, the TX sink)
  // stay one bool test with the feature off.
  bool replication_ = false;
  std::uint64_t sprayed_frames_ = 0;
  std::uint64_t spray_activations_ = 0;
  std::uint64_t deltas_sent_ = 0;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t seq_holds_ = 0;
  std::uint64_t seq_gap_skips_ = 0;
  std::uint64_t seq_window_overflows_ = 0;
  std::uint32_t next_spray_flow_ = 1;
  Nanos last_spray_gc_ = 0;

  // §17 MPMC fabric & work stealing. `fabric_`/`stealing_` cache the config
  // gates (stealing requires the fabric) so hot-path checks stay one bool.
  bool fabric_ = false;
  bool stealing_ = false;
  std::uint64_t tx_steals_ = 0;
  std::uint64_t tx_steal_frames_ = 0;
  std::uint64_t vri_steals_ = 0;
  std::uint64_t vri_steal_frames_ = 0;
  Nanos last_tx_steal_audit_ = -1;   // rate limit: one audit event per second
  Nanos last_vri_steal_audit_ = -1;

  bool started_ = false;
};

}  // namespace lvrm
