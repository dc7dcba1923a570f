// audit.hpp — bounded binary decision audit trail (DESIGN.md §10).
//
// Every control-plane decision the LVRM takes — core allocation changes,
// health-monitor transitions, shedding episodes, balancer summaries — is
// recorded as one fixed-size binary event carrying the *cause* (the observed
// EWMA rate, the threshold it was compared against, the service-rate
// estimate), so "why did VR2 get a third core at t=4.2s?" is answerable from
// the trail alone. The ring is bounded and overwrites the oldest events;
// `overwritten()` says how many were lost, so a consumer can tell a complete
// trail from a truncated one. Replaying kVriCreate/kVriDestroy events
// reconstructs the allocator's per-VR core count exactly (tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace lvrm::obs {

enum class AuditKind : std::uint8_t {
  kVriCreate,      // allocator (or respawn) added a VRI to a VR
  kVriDestroy,     // allocator / recovery / reap removed a VRI
  kHealthDead,     // health monitor declared a VRI dead (crash)
  kHealthHung,     // health monitor declared a VRI hung
  kHealthFailSlow, // health monitor flagged a fail-slow VRI
  kShedEpisode,    // a contiguous run of overload shedding on one VR
  kBalanceSummary, // periodic balancer choice summary for one VR
  kOverloadLevel,  // a VR's degradation ladder changed level / sampling rate
  kVriDrain,       // reset-free VRI drain: live flows migrated to siblings
  kFlowTableResize,  // a dispatcher's flow table rebuilt / finished migrating
  kFlightDump,     // §15 flight recorder snapshotted on an incident
  kFlowSpray,      // §16 an elephant flow began spraying across VRIs
  kFlowSprayEnd,   // §16 a sprayed flow went idle and left the spray set
  kTxSteal,        // §17 an idle shard stole a TX burst from another's drain
  kVriSteal,       // §17 an idle VRI stole ingress frames from a sibling
};

const char* to_string(AuditKind k);

/// One fixed-size audit record. Field meaning by kind:
///   kVriCreate / kVriDestroy:
///     rate      = observed per-VR arrival EWMA (fps) at decision time
///     threshold = allocator capacity threshold it was compared against (fps)
///     service   = per-VRI service-rate estimate (fps)
///     a         = VRI count after the change
///     b         = core id involved (create/destroy target), ~0 if unknown
///     c         = 1 when the change came from recovery/respawn, 0 from the
///                 allocator's threshold decision
///   kHealthDead / kHealthHung / kHealthFailSlow:
///     rate      = observed heartbeat staleness (ns) or degrade factor
///     threshold = configured detection threshold
///     service   = per-VRI service-rate estimate (fps)
///     a         = frames stranded, b = frames re-dispatched, c = 1 if respawned
///   kShedEpisode (duration event, `until` > `time`):
///     rate      = arrival EWMA (fps) when the episode opened
///     threshold = configured shed watermark (queue fraction)
///     service   = service-rate estimate (fps)
///     a         = frames shed in the episode
///   kBalanceSummary:
///     rate      = arrival EWMA (fps), service = service-rate estimate (fps)
///     a         = frames dispatched since last summary
///     b         = flow-table hits since last summary
///     c         = active VRI count
///   kOverloadLevel (ladder transition, DESIGN.md §13):
///     rate      = sampling rate after the transition
///     threshold = window pressure fraction that triggered it
///     a         = level after, b = level before (OverloadLevel values)
///     c         = cumulative sampled-shed + admission-rejected frames
///   kVriDrain (reset-free drain):
///     rate      = arrival EWMA (fps), service = service-rate estimate (fps)
///     a         = queued frames migrated to siblings
///     b         = flow pins evicted for re-balancing
///     c         = frames dropped (survivors saturated)
///     cause     = DrainCause
///   kFlowTableResize (DESIGN.md §14; start + completion, never per step):
///     a         = slot capacity before, b = slot capacity after
///     c         = entries migrated so far (0 on start; for the v2 table's
///                 completion event, total live entries carried over)
///     shard     = dispatcher shard owning the table
///     cause     = net::FlowResizeCause (load-factor / tombstone-purge /
///                 incremental-step)
///   kFlightDump (§15; one per flight-recorder dump trigger):
///     a         = records captured in the dump
///     b         = dump sequence number since start
///     c         = records written across all shard rings so far
///     shard     = triggering shard (-1 when not shard-specific)
///     cause     = FlightDumpCause (vri-crash / quarantine / admission)
///   kFlowSpray (§16; spray activation after the snapshot handshake):
///     rate      = detected flow rate (fps) inside the detection window
///     threshold = elephant threshold (fps) it crossed
///     a         = fan-out (active VRIs the flow may now use)
///     b         = spray-flow id (keys the TX sequencer)
///     c         = snapshot-handshake latency (ns, worst sibling)
///     vri       = the VRI that owned the flow before spraying
///     shard     = dispatcher shard steering the flow
///   kFlowSprayEnd (§16; idle expiry of a sprayed flow):
///     a         = frames sprayed over the flow's lifetime
///     b         = spray-flow id
///     shard     = dispatcher shard that steered the flow
///   kTxSteal (§17; rate-limited to one event per sim second):
///     a         = frames stolen in this burst
///     b         = cumulative TX-steal bursts so far
///     c         = cumulative TX frames stolen so far
///     shard     = thief shard; vr/vri = victim slot whose drain was stolen
///   kVriSteal (§17; rate-limited to one event per sim second):
///     a         = frames stolen in this burst
///     b         = cumulative VRI-steal bursts so far
///     c         = cumulative ingress frames stolen so far
///     vri       = thief VRI; b/c cumulative; `service` = victim VRI index
///     vr        = the VR both siblings belong to
struct AuditEvent {
  Nanos time = 0;   // event (or episode-start) sim time
  Nanos until = 0;  // episode end for duration events, else == time
  AuditKind kind = AuditKind::kVriCreate;
  std::int16_t vr = -1;
  std::int16_t vri = -1;
  /// Dispatcher shard whose core pool the decision drew from (the VRI's
  /// home shard; DESIGN.md §11). -1 for events with no shard context.
  std::int16_t shard = -1;
  /// NUMA distance of the allocation the event records, when it records
  /// one: 0 = same socket as the shard's core, 1 = same machine (other
  /// socket), 2 = remote machine, -1 = not an allocation / over-commit.
  std::int8_t numa_tier = -1;
  /// Kind-specific cause code (e.g. DrainCause for kVriDrain); 0 for kinds
  /// without one.
  std::uint8_t cause = 0;
  double rate = 0.0;
  double threshold = 0.0;
  double service = 0.0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Bounded overwrite-oldest ring of AuditEvents. Single-writer (the LVRM
/// control path); readers take a consistent copy via events().
class AuditTrail {
 public:
  explicit AuditTrail(std::size_t capacity = 8192);

  void record(const AuditEvent& e);

  /// Oldest-to-newest copy of the retained events.
  std::vector<AuditEvent> events() const;

  std::uint64_t total() const { return total_; }
  std::uint64_t overwritten() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  std::size_t capacity() const { return ring_.capacity(); }
  std::size_t size() const { return ring_.size(); }

 private:
  std::vector<AuditEvent> ring_;  // reserved to capacity, grows to it once
  std::size_t next_ = 0;          // overwrite cursor once full
  std::uint64_t total_ = 0;
};

}  // namespace lvrm::obs
