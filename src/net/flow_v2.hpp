// flow_v2.hpp — million-flow connection-tracking table (DESIGN.md §14).
//
// FlowTable (flow.hpp) is the paper-scale reference: open addressing with
// linear probing, tombstones, and a stop-the-world rehash. All three choices
// collapse at internet scale — probe chains grow unboundedly under churn, a
// 16M-entry rehash is a multi-millisecond pause in the frame hot path, and
// `evict_vri` scans the whole table inside the latency-critical §13 drain.
//
// FlowTableV2 replaces the layout wholesale:
//
//   * Cache-line-bucketed storage: 8 slots per bucket with a 1-byte tag per
//     slot. A lookup loads the bucket's 8 tags as one word and matches the
//     key's tag with SWAR bit tricks — full-key compares happen only on tag
//     hits (~1/256 false-positive rate per occupied slot), so a miss costs
//     one or two 8-byte loads instead of a pointer-chasing probe chain.
//   * Two-choice bucketed cuckoo placement: every key has exactly two home
//     buckets derived from its hash; inserts displace residents along a
//     bounded random walk (deterministic LCG — results must replay exactly
//     per seed) into their alternate buckets instead of growing chains. The
//     rare walk that exhausts its kick budget lands in a small overflow
//     stash scanned linearly. No tombstones exist: deletion clears the tag.
//   * Incremental resize: growth allocates the doubled table and migrates a
//     bounded number of buckets per subsequent insert/lookup, so no single
//     frame ever pays the full rehash. Lookups consult both generations
//     while a migration is draining; migration doubles as an expiry purge.
//   * Idle-expiry GC wheel: entries are linked into a 64-slot time wheel by
//     expiry deadline. The hot path only refreshes `last_seen` (lazy — the
//     entry stays put); `gc_tick` pops the wheel slots whose window passed
//     and expires or relinks what it finds, making expiry O(expired) batch
//     work per dispatch tick instead of a side effect of exact-key probes.
//   * Per-VRI index: live entries are also threaded onto a doubly-linked
//     list per VRI, turning `evict_vri` into an O(flows-on-that-VRI) walk.
//
// Observable semantics match FlowTable exactly (same strict-> expiry, same
// hit/miss accounting, same insert-over-existing update-in-place), so a
// caller can move between the two tables without changing its decisions.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "net/flow.hpp"

namespace lvrm::net {

class FlowTableV2 {
 public:
  static constexpr std::size_t kSlotsPerBucket = 8;
  static constexpr int kWheelSlots = 64;
  static constexpr int kMaxKicks = 128;
  /// Max entries one gc_tick touches (~tens of µs of list surgery): the
  /// expiry analogue of the bounded migrate_step. Far above any sustainable
  /// per-tick expiry arrival rate, so the overflow chain only absorbs
  /// cohort spikes (e.g. flood state aging out en masse), never grows
  /// unboundedly.
  static constexpr std::size_t kGcBudgetPerTick = 256;

  /// `capacity_hint` is entries; buckets are sized so the hint fits below
  /// the 7/8 load-factor growth trigger. `idle_timeout` 0 disables expiry
  /// (and the wheel entirely).
  explicit FlowTableV2(std::size_t capacity_hint = 4096,
                       Nanos idle_timeout = sec(30));
  ~FlowTableV2();
  FlowTableV2(const FlowTableV2&) = delete;
  FlowTableV2& operator=(const FlowTableV2&) = delete;

  /// Looks up the flow, refreshing its timestamp on hit. An entry found
  /// expired is removed and counted as a miss (same as FlowTable). Drives
  /// one bucket of incremental migration when a resize is draining.
  std::optional<int> lookup(const FiveTuple& t, Nanos now);

  /// Inserts or updates the flow's VRI assignment. Never fails under the
  /// two-choice + stash scheme short of allocation failure; the bool return
  /// mirrors FlowTable's contract. Drives the load-factor growth trigger
  /// and two buckets of incremental migration per call.
  bool insert(const FiveTuple& t, int vri, Nanos now);

  /// Removes all entries assigned to `vri` by walking its intrusive list:
  /// O(flows on that VRI), not O(table). Returns the number evicted.
  std::size_t evict_vri(int vri);

  /// Background expiry: processes wheel slots whose time window has passed
  /// since the last tick, removing entries idle past the timeout and
  /// relinking refreshed ones. Work per call is capped at kGcBudgetPerTick
  /// entries — a mass-expiry cohort (SYN-flood state aging out all at once)
  /// is reclaimed across several ticks instead of one unbounded burst; the
  /// unprocessed remainder parks on an overflow chain drained first by the
  /// next tick. Lookups still enforce exact expiry, so delayed reclamation
  /// is invisible to semantics. A no-op until the wheel cursor is actually
  /// behind `now`. Returns entries expired this call.
  std::size_t gc_tick(Nanos now);

  /// Observer for resize lifecycle events (start + completion, never per
  /// migration step — see FlowResizeEvent).
  void set_resize_hook(FlowResizeHook hook) { on_resize_ = std::move(hook); }

  // -- observability ------------------------------------------------------
  std::size_t size() const {
    return cores_[0].live + cores_[1].live + stash_.size();
  }
  /// Slot capacity of the active generation (what occupancy is measured
  /// against; the draining generation is transient).
  std::size_t capacity() const {
    return cores_[active_].n_buckets * kSlotsPerBucket;
  }
  /// Fraction of active-generation slots holding live entries, 0..1+.
  double occupancy() const {
    const std::size_t cap = capacity();
    return cap == 0 ? 0.0
                    : static_cast<double>(size()) / static_cast<double>(cap);
  }
  bool resizing() const { return resizing_; }
  std::size_t stash_size() const { return stash_.size(); }
  std::size_t stash_peak() const { return stash_peak_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t insert_failures() const { return 0; }
  std::uint64_t expired_total() const { return expired_total_; }
  std::uint64_t resizes_started() const { return resizes_started_; }
  std::uint64_t resizes_completed() const { return resizes_completed_; }
  /// Buckets (plus stash, if consulted) touched by the most recent lookup —
  /// the value the probe-length histogram records.
  unsigned last_probe_len() const { return last_probe_len_; }
  int max_kicks_seen() const { return max_kicks_seen_; }
  /// Bytes of drained-generation arenas still awaiting incremental unmap
  /// (returns to 0 within ~len/256KB operations of a resize completing).
  std::size_t retired_bytes() const {
    std::size_t total = 0;
    for (const auto& r : retired_) total += r.len;
    return total;
  }

 private:
  /// A slot reference: bit 31 selects the core (generation), low 31 bits the
  /// global slot position (bucket * 8 + lane). kNullRef terminates lists.
  using Ref = std::uint32_t;
  static constexpr Ref kNullRef = 0xFFFFFFFFu;

  /// One table generation, structure-of-arrays carved out of a single
  /// anonymous mmap arena. mmap's lazy zero pages make allocation O(1) (no
  /// memset pause on a multi-hundred-MB generation — tag == 0 gates all
  /// reads of the deliberately-untouched arrays), and a retired arena can be
  /// given back in bounded munmap chunks instead of one stop-the-world
  /// release (see reclaim_step). Keys live packed (PackedTuple) so
  /// displacement/migration re-hashes without a FiveTuple round trip.
  struct Core {
    std::size_t n_buckets = 0;  // power of two; 0 = generation not allocated
    std::size_t mask = 0;
    std::size_t live = 0;
    void* arena = nullptr;             // one mapping holding all arrays
    std::size_t arena_len = 0;         // page-rounded mapping length
    std::uint8_t* tags = nullptr;      // n_buckets * 8, zero = empty
    std::uint64_t* ka = nullptr;       // packed key halves
    std::uint64_t* kb = nullptr;
    std::int32_t* vri = nullptr;
    std::int64_t* last_seen = nullptr;
    std::uint32_t* gc_prev = nullptr;
    std::uint32_t* gc_next = nullptr;
    std::uint32_t* vri_prev = nullptr;
    std::uint32_t* vri_next = nullptr;
    std::uint8_t* wheel = nullptr;     // wheel slot the entry is linked into
  };

  /// A drained generation's arena awaiting incremental unmap.
  struct Retired {
    void* base = nullptr;
    std::size_t len = 0;
  };
  /// Bytes unmapped per reclaim step: big enough to drain a retired
  /// generation long before the next resize, small enough that one step
  /// stays in single-digit microseconds of kernel time.
  static constexpr std::size_t kReclaimChunk = 256 * 1024;

  /// An entry travelling between slots (cuckoo hand, stash overflow). Not
  /// linked into any list while in this form.
  struct Loose {
    std::uint64_t ka = 0, kb = 0;
    std::uint64_t h = 0;
    std::int64_t last_seen = 0;
    std::int32_t vri = -1;
  };

  void alloc_core(Core& c, std::size_t n_buckets);
  /// Queues the generation's arena for incremental unmap and resets it.
  void release_core(Core& c);
  /// Unmaps at most kReclaimChunk bytes of retired arenas. Called once per
  /// lookup/insert so deallocating a drained multi-hundred-MB generation
  /// never lands on a single operation — the same bounded-work discipline
  /// migrate_step applies to the data movement.
  void reclaim_step();

  static std::size_t alt_bucket(const Core& c, std::size_t bucket,
                                std::uint64_t h) {
    // The xor-delta is odd, so with mask >= 1 the alternate differs from
    // `bucket` and the mapping is an involution (recoverable from the key).
    return bucket ^ (static_cast<std::size_t>((h >> 32) | 1) & c.mask);
  }

  /// Finds the ref of (ka,kb) in core `ci`, or kNullRef. Adds the number of
  /// buckets scanned to last_probe_len_.
  Ref find_in_core(int ci, std::uint64_t ka, std::uint64_t kb,
                   std::uint64_t h);
  int find_in_stash(std::uint64_t ka, std::uint64_t kb) const;

  /// Places a loose entry into core `ci` (empty lane, else bounded cuckoo
  /// walk, else stash). Always succeeds; wheel/VRI lists are linked for the
  /// final resting slot.
  void place(int ci, Loose e);
  /// Writes a loose entry into an empty lane and links its lists.
  void emplace_at(int ci, std::size_t pos, const Loose& e);
  /// Unlinks an entry's lists and clears its tag, returning it loose.
  Loose extract(Ref ref);
  /// Removes an entry outright (extract + drop).
  void erase(Ref ref);

  void link_lists(Ref ref);
  void unlink_lists(Ref ref);
  void link_gc(Ref ref, int wheel_slot);
  void unlink_gc(Ref ref);
  void link_vri(Ref ref, int vri);
  void unlink_vri(Ref ref);

  Core& core_of(Ref ref) { return cores_[ref >> 31]; }
  static std::size_t pos_of(Ref ref) { return ref & 0x7FFFFFFFu; }
  static Ref make_ref(int ci, std::size_t pos) {
    return static_cast<Ref>((static_cast<std::uint32_t>(ci) << 31) |
                            static_cast<std::uint32_t>(pos));
  }

  int wheel_slot_for(Nanos deadline) const {
    return static_cast<int>((deadline / gran_) % kWheelSlots);
  }
  bool expired(Nanos last_seen, Nanos now) const {
    return idle_timeout_ > 0 && now - last_seen > idle_timeout_;
  }

  /// Expiry-checks up to `budget` entries of a popped chain; survivors
  /// relink, the unprocessed remainder re-parks on the overflow chain
  /// (wheel_heads_[kWheelSlots]). Returns entries expired.
  std::size_t gc_process_chain(Ref r, std::size_t& budget, Nanos now);

  void maybe_start_resize(Nanos now);
  /// Migrates up to `max_buckets` buckets of the draining generation into
  /// the active one, purging expired entries en route.
  void migrate_step(std::size_t max_buckets, Nanos now);

  std::uint32_t lcg_next() {
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(lcg_ >> 33);
  }

  Core cores_[2];
  int active_ = 0;
  bool resizing_ = false;
  std::size_t migrate_cursor_ = 0;   // next old-generation bucket to drain
  std::size_t migrated_entries_ = 0;

  std::vector<Loose> stash_;
  std::size_t stash_peak_ = 0;
  std::vector<Retired> retired_;

  Nanos idle_timeout_;
  Nanos gran_ = 1;          // wheel slot width: idle_timeout / (kWheelSlots/2)
  Nanos wheel_time_ = 0;    // next wheel boundary gc_tick will process
  // Slot kWheelSlots is the overflow chain: remainder of a chain whose
  // processing exhausted a tick's budget, drained first by the next tick.
  Ref wheel_heads_[kWheelSlots + 1];

  std::vector<Ref> vri_heads_;

  std::uint64_t lcg_ = 0x9E3779B97F4A7C15ULL;  // deterministic kick source
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t expired_total_ = 0;
  std::uint64_t resizes_started_ = 0;
  std::uint64_t resizes_completed_ = 0;
  unsigned last_probe_len_ = 0;
  int max_kicks_seen_ = 0;
  FlowResizeHook on_resize_;
};

}  // namespace lvrm::net
