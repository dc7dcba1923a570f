#include "lvrm/load_balancer.hpp"

#include <algorithm>
#include <tuple>

#include "common/log.hpp"
#include "sim/costs.hpp"

namespace lvrm {

namespace costs = sim::costs;

// --- JSQ (Fig 3.3 "JSQ") -------------------------------------------------------

int JsqBalancer::pick(std::span<const VriView> vris) {
  // "for each VRI in this VR: remember the VRI with the current shortest
  // queue load". First-wins on ties, matching the strict '<' in Fig 3.3.
  const VriView* best = &vris[0];
  for (const VriView& v : vris.subspan(1))
    if (v.load < best->load) best = &v;
  return best->index;
}

Nanos JsqBalancer::decision_cost(std::size_t n) const {
  return static_cast<Nanos>(n) * costs::kJsqPerVri;
}

// --- Round-robin -----------------------------------------------------------------

int RoundRobinBalancer::pick(std::span<const VriView> vris) {
  // "return the next and valid VRI".
  cursor_ = (cursor_ + 1) % vris.size();
  return vris[cursor_].index;
}

Nanos RoundRobinBalancer::decision_cost(std::size_t) const {
  return costs::kRoundRobinCost;
}

// --- Random ----------------------------------------------------------------------

int RandomBalancer::pick(std::span<const VriView> vris) {
  return vris[rng_.uniform(vris.size())].index;
}

Nanos RandomBalancer::decision_cost(std::size_t) const {
  return costs::kRandomCost;
}

std::unique_ptr<LoadBalancer> make_balancer(BalancerKind kind,
                                            std::uint64_t seed) {
  switch (kind) {
    case BalancerKind::kJoinShortestQueue:
      return std::make_unique<JsqBalancer>();
    case BalancerKind::kRoundRobin:
      return std::make_unique<RoundRobinBalancer>();
    case BalancerKind::kRandom:
      return std::make_unique<RandomBalancer>(seed);
  }
  return nullptr;
}

// --- Dispatcher (Fig 3.3 "balance") -------------------------------------------------

namespace {
/// Initial flow-table capacity hint, in entries (paper scale: thousands of
/// flows per dispatcher).
constexpr std::size_t kFlowCapacity = 4096;
}  // namespace

Dispatcher::Dispatcher(std::unique_ptr<LoadBalancer> inner,
                       BalancerGranularity gran, Nanos flow_idle_timeout)
    : inner_(std::move(inner)),
      granularity_(gran),
      flows_(kFlowCapacity, flow_idle_timeout) {}

std::span<const VriView> Dispatcher::healthy_pool(
    std::span<const VriView> vris) {
  // Health layer: while the watchdog has a VRI under fail-slow suspicion,
  // steer new work to healthy siblings (the suspect keeps draining its
  // queue, which is exactly what either clears or confirms the suspicion).
  // With no healthy alternative the full set is used unchanged.
  //
  // Generation cache: suspicion only changes when the owner bumps the pool
  // generation, so an unchanged generation whose last scan was clean needs
  // no rescan. When a suspect exists the pool is rebuilt every call — the
  // loads in `vris` are fresh per call and the filtered copy must be too.
  if (pool_generation_ != 0 && pool_generation_ == pool_cached_gen_ &&
      !pool_cached_suspect_)
    return vris;
  ++pool_scans_;
  bool any_suspect = false;
  for (const VriView& v : vris) any_suspect |= v.suspect;
  pool_cached_gen_ = pool_generation_;
  pool_cached_suspect_ = any_suspect;
  if (!any_suspect) return vris;
  pool_scratch_.clear();
  for (const VriView& v : vris)
    if (!v.suspect) pool_scratch_.push_back(v);
  return pool_scratch_.empty() ? vris
                               : std::span<const VriView>(pool_scratch_);
}

int Dispatcher::flow_pick(const net::FiveTuple& tuple,
                          std::span<const VriView> vris, Nanos now,
                          bool& hit) {
  ++flow_probes_;
  if (const auto pinned = flows_.lookup(tuple, now)) {
    // "if the entry is found and the VRI of the entry is valid". The pin
    // is validated against the FULL active set, not the healthy pool: a
    // suspect VRI only loses NEW flows — diverting a pinned flow while
    // its older frames still sit in the suspect's (slow) queue would
    // reorder it through a faster sibling. If the suspicion is confirmed,
    // the reset-free drain migrates queue and pins together (§13).
    for (const VriView& v : vris) {
      if (v.index == *pinned) {
        hit = true;
        ++flow_hits_;
        return *pinned;
      }
    }
    // Pinned VRI no longer valid (destroyed): re-balance.
    LVRM_CLOG(kDispatch, kTrace)
        << "stale flow pin vri=" << *pinned << ", re-balancing";
  }
  // The healthy pool is only consulted when the inner scheme actually picks
  // — a pinned flow hit never needs it.
  hit = false;
  const int chosen = inner_->pick(healthy_pool(vris));
  flows_.insert(tuple, chosen, now);  // "VRI of added entry <- ..."
  return chosen;
}

int Dispatcher::dispatch(const net::FrameMeta& frame,
                         std::span<const VriView> vris, Nanos now) {
  ++decisions_;
  if (granularity_ == BalancerGranularity::kFlow)
    return flow_pick(net::FiveTuple::from_frame(frame), vris, now,
                     last_flow_hit_);
  last_flow_hit_ = false;
  return inner_->pick(healthy_pool(vris));
}

Nanos Dispatcher::dispatch_batch(std::span<net::FrameMeta* const> frames,
                                 std::span<const VriView> vris, Nanos now) {
  last_flow_hit_ = false;
  if (frames.empty()) return 0;
  decisions_ += frames.size();

  if (granularity_ != BalancerGranularity::kFlow) {
    // Frame mode has no per-flow state to amortize: one inner pick each,
    // exactly as dispatch() would do.
    const std::span<const VriView> pool = healthy_pool(vris);
    Nanos cost = 0;
    for (net::FrameMeta* f : frames) {
      f->dispatch_vri = static_cast<std::int16_t>(inner_->pick(pool));
      cost += inner_->decision_cost(vris.size());
    }
    return cost;
  }

  // Flow mode: order the burst by 5-tuple (stable via the original index)
  // so frames of one flow form a contiguous run, then probe the flow table
  // once per run. The frames themselves are not reordered — only the
  // decision pass walks in sorted order — so queue order is preserved.
  order_scratch_.clear();
  for (std::uint32_t i = 0; i < frames.size(); ++i) order_scratch_.push_back(i);
  auto key = [&frames](std::uint32_t i) {
    const net::FrameMeta& f = *frames[i];
    return std::make_tuple(f.src_ip, f.dst_ip, f.src_port, f.dst_port,
                           f.protocol);
  };
  std::sort(order_scratch_.begin(), order_scratch_.end(),
            [&key](std::uint32_t a, std::uint32_t b) {
              const auto ka = key(a), kb = key(b);
              return ka != kb ? ka < kb : a < b;
            });

  Nanos cost = 0;
  std::size_t i = 0;
  while (i < order_scratch_.size()) {
    const auto tuple =
        net::FiveTuple::from_frame(*frames[order_scratch_[i]]);
    std::size_t j = i + 1;
    while (j < order_scratch_.size() &&
           net::FiveTuple::from_frame(*frames[order_scratch_[j]]) == tuple)
      ++j;
    // One probe + times() refresh for the whole run.
    bool hit = false;
    const int chosen = flow_pick(tuple, vris, now, hit);
    cost += decision_cost(vris.size(), hit);
    last_flow_hit_ |= hit;
    for (std::size_t k = i; k < j; ++k)
      frames[order_scratch_[k]]->dispatch_vri =
          static_cast<std::int16_t>(chosen);
    i = j;
  }
  return cost;
}

Nanos Dispatcher::decision_cost(std::size_t n_vris, bool flow_hit) const {
  Nanos cost = 0;
  if (granularity_ == BalancerGranularity::kFlow) {
    // Hash-table probe plus the times() timestamp refresh per frame.
    cost += costs::kFlowTableLookup + costs::kFlowTimestampSyscall;
    if (flow_hit) return cost;  // pinned: inner scheme skipped
  }
  return cost + inner_->decision_cost(n_vris);
}

std::size_t Dispatcher::on_vri_destroyed(int vri) {
  LVRM_CLOG(kDispatch, kDebug) << "evicting pinned flows of vri=" << vri;
  return flows_.evict_vri(vri);
}

}  // namespace lvrm
