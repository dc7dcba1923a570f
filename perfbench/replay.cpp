// replay.cpp — per-layer costs that the running world cannot separate,
// measured by replaying what the traced run recorded into one module alone.
//
// Each replay runs several passes over fresh objects and reports the median
// pass, in steady-clock ns per operation.
#include <functional>

#include "lvrm/load_balancer.hpp"
#include "lvrm/vri.hpp"
#include "perfbench.hpp"
#include "sim/event_queue.hpp"
#include "vr/factory.hpp"

namespace perfbench {

namespace {

constexpr int kPasses = 5;
// Outstanding timers in the cancel mix, one per TCP flow of tcp_ftp.
constexpr std::size_t kTimers = 100;

template <typename Fn>
double median_pass_ns(std::size_t ops, Fn&& pass) {
  std::vector<double> per_op;
  for (int p = 0; p < kPasses; ++p) {
    const std::int64_t t0 = steady_ns();
    pass();
    const std::int64_t t1 = steady_ns();
    per_op.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(std::max<std::size_t>(ops, 1)));
  }
  return median_of(per_op);
}

}  // namespace

double replay_event_queue_ns(const std::vector<Nanos>& fired,
                             std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  if (fired.size() <= depth) return 0.0;
  std::uint64_t sink = 0;
  const double ns = median_pass_ns(fired.size() - depth, [&] {
    lvrm::sim::EventQueue q;
    for (std::size_t i = 0; i < depth; ++i)
      q.push(fired[i], [&sink] { ++sink; });
    for (std::size_t i = depth; i < fired.size(); ++i) {
      q.push(fired[i], [&sink] { ++sink; });
      q.pop().cb();
    }
  });
  return sink ? ns : 0.0;
}

double replay_event_cancel_ns(const std::vector<Nanos>& fired,
                              std::size_t depth) {
  // Half the heap is pending events, half re-armed timers. Each op re-arms
  // one timer with a deadline at the heap's far end (the newest event's
  // time); the timer is cancelled a few ops later, but its entry stays in
  // the heap until it surfaces, half the depth of ops later, as a re-armed
  // RTO's does.
  const std::size_t half = std::max<std::size_t>(depth / 2, 1);
  if (fired.size() <= half) return 0.0;
  const std::size_t timers_n =
      std::min(kTimers, std::max<std::size_t>(half / 2, 1));
  std::uint64_t sink = 0;
  const double ns = median_pass_ns(fired.size() - half, [&] {
    lvrm::sim::EventQueue q;
    std::vector<lvrm::sim::EventId> timers(timers_n, lvrm::sim::kInvalidEvent);
    for (std::size_t i = 0; i < half; ++i)
      q.push(fired[i], [&sink] { ++sink; });
    for (std::size_t i = half; i < fired.size(); ++i) {
      auto& timer = timers[i % timers_n];
      q.cancel(timer);
      timer = q.push(fired[i], [&sink] { ++sink; });
      q.push(fired[i], [&sink] { ++sink; });
      q.pop().cb();
    }
  });
  return sink ? ns : 0.0;
}

double replay_dispatch_ns(const std::vector<CapturedFrame>& frames,
                          const lvrm::LvrmConfig& cfg, int vris, int shards) {
  if (frames.empty() || vris < 1 || shards < 1) return 0.0;
  std::uint64_t sink = 0;
  const double ns = median_pass_ns(frames.size(), [&] {
    std::vector<std::unique_ptr<lvrm::Dispatcher>> dispatchers;
    for (int s = 0; s < shards; ++s)
      dispatchers.push_back(std::make_unique<lvrm::Dispatcher>(
          lvrm::make_balancer(cfg.balancer, cfg.seed), cfg.granularity));
    // Loads follow the frames assigned so far, so JSQ spreads new flows
    // across the VRIs as the running world's queues would.
    std::vector<lvrm::VriView> views(static_cast<std::size_t>(vris));
    for (int v = 0; v < vris; ++v) views[static_cast<std::size_t>(v)].index = v;
    for (const CapturedFrame& c : frames) {
      const int vri =
          dispatchers[static_cast<std::size_t>(c.shard % shards)]->dispatch(
              c.frame, views, c.at);
      if (vri >= 0 && vri < vris) views[static_cast<std::size_t>(vri)].load += 1.0;
      sink += static_cast<std::uint64_t>(vri + 1);
    }
  });
  return sink ? ns : 0.0;
}

double replay_vri_process_ns(const std::vector<CapturedFrame>& frames,
                             const lvrm::VrConfig& vr) {
  if (frames.empty()) return 0.0;
  std::uint64_t routed = 0;
  const double ns = median_pass_ns(frames.size(), [&] {
    auto router = lvrm::make_configured_vr(
        vr, vr.route_map.empty() ? lvrm::default_route_map() : vr.route_map);
    for (const CapturedFrame& c : frames) {
      lvrm::net::FrameMeta f = c.frame;
      if (router->process(f)) ++routed;
    }
  });
  return routed ? ns : 0.0;
}

}  // namespace perfbench
