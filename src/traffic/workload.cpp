#include "traffic/workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "net/headers.hpp"

namespace lvrm::traffic {

const char* to_string(FlowClass c) {
  switch (c) {
    case FlowClass::kMouse: return "mouse";
    case FlowClass::kElephant: return "elephant";
    case FlowClass::kAttack: return "attack";
  }
  return "?";
}

ZipfRanks::ZipfRanks(int flows, double alpha) {
  const std::size_t n = static_cast<std::size_t>(std::max(flows, 1));
  // weight(r) = 1/(r+1)^alpha. With alpha=1 and 256 flows the top 4% of
  // ranks carry roughly a third of the frames — the elephants.
  cdf_.reserve(n);
  double cum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    cum += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
    cdf_.push_back(cum);
  }
  for (double& c : cdf_) c /= cum;

  // One merge-like pass: guide[k] = first rank whose CDF is >= k/G.
  const std::size_t g = std::bit_ceil(std::max<std::size_t>(1, (n + 7) / 8));
  scale_ = static_cast<double>(g);
  guide_.resize(g + 1);
  std::size_t r = 0;
  for (std::size_t k = 0; k <= g; ++k) {
    const double edge = static_cast<double>(k) / scale_;
    while (r < n && cdf_[r] < edge) ++r;
    guide_[k] = static_cast<std::uint32_t>(r);
  }
}

int ZipfRanks::pick(double u) const {
  // Outside [0,1) (never, for Rng::uniform01) the bucket bound does not hold.
  if (!(u >= 0.0 && u < 1.0)) return pick_by_search(u);
  const auto k = static_cast<std::size_t>(u * scale_);
  const auto first = cdf_.begin() + guide_[k];
  const auto last = cdf_.begin() + guide_[k + 1];
  const auto rank = std::lower_bound(first, last, u) - cdf_.begin();
  return static_cast<int>(std::min<std::ptrdiff_t>(
      rank, static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

int ZipfRanks::pick_by_search(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

WorkloadGenerator::WorkloadGenerator(sim::Simulator& sim, Config config,
                                     Sink sink)
    : sim_(sim),
      config_(std::move(config)),
      sink_(std::move(sink)),
      rng_(config_.seed),
      zipf_(config_.flows, config_.zipf_alpha) {
  const int flows = std::max(config_.flows, 1);
  config_.flows = flows;
  elephant_count_ =
      config_.elephant_fraction > 0.0
          ? std::max(1, static_cast<int>(static_cast<double>(flows) *
                                         config_.elephant_fraction))
          : 0;
}

void WorkloadGenerator::start() {
  sim_.at(0, [this] { emit(); });
}

FramesPerSec WorkloadGenerator::rate_at(Nanos t) const {
  double mult = 1.0;
  if (config_.flash_at >= 0 && config_.flash_multiplier > 1.0) {
    const Nanos ramp = std::max<Nanos>(1, config_.flash_ramp);
    const Nanos t0 = config_.flash_at;
    const Nanos t1 = t0 + ramp;
    const Nanos t2 = t1 + config_.flash_hold;
    const Nanos t3 = t2 + ramp;
    const double peak = config_.flash_multiplier;
    if (t >= t0 && t < t1) {
      mult = 1.0 + (peak - 1.0) * static_cast<double>(t - t0) /
                       static_cast<double>(ramp);
    } else if (t >= t1 && t < t2) {
      mult = peak;
    } else if (t >= t2 && t < t3) {
      mult = peak - (peak - 1.0) * static_cast<double>(t - t2) /
                        static_cast<double>(ramp);
    }
  }
  return config_.base_rate * mult;
}

FlowClass WorkloadGenerator::class_of(const net::FrameMeta& f) const {
  if (f.protocol != net::kProtoUdp) return FlowClass::kAttack;
  const int rank = static_cast<int>(f.src_port) -
                   static_cast<int>(config_.src_port_base);
  return rank >= 0 && rank < elephant_count_ ? FlowClass::kElephant
                                             : FlowClass::kMouse;
}

net::FrameMeta WorkloadGenerator::make_legit(Nanos now) {
  const int flow = pick_flow();
  net::FrameMeta f;
  f.id = next_id_++;
  f.kind = net::FrameKind::kUdp;
  f.protocol = net::kProtoUdp;
  f.wire_bytes = config_.wire_bytes;
  // Spread flows over a few source addresses (64 ports each) so subnetting
  // stays realistic while every rank keeps a distinct 5-tuple.
  f.src_ip = config_.src_base + static_cast<net::Ipv4Addr>(flow >> 6);
  f.dst_ip = config_.dst_ip;
  f.src_port = static_cast<std::uint16_t>(config_.src_port_base + flow);
  f.dst_port = config_.dst_port;
  f.flow_index = flow;
  f.created_at = now;
  return f;
}

net::FrameMeta WorkloadGenerator::make_attack(Nanos now) {
  net::FrameMeta f;
  f.id = next_id_++;
  f.kind = net::FrameKind::kTcpData;
  f.protocol = net::kProtoTcp;
  f.wire_bytes = config_.wire_bytes;
  f.dst_ip = config_.dst_ip;
  f.created_at = now;
  if (config_.attack == AttackMix::kSynFlood) {
    // Spoofed sources and random ports: every frame is a fresh 5-tuple, so
    // flow tables and per-flow sampling subsets see nothing but misses.
    // Offsets stay inside the generator's /16 so classification is stable.
    f.src_ip = config_.src_base + 256 +
               static_cast<net::Ipv4Addr>(rng_.next() % 4096);
    f.src_port = static_cast<std::uint16_t>(1024 + rng_.next() % 60000);
    f.dst_port = 80;
  } else {
    // Port scan: one fixed source walking the destination port space.
    f.src_ip = config_.src_base + 255;
    f.src_port = 31337;
    f.dst_port = scan_port_++;
    if (scan_port_ == 0) scan_port_ = 1;
  }
  return f;
}

void WorkloadGenerator::emit() {
  const Nanos now = sim_.now();
  if (now >= config_.stop_at) return;
  const bool attack = config_.attack_fraction > 0.0 &&
                      rng_.uniform01() < config_.attack_fraction;
  net::FrameMeta f = attack ? make_attack(now) : make_legit(now);
  ++sent_;
  ++sent_by_class_[static_cast<std::size_t>(class_of(f))];
  sink_(std::move(f));
  schedule_next();
}

void WorkloadGenerator::schedule_next() {
  const FramesPerSec rate = rate_at(sim_.now());
  const Nanos gap =
      rate > 0.0 ? std::max(interval_for_rate(rate), config_.min_gap)
                 : config_.min_gap;
  sim_.after(gap, [this] { emit(); });
}

}  // namespace lvrm::traffic
