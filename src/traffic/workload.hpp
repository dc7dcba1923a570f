// workload.hpp — flash-crowd / adversarial workload generator (Exp 6).
//
// The constant-rate UdpSender models Sec 4.1's benign sources; overload
// experiments need the opposite: heavy-tailed flow sizes (a few elephants
// carry most frames), a flash crowd that ramps the aggregate rate past the
// gateway's capacity and back, and an adversarial slice (SYN-flood or
// port-scan frames whose 5-tuples never repeat, defeating any per-flow
// cache). WorkloadGenerator emits exactly that mix deterministically from a
// seed, and classifies every frame into a FlowClass so harnesses can check
// per-class conservation (delivered + shed + rejected == offered) and that
// load shedding degrades mice before elephants' aggregate fidelity.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/frame.hpp"
#include "net/ip.hpp"
#include "sim/costs.hpp"
#include "sim/simulator.hpp"

namespace lvrm::traffic {

/// Traffic class of a generated frame (for per-class accounting).
enum class FlowClass { kMouse = 0, kElephant = 1, kAttack = 2 };
const char* to_string(FlowClass c);
inline constexpr int kFlowClassCount = 3;

/// Shape of the adversarial slice.
enum class AttackMix {
  kSynFlood,  // spoofed sources, random ports: every frame a fresh 5-tuple
  kPortScan,  // one source walking the destination port space
};

/// Zipf-weighted flow ranks: weight(r) = 1/(r+1)^alpha over `flows` ranks,
/// rank 0 heaviest. pick(u) maps a uniform draw to the first rank whose CDF
/// is >= u (clamped to the last rank), the inverse-CDF binary search, but
/// looks only inside one guide bucket: guide[k] is the first rank whose CDF
/// is >= k/G, for a power of two G >= flows/8. With u in [0,1) and
/// k = floor(u*G), the rank lies in [guide[k], guide[k+1]]; both k/G and u*G
/// are exact in binary floating point, so the result is the full search's,
/// bit for bit, in about log2(flows/G) steps instead of log2(flows).
class ZipfRanks {
 public:
  ZipfRanks(int flows, double alpha);

  int pick(double u) const;
  /// The reference: clamped std::lower_bound over the whole CDF.
  int pick_by_search(double u) const;

  /// Cumulative weights, normalized to 1.
  const std::vector<double>& cdf() const { return cdf_; }
  /// G, the number of guide buckets (a power of two).
  std::size_t buckets() const { return guide_.size() - 1; }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // G + 1 entries
  double scale_ = 1.0;                // G
};

class WorkloadGenerator {
 public:
  struct Config {
    net::Ipv4Addr src_base = net::ipv4(10, 1, 0, 1);
    net::Ipv4Addr dst_ip = net::ipv4(10, 2, 0, 1);
    std::uint16_t src_port_base = 20000;
    std::uint16_t dst_port = 9;  // discard
    int wire_bytes = 84;

    /// Distinct legitimate 5-tuples; flow ranks are Zipf-weighted, rank 0
    /// heaviest. The top `elephant_fraction` of ranks are elephants.
    int flows = 256;
    double zipf_alpha = 1.0;
    double elephant_fraction = 0.04;

    FramesPerSec base_rate = 50'000.0;

    /// Flash-crowd envelope: the aggregate rate ramps linearly from
    /// base_rate to base_rate*flash_multiplier over `flash_ramp` starting at
    /// `flash_at`, holds the peak for `flash_hold`, then ramps back down
    /// over another `flash_ramp`. Negative flash_at disables the flash.
    Nanos flash_at = -1;
    Nanos flash_ramp = msec(5);
    Nanos flash_hold = msec(20);
    double flash_multiplier = 2.0;

    /// Fraction of emitted frames drawn from the adversarial mix.
    double attack_fraction = 0.0;
    AttackMix attack = AttackMix::kSynFlood;

    Nanos stop_at = sec(60);
    /// Host kernel ceiling: minimum achievable gap between frames.
    Nanos min_gap = sim::costs::kSenderPerFrame;
    std::uint64_t seed = 42;
  };

  using Sink = std::function<void(net::FrameMeta&&)>;

  WorkloadGenerator(sim::Simulator& sim, Config config, Sink sink);
  WorkloadGenerator(const WorkloadGenerator&) = delete;
  WorkloadGenerator& operator=(const WorkloadGenerator&) = delete;

  void start();

  /// The flash envelope's aggregate rate at virtual time `t`.
  FramesPerSec rate_at(Nanos t) const;

  /// Class of a frame THIS generator emitted (pure function of the frame's
  /// protocol and source port, so harnesses can classify at any tap point).
  FlowClass class_of(const net::FrameMeta& f) const;

  std::uint64_t sent() const { return sent_; }
  std::uint64_t sent(FlowClass c) const {
    return sent_by_class_[static_cast<std::size_t>(c)];
  }
  /// Number of top Zipf ranks classified as elephants.
  int elephant_count() const { return elephant_count_; }

 private:
  void emit();
  void schedule_next();
  int pick_flow() { return zipf_.pick(rng_.uniform01()); }
  net::FrameMeta make_legit(Nanos now);
  net::FrameMeta make_attack(Nanos now);

  sim::Simulator& sim_;
  Config config_;
  Sink sink_;
  Rng rng_;
  ZipfRanks zipf_;
  int elephant_count_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint16_t scan_port_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t sent_by_class_[kFlowClassCount] = {0, 0, 0};
};

}  // namespace lvrm::traffic
