// worlds.cpp — the three benchmark worlds, built from the public API.
//
// udp_fwd     Exp 1a / Fig 4.2 at 84 B: two UdpSenders x 16 flows through the
//             Fig 4.1 testbed into LVRM's C++ VR on PF_RING (default config),
//             open loop at 400 Kfps (92% of the 435 Kfps achievable rate).
// click_churn Exp 1c's RAM-trace mode: four WorkloadGenerators (Zipf a=1 over
//             64k flows each, 10% SYN flood) straight into a 2-shard LVRM with
//             one Click VR on 4 VRIs, flow-based JSQ, telemetry on.
// tcp_ftp     Exp 3c: 100 TCP Reno flow pairs, closed loop, through 6 C++
//             VRIs with flow-based JSQ behind a 2000-frame bottleneck queue.
//             Starts staggered over 200 ms as in Exp 3c; the warm-up is 1 s
//             instead of Exp 3c's 4 s (see README.md).
#include <cmath>
#include <ctime>

#include "common/rng.hpp"
#include "lvrm/types.hpp"
#include "net/headers.hpp"
#include "net/ip.hpp"
#include "perfbench.hpp"
#include "sim/costs.hpp"

namespace perfbench {

namespace net = lvrm::net;
namespace traffic = lvrm::traffic;
using lvrm::msec;
using lvrm::usec;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "udp_fwd") return Workload::kUdpFwd;
  if (name == "click_churn") return Workload::kClickChurn;
  if (name == "tcp_ftp") return Workload::kTcpFtp;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kUdpFwd: return "udp_fwd";
    case Workload::kClickChurn: return "click_churn";
    case Workload::kTcpFtp: return "tcp_ftp";
  }
  return "?";
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t steady_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void busy_wait_ns(std::int64_t ns) {
  const std::int64_t until = steady_ns() + ns;
  while (steady_ns() < until) {
  }
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSimStep: return "sim.step";
    case Layer::kTestbedIn: return "traffic.testbed_in";
    case Layer::kTestbedOut: return "traffic.testbed_out";
    case Layer::kLvrmIngress: return "lvrm.ingress";
    case Layer::kTcpEndpoint: return "tcp.endpoint";
    case Layer::kBenchSink: return "bench.sink";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanTracer::open(Layer layer, std::uint64_t request) {
  Open o;
  o.rec.id = next_id_++;
  o.rec.parent = stack_.empty() ? 0 : stack_.back().rec.id;
  o.rec.layer = layer;
  o.rec.request = request;
  o.rec.start = steady_ns();
  stack_.push_back(o);
}

void SpanTracer::close() {
  Open o = stack_.back();
  stack_.pop_back();
  o.rec.end = steady_ns();
  const std::int64_t dur = o.rec.end - o.rec.start;
  Totals& t = totals_[static_cast<std::size_t>(o.rec.layer)];
  ++t.count;
  t.inclusive_ns += dur;
  t.self_ns += dur - o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (kept_.size() < keep_) kept_.push_back(o.rec);
}

std::uint64_t request_id(const net::FrameMeta& f) {
  if (f.id != 0) return f.id;
  return (static_cast<std::uint64_t>(f.flow_index + 1) << 40) ^ f.tcp_seq ^
         (static_cast<std::uint64_t>(f.kind) << 60);
}

Plan plan_for(Workload w) {
  Plan p;
  switch (w) {
    case Workload::kUdpFwd:
      p.warmup = msec(50);
      p.window = msec(300);
      p.slice = usec(250);
      p.drain = msec(10);
      break;
    case Workload::kClickChurn:
      p.warmup = msec(20);
      p.window = msec(150);
      p.slice = usec(125);
      p.drain = msec(10);
      break;
    case Workload::kTcpFtp:
      // Past slow start and the start-up RTO timeouts: the window's
      // throughput, retransmit and timeout rates match those after Exp 3c's
      // 4 s warm-up (README.md), at about a third of the host time.
      p.warmup = msec(1000);
      p.window = msec(300);
      p.slice = usec(250);
      p.drain = msec(60);
      break;
  }
  return p;
}

// --- traffic sources (shared with generators_alone_ns) ------------------------

namespace {

constexpr double kUdpRatePerSender = 200'000.0;  // x2 = 400 Kfps
constexpr int kUdpFlows = 16;
const net::Ipv4Addr kUdpSrc[2] = {net::ipv4(10, 1, 1, 1),
                                  net::ipv4(10, 1, 2, 1)};
const net::Ipv4Addr kUdpDst[2] = {net::ipv4(10, 2, 1, 1),
                                  net::ipv4(10, 2, 2, 1)};

constexpr int kChurnGenerators = 4;
constexpr int kChurnFlows = 65536;  // per generator: ~256k legitimate flows
constexpr double kChurnRate = 200'000.0;
constexpr double kChurnAttack = 0.10;
const net::Ipv4Addr kChurnBase = net::ipv4(10, 1, 0, 1);
// A generator spans its base + 4352 addresses (1024 legitimate, 4096 SYN
// flood from +256); bases 8192 apart keep the generators disjoint.
constexpr net::Ipv4Addr kChurnStride = 8192;

constexpr int kTcpPairs = 100;
constexpr Nanos kTcpStagger = msec(200);

/// Seed-drawn start offset of the second UDP sender: the two 2.5 us streams
/// interleave about half an interval apart, as two unsynchronized hosts
/// would. The range keeps the simulated latency percentiles within a few
/// per cent across seeds (offsets near 0 or 2.5 us make the streams
/// collide and shift p99 by 30%).
Nanos udp_phase(std::uint64_t seed) {
  return 900 + static_cast<Nanos>(lvrm::SplitMix64(seed).next() % 500);
}

std::vector<std::unique_ptr<traffic::UdpSender>> make_udp_senders(
    lvrm::sim::Simulator& sim, Nanos stop,
    const std::function<void(int, net::FrameMeta&&)>& sink) {
  std::vector<std::unique_ptr<traffic::UdpSender>> out;
  for (int h = 0; h < 2; ++h) {
    traffic::UdpSender::Config cfg;
    cfg.src_ip = kUdpSrc[h];
    cfg.dst_ip = kUdpDst[h];
    cfg.wire_bytes = 84;
    cfg.flows = kUdpFlows;
    cfg.profile = traffic::UdpSender::constant(kUdpRatePerSender);
    cfg.stop_at = stop;
    out.push_back(std::make_unique<traffic::UdpSender>(
        sim, cfg, [sink, h](net::FrameMeta&& f) { sink(h, std::move(f)); }));
  }
  return out;
}

void start_udp(lvrm::sim::Simulator& sim,
               std::vector<std::unique_ptr<traffic::UdpSender>>& senders,
               std::uint64_t seed, Nanos shift) {
  for (std::size_t h = 0; h < senders.size(); ++h) {
    traffic::UdpSender* s = senders[h].get();
    sim.at(shift + (h == 1 ? udp_phase(seed) : 0), [s] { s->start(); });
  }
}

std::vector<std::unique_ptr<traffic::WorkloadGenerator>> make_churn_generators(
    lvrm::sim::Simulator& sim, std::uint64_t seed, Nanos stop,
    const traffic::WorkloadGenerator::Sink& sink) {
  std::vector<std::unique_ptr<traffic::WorkloadGenerator>> out;
  lvrm::SplitMix64 seeds(seed);
  for (int g = 0; g < kChurnGenerators; ++g) {
    traffic::WorkloadGenerator::Config cfg;
    cfg.src_base = kChurnBase + static_cast<net::Ipv4Addr>(g) * kChurnStride;
    cfg.dst_ip = net::ipv4(10, 2, 0, 1);
    cfg.flows = kChurnFlows;
    cfg.zipf_alpha = 1.0;
    cfg.base_rate = kChurnRate;
    cfg.attack_fraction = kChurnAttack;
    cfg.attack = traffic::AttackMix::kSynFlood;
    cfg.stop_at = stop;
    cfg.seed = seeds.next();
    out.push_back(
        std::make_unique<traffic::WorkloadGenerator>(sim, cfg, sink));
  }
  return out;
}

std::vector<std::unique_ptr<lvrm::tcp::RenoFlow>> make_reno_flows(
    lvrm::sim::Simulator& sim,
    const std::function<void(int, net::FrameMeta)>& send_data,
    const std::function<void(int, net::FrameMeta)>& send_ack) {
  std::vector<std::unique_ptr<lvrm::tcp::RenoFlow>> out;
  for (int i = 0; i < kTcpPairs; ++i) {
    lvrm::tcp::RenoConfig rc;
    rc.flow_index = i;
    rc.sender_ip = net::ipv4(10, 1, static_cast<std::uint8_t>(1 + i % 200),
                             static_cast<std::uint8_t>(1 + i / 200));
    rc.receiver_ip = net::ipv4(10, 2, static_cast<std::uint8_t>(1 + i % 200),
                               static_cast<std::uint8_t>(1 + i / 200));
    rc.receiver_port = static_cast<std::uint16_t>(50000 + i);
    rc.app_drain_rate = lvrm::sim::costs::kFtpAppDrainRate;
    rc.send_jitter = usec(3);
    rc.ack_jitter = usec(300);
    const int host = i % 2;
    out.push_back(std::make_unique<lvrm::tcp::RenoFlow>(
        sim, rc,
        [send_data, host](net::FrameMeta f) { send_data(host, std::move(f)); },
        [send_ack, host](net::FrameMeta f) { send_ack(host, std::move(f)); }));
  }
  return out;
}

void start_reno(std::vector<std::unique_ptr<lvrm::tcp::RenoFlow>>& flows,
                std::uint64_t seed, Nanos shift) {
  lvrm::Rng rng(seed);
  for (auto& flow : flows)
    flow->start(shift + static_cast<Nanos>(rng.uniform(
                            0.0, static_cast<double>(kTcpStagger))));
}

}  // namespace

// --- World --------------------------------------------------------------------

World::World(const WorldOptions& options)
    : opt_(options), plan_(plan_for(options.workload)) {
  switch (opt_.workload) {
    case Workload::kUdpFwd: build_udp_fwd(); break;
    case Workload::kClickChurn: build_click_churn(); break;
    case Workload::kTcpFtp: build_tcp_ftp(); break;
  }
  sys_->set_drop_hook([this](const net::FrameMeta& f, lvrm::DropCause c) {
    ++drops_[static_cast<std::size_t>(c)];
    mix(0xD0 + static_cast<std::uint64_t>(c));
    mix(request_id(f));
    mix(static_cast<std::uint64_t>(sim_.now()));
  });
}

World::~World() = default;

void World::build_udp_fwd() {
  lvrm_cfg_.telemetry.enabled = false;
  lvrm_cfg_.seed = opt_.seed;
  lvrm::exp::GatewayOptions go;
  go.lvrm = lvrm_cfg_;
  gw_ = std::make_unique<lvrm::exp::GatewayUnderTest>(
      sim_, topo_, lvrm::exp::Mechanism::kLvrmPfCpp, go);
  sys_ = gw_->lvrm();
  vr_cfg_.kind = lvrm::VrKind::kCpp;

  attach_testbed(traffic::Testbed::Config{});
  last_id_.assign(2 * kUdpFlows, 0);
  bed_->set_to_receiver([this](net::FrameMeta&& f) {
    ScopedSpan span(opt_.tracer, Layer::kBenchSink, request_id(f));
    note_delivery(f);
    const std::size_t host = f.src_ip == kUdpSrc[1] ? 1 : 0;
    check_order(host * kUdpFlows + static_cast<std::size_t>(f.flow_index),
                f.id);
  });

  udp_ = make_udp_senders(sim_, plan_.stop(),
                          [this](int host, net::FrameMeta&& f) {
                            note_offer(f);
                            ScopedSpan span(opt_.tracer, Layer::kTestbedIn,
                                            request_id(f));
                            bed_->from_sender(host, std::move(f));
                          });
  start_udp(sim_, udp_, opt_.seed, opt_.perturb ? 1 : 0);
}

void World::build_click_churn() {
  lvrm_cfg_.adapter = lvrm::AdapterKind::kMemory;
  lvrm_cfg_.allocator = lvrm::AllocatorKind::kFixed;
  lvrm_cfg_.balancer = lvrm::BalancerKind::kJoinShortestQueue;
  lvrm_cfg_.granularity = lvrm::BalancerGranularity::kFlow;
  lvrm_cfg_.dispatch_shards = 2;
  lvrm_cfg_.telemetry.enabled = true;
  lvrm_cfg_.seed = opt_.seed;
  own_sys_ = std::make_unique<lvrm::LvrmSystem>(sim_, topo_, lvrm_cfg_);
  sys_ = own_sys_.get();
  vr_cfg_.kind = lvrm::VrKind::kClick;
  vr_cfg_.click_use_graph = true;
  vr_cfg_.initial_vris = 4;
  sys_->add_vr(vr_cfg_);
  sys_->start();

  last_id_.assign(static_cast<std::size_t>(kChurnGenerators) * kChurnFlows, 0);
  sys_->set_egress([this](net::FrameMeta&& f) {
    ScopedSpan span(opt_.tracer, Layer::kBenchSink, request_id(f));
    note_egress(f);
    if (opt_.inject_ns > 0) busy_wait_ns(opt_.inject_ns);
    note_delivery(f);
    // SYN-flood frames are fresh 5-tuples; only legitimate flows repeat.
    if (f.protocol == net::kProtoUdp && f.flow_index >= 0) {
      const std::size_t gen = (f.src_ip - kChurnBase) / kChurnStride;
      check_order(gen * kChurnFlows + static_cast<std::size_t>(f.flow_index),
                  f.id);
    }
  });

  gens_ = make_churn_generators(sim_, opt_.seed, plan_.stop(),
                                [this](net::FrameMeta&& f) {
                                  note_offer(f);
                                  ingress(std::move(f));
                                });
  for (auto& g : gens_) {
    traffic::WorkloadGenerator* gen = g.get();
    sim_.at(opt_.perturb ? 1 : 0, [gen] { gen->start(); });
  }
}

void World::build_tcp_ftp() {
  lvrm_cfg_.telemetry.enabled = false;
  lvrm_cfg_.balancer = lvrm::BalancerKind::kJoinShortestQueue;
  lvrm_cfg_.granularity = lvrm::BalancerGranularity::kFlow;
  lvrm_cfg_.allocator = lvrm::AllocatorKind::kFixed;
  lvrm_cfg_.max_vris_per_vr = 6;
  lvrm_cfg_.seed = opt_.seed;
  vr_cfg_.kind = lvrm::VrKind::kCpp;
  vr_cfg_.initial_vris = 6;
  lvrm::exp::GatewayOptions go;
  go.lvrm = lvrm_cfg_;
  go.vrs = {vr_cfg_};
  gw_ = std::make_unique<lvrm::exp::GatewayUnderTest>(
      sim_, topo_, lvrm::exp::Mechanism::kLvrmPfCpp, go);
  sys_ = gw_->lvrm();

  traffic::Testbed::Config bed_cfg;
  bed_cfg.tx_queue = 2000;
  attach_testbed(bed_cfg);
  auto endpoint = [this](net::FrameMeta&& f, bool data) {
    ScopedSpan span(opt_.tracer, Layer::kBenchSink, request_id(f));
    note_delivery(f);
    if (f.flow_index < 0 || f.flow_index >= static_cast<int>(flows_.size()))
      return;
    if (!data && opt_.capture > 0) {
      // An ACK that advances the flow's cumulative ACK re-arms or cancels
      // its RTO timer.
      std::uint64_t& acked = acked_[static_cast<std::size_t>(f.flow_index)];
      if (f.tcp_seq > acked) {
        acked = f.tcp_seq;
        rto_rearms_.push_back(sim_.now());
      }
    }
    ScopedSpan tcp(opt_.tracer, Layer::kTcpEndpoint, request_id(f));
    auto& flow = *flows_[static_cast<std::size_t>(f.flow_index)];
    if (data && f.kind == net::FrameKind::kTcpData)
      flow.on_data_at_receiver(f);
    else if (!data && f.kind == net::FrameKind::kTcpAck)
      flow.on_ack_at_sender(f);
  };
  bed_->set_to_receiver(
      [endpoint](net::FrameMeta&& f) { endpoint(std::move(f), true); });
  bed_->set_to_sender(
      [endpoint](net::FrameMeta&& f) { endpoint(std::move(f), false); });

  // The FTP hosts are cut off from the network at the stop time, so the
  // drain empties every queue and conservation can be checked exactly.
  auto send = [this](int host, net::FrameMeta f, bool data) {
    // Every data segment the sender emits re-arms its RTO timer.
    if (data && opt_.capture > 0) rto_rearms_.push_back(sim_.now());
    if (sim_.now() >= plan_.stop()) {
      ++cut_;
      return;
    }
    note_offer(f);
    ScopedSpan span(opt_.tracer, Layer::kTestbedIn, request_id(f));
    if (data)
      bed_->from_sender(host, std::move(f));
    else
      bed_->from_receiver(host, std::move(f));
  };
  acked_.assign(kTcpPairs, 0);
  flows_ = make_reno_flows(
      sim_,
      [send](int host, net::FrameMeta f) { send(host, std::move(f), true); },
      [send](int host, net::FrameMeta f) { send(host, std::move(f), false); });
  start_reno(flows_, opt_.seed, opt_.perturb ? 1 : 0);
}

void World::attach_testbed(const traffic::Testbed::Config& cfg) {
  bed_ = std::make_unique<traffic::Testbed>(sim_, cfg);
  bed_->set_gateway(
      [this](net::FrameMeta f) { return ingress(std::move(f)); });
  gw_->set_egress([this](net::FrameMeta&& f) {
    note_egress(f);
    ScopedSpan span(opt_.tracer, Layer::kTestbedOut, request_id(f));
    if (opt_.inject_ns > 0) busy_wait_ns(opt_.inject_ns);
    bed_->gateway_egress(std::move(f));
  });
}

bool World::ingress(net::FrameMeta&& f) {
  ++ingress_calls_;
  const Nanos now = sim_.now();
  if (captured_.size() < opt_.capture && now >= plan_.warmup)
    captured_.push_back(CapturedFrame{f, now, sys_->shard_of(f)});
  ScopedSpan span(opt_.tracer, Layer::kLvrmIngress, request_id(f));
  const bool ok = gw_ ? gw_->ingress(std::move(f)) : sys_->ingress(std::move(f));
  if (!ok) ++ingress_rejects_;
  return ok;
}

void World::note_offer(const net::FrameMeta& f) {
  ++offered_;
  if (in_window(f)) ++offered_w_;
  mix(request_id(f));
  mix(static_cast<std::uint64_t>(f.created_at));
}

void World::note_egress(const net::FrameMeta& f) {
  if (in_window(f)) latency_ns_.push_back(sim_.now() - f.gw_in_at);
  mix(request_id(f));
  mix(static_cast<std::uint64_t>(f.gw_in_at));
  mix(static_cast<std::uint64_t>(sim_.now()));
  mix(static_cast<std::uint64_t>(f.dispatch_vri + 1) << 16 |
      static_cast<std::uint64_t>(f.dispatch_shard + 1));
}

void World::note_delivery(const net::FrameMeta& f) {
  ++delivered_;
  if (in_window(f)) ++delivered_w_;
  mix(request_id(f));
  mix(static_cast<std::uint64_t>(f.src_ip) << 32 | f.dst_ip);
  mix(static_cast<std::uint64_t>(f.src_port) << 16 | f.dst_port);
  mix(static_cast<std::uint64_t>(sim_.now()));
}

void World::check_order(std::size_t key, std::uint64_t id) {
  std::uint64_t& last = last_id_[key];
  if (id < last) ++reordered_;
  last = id;
}

void World::mix(std::uint64_t v) {
  // Word-at-a-time FNV-style step: cheap enough for several values per
  // frame, and any changed value changes the digest.
  digest_ = (digest_ ^ v) * 1099511628211ull;
  digest_ ^= digest_ >> 29;
}

double World::core_busy(bool lvrm_cores) const {
  double total = 0.0;
  for (int c = 0; c < topo_.total_cores(); ++c) {
    bool is_shard = false;
    for (int s = 0; s < sys_->shard_count(); ++s)
      is_shard = is_shard || sys_->shard_core(s) == c;
    if (is_shard == lvrm_cores)
      total += static_cast<double>(sys_->core(c).busy_total());
  }
  return total;
}

std::size_t World::rto_rearms_before(Nanos t) const {
  return static_cast<std::size_t>(
      std::upper_bound(rto_rearms_.begin(), rto_rearms_.end(), t) -
      rto_rearms_.begin());
}

std::uint64_t World::tcp_retransmits() const {
  std::uint64_t n = 0;
  for (const auto& flow : flows_) n += flow->retransmits();
  return n;
}

std::uint64_t World::tcp_timeouts() const {
  std::uint64_t n = 0;
  for (const auto& flow : flows_) n += flow->timeouts();
  return n;
}

void World::mark_window_start() {
  lvrm_busy_mark_ = core_busy(true);
  vri_busy_mark_ = core_busy(false);
  tcp_retransmits_mark_ = tcp_retransmits();
  tcp_timeouts_mark_ = tcp_timeouts();
}

void World::mark_window_end() {
  const double window = static_cast<double>(plan_.window);
  lvrm_util_ = (core_busy(true) - lvrm_busy_mark_) /
               (window * sys_->shard_count());
  vri_util_ = (core_busy(false) - vri_busy_mark_) /
              (window * std::max(1, sys_->active_vris(0)));
  tcp_window_retransmits_ = tcp_retransmits() - tcp_retransmits_mark_;
  tcp_window_timeouts_ = tcp_timeouts() - tcp_timeouts_mark_;
}

WorldResult World::finish() {
  WorldResult r;
  const std::uint64_t link_drops = bed_ ? bed_->link_drops() : 0;
  std::uint64_t lvrm_drops = 0;
  for (std::uint64_t d : drops_) lvrm_drops += d;
  r.offered = offered_;
  r.in_flight = static_cast<std::int64_t>(offered_) -
                static_cast<std::int64_t>(delivered_ + link_drops + lvrm_drops);
  r.reordered = reordered_;
  r.ingress_calls = ingress_calls_;
  r.ingress_rejects = ingress_rejects_;
  r.queue_drops = sys_->data_queue_drops();
  using lvrm::DropCause;
  const std::uint64_t rx_side_drops =
      drops_[static_cast<std::size_t>(DropCause::kRxRingFull)] +
      drops_[static_cast<std::size_t>(DropCause::kPoolExhausted)] +
      drops_[static_cast<std::size_t>(DropCause::kAdmissionReject)];

  if (r.in_flight != 0)
    r.errors.push_back("conservation: offered " + std::to_string(offered_) +
                       " != delivered " + std::to_string(delivered_) +
                       " + link drops " + std::to_string(link_drops) +
                       " + lvrm drops " + std::to_string(lvrm_drops) +
                       " (in flight after drain " +
                       std::to_string(r.in_flight) + ")");
  if (ingress_rejects_ != rx_side_drops)
    r.errors.push_back("ingress rejects " + std::to_string(ingress_rejects_) +
                       " != LVRM ingress-side drops " +
                       std::to_string(rx_side_drops));
  if (bed_ && bed_->gateway_rx_drops() != ingress_rejects_)
    r.errors.push_back("testbed gateway RX drops disagree with ingress");
  if (reordered_ != 0)
    r.errors.push_back("per-flow reordering: " + std::to_string(reordered_));
  if (offered_w_ == 0) r.errors.push_back("no traffic in the window");

  r.offered_window = offered_w_;
  r.delivered_window = delivered_w_;
  r.latency_ns = std::move(latency_ns_);
  r.window_seconds = lvrm::to_seconds(plan_.window);

  r.events = sim_.events_processed();
  r.lvrm_core_util = lvrm_util_;
  r.vri_core_util = vri_util_;
  for (int s = 0; s < sys_->shard_count(); ++s) {
    const lvrm::Dispatcher& d = sys_->dispatcher(0, s);
    r.flow_probes += d.flow_probes();
    r.flow_hits += d.flow_hits();
    r.flow_entries += d.flow_entries();
    r.flow_slots += d.flow_slots();
  }
  for (int v = 0; v < sys_->active_vris(0); ++v)
    r.vri_forwarded.push_back(sys_->vri_forwarded(0, v));
  r.tcp_retransmits = tcp_retransmits();
  r.tcp_timeouts = tcp_timeouts();
  r.tcp_window_retransmits = tcp_window_retransmits_;
  r.tcp_window_timeouts = tcp_window_timeouts_;

  // Every simulated statistic goes into the digest; host-side counts
  // (events, flow-table slots) do not, since a pure speed-up may change them.
  mix(offered_);
  mix(delivered_);
  mix(link_drops);
  mix(cut_);
  for (std::uint64_t d : drops_) mix(d);
  mix(sys_->forwarded());
  for (std::uint64_t v : r.vri_forwarded) mix(v);
  mix(r.flow_entries);
  mix(r.flow_hits);
  for (const auto& flow : flows_) {
    mix(flow->segments_delivered());
    mix(flow->retransmits());
    mix(flow->timeouts());
  }
  for (int c = 0; c < topo_.total_cores(); ++c) {
    const auto& core = sys_->core(c);
    for (auto cat : {lvrm::sim::CostCategory::kUser,
                     lvrm::sim::CostCategory::kSystem,
                     lvrm::sim::CostCategory::kSoftirq})
      mix(static_cast<std::uint64_t>(core.busy(cat)));
    mix(core.context_switches());
  }
  r.digest = digest_;
  return r;
}

// --- generators alone ---------------------------------------------------------

double generators_alone_ns(Workload w, std::uint64_t seed) {
  const Plan plan = plan_for(w);
  lvrm::sim::Simulator sim;
  std::uint64_t frames = 0;
  std::vector<std::unique_ptr<traffic::UdpSender>> udp;
  std::vector<std::unique_ptr<traffic::WorkloadGenerator>> gens;
  std::vector<std::unique_ptr<lvrm::tcp::RenoFlow>> flows;
  switch (w) {
    case Workload::kUdpFwd:
      udp = make_udp_senders(sim, plan.stop(),
                             [&frames](int, net::FrameMeta&&) { ++frames; });
      start_udp(sim, udp, seed, 0);
      break;
    case Workload::kClickChurn:
      gens = make_churn_generators(sim, seed, plan.stop(),
                                   [&frames](net::FrameMeta&&) { ++frames; });
      for (auto& g : gens) g->start();
      break;
    case Workload::kTcpFtp: {
      // The endpoints close their own loop over a fixed 50 us path: TCP's
      // send/ACK/timer cost without the network.
      auto* fl = &flows;
      flows = make_reno_flows(
          sim,
          [&sim, &frames, fl](int, net::FrameMeta f) {
            ++frames;
            sim.after(usec(50), [fl, f] {
              (*fl)[static_cast<std::size_t>(f.flow_index)]
                  ->on_data_at_receiver(f);
            });
          },
          [&sim, &frames, fl](int, net::FrameMeta f) {
            ++frames;
            sim.after(usec(50), [fl, f] {
              (*fl)[static_cast<std::size_t>(f.flow_index)]->on_ack_at_sender(
                  f);
            });
          });
      start_reno(flows, seed, 0);
      break;
    }
  }
  // TCP's loopback is unthrottled by any link, so a short period suffices.
  const Nanos until = w == Workload::kTcpFtp ? msec(60) : plan.stop();
  const std::int64_t t0 = thread_cpu_ns();
  sim.run_until(until);
  const std::int64_t t1 = thread_cpu_ns();
  return frames ? static_cast<double>(t1 - t0) / static_cast<double>(frames)
                : 0.0;
}

}  // namespace perfbench
