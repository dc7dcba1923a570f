// testbed.hpp — the Fig 4.1 experimental topology.
//
// Two sub-networks joined by the gateway under test: sender hosts S1/S2 on
// one side, receiver hosts R1/R2 on the other, 1-Gigabit switches and NICs
// throughout. Both directions traverse the gateway (data frames forward,
// ICMP replies and TCP ACKs backward). Each host has its own access link;
// the per-direction trunk into the gateway is the shared 1-Gbps resource
// where line-rate ceilings and TCP's congestion drops arise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "net/frame.hpp"
#include "sim/costs.hpp"
#include "sim/event_lane.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace lvrm::traffic {

class Testbed {
 public:
  struct Config {
    BitsPerSec link_rate = sim::costs::kLinkRate;
    Nanos propagation = sim::costs::kLinkPropagation;
    std::size_t tx_queue = sim::costs::kLinkTxQueue;
    Nanos host_tx_latency = sim::costs::kHostTxLatency;
    Nanos host_rx_latency = sim::costs::kHostRxLatency;
    int sender_hosts = 2;
    int receiver_hosts = 2;
  };

  using IngressFn = std::function<bool(net::FrameMeta)>;
  using DeliverFn = std::function<void(net::FrameMeta&&)>;

  Testbed(sim::Simulator& sim, Config config);

  /// Gateway input hook (frames from either trunk). Must be set before
  /// traffic flows. Return false = device RX drop (counted here).
  void set_gateway(IngressFn ingress) { gateway_ = std::move(ingress); }

  /// Feed the gateway's egress here; routes on frame.output_if:
  /// interface 1 -> receiver sub-network, interface 0 -> sender sub-network.
  void gateway_egress(net::FrameMeta&& frame);

  /// Host injections (index within the respective sub-network).
  void from_sender(int host, net::FrameMeta frame);
  void from_receiver(int host, net::FrameMeta frame);

  /// Delivery callbacks (after the destination host's RX path).
  void set_to_receiver(DeliverFn fn) { to_receiver_ = std::move(fn); }
  void set_to_sender(DeliverFn fn) { to_sender_ = std::move(fn); }

  // --- statistics -------------------------------------------------------------
  std::uint64_t delivered_to_receivers() const { return delivered_fwd_; }
  std::uint64_t delivered_to_senders() const { return delivered_rev_; }
  void mark() { mark_fwd_ = delivered_fwd_; }
  std::uint64_t delivered_to_receivers_since_mark() const {
    return delivered_fwd_ - mark_fwd_;
  }
  std::uint64_t link_drops() const;
  std::uint64_t gateway_rx_drops() const { return gateway_rx_drops_; }
  const sim::Link& forward_trunk() const { return *fwd_trunk_; }
  const sim::Link& reverse_trunk() const { return *rev_trunk_; }

 private:
  void into_gateway(net::FrameMeta frame);

  sim::Simulator& sim_;
  Config config_;
  IngressFn gateway_;
  DeliverFn to_receiver_;
  DeliverFn to_sender_;

  std::vector<std::unique_ptr<sim::Link>> sender_access_;
  std::vector<std::unique_ptr<sim::Link>> receiver_access_;
  std::unique_ptr<sim::Link> fwd_trunk_;  // sender switch -> gateway
  std::unique_ptr<sim::Link> rev_trunk_;  // receiver switch -> gateway
  std::unique_ptr<sim::Link> out_fwd_;    // gateway -> receiver switch
  std::unique_ptr<sim::Link> out_rev_;    // gateway -> sender switch
  // The host stacks' constant latencies keep their frames in order, so each
  // hop waits on a lane, not in the event heap.
  sim::EventLane host_tx_;  // host -> access link
  sim::EventLane host_rx_;  // receiving link -> host

  std::uint64_t delivered_fwd_ = 0;
  std::uint64_t delivered_rev_ = 0;
  std::uint64_t mark_fwd_ = 0;
  std::uint64_t gateway_rx_drops_ = 0;
};

}  // namespace lvrm::traffic
