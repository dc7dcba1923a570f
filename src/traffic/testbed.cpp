#include "traffic/testbed.hpp"

namespace lvrm::traffic {

// The host-to-link hops below capture [this, &link, FrameMeta], the largest
// closures on the per-frame path; they must fit sim::Callback's inline
// storage, or every frame pays a heap allocation.
static_assert(2 * sizeof(void*) + sizeof(net::FrameMeta) <=
              sim::Callback::kInlineBytes);

Testbed::Testbed(sim::Simulator& sim, Config config)
    : sim_(sim), config_(config), host_tx_(sim), host_rx_(sim) {
  auto make_link = [&] {
    return std::make_unique<sim::Link>(sim_, config_.link_rate,
                                       config_.propagation, config_.tx_queue);
  };
  for (int i = 0; i < config_.sender_hosts; ++i)
    sender_access_.push_back(make_link());
  for (int i = 0; i < config_.receiver_hosts; ++i)
    receiver_access_.push_back(make_link());
  fwd_trunk_ = make_link();
  rev_trunk_ = make_link();
  out_fwd_ = make_link();
  out_rev_ = make_link();
}

void Testbed::into_gateway(net::FrameMeta frame) {
  if (!gateway_ || !gateway_(frame)) ++gateway_rx_drops_;
}

void Testbed::from_sender(int host, net::FrameMeta frame) {
  sim::Link& access =
      *sender_access_.at(static_cast<std::size_t>(host) % sender_access_.size());
  host_tx_.after(config_.host_tx_latency, [this, &access, frame]() mutable {
    access.transmit(frame.wire_bytes, [this, frame]() mutable {
      fwd_trunk_->transmit(frame.wire_bytes,
                           [this, frame] { into_gateway(frame); });
    });
  });
}

void Testbed::from_receiver(int host, net::FrameMeta frame) {
  sim::Link& access = *receiver_access_.at(static_cast<std::size_t>(host) %
                                           receiver_access_.size());
  host_tx_.after(config_.host_tx_latency, [this, &access, frame]() mutable {
    access.transmit(frame.wire_bytes, [this, frame]() mutable {
      rev_trunk_->transmit(frame.wire_bytes,
                           [this, frame] { into_gateway(frame); });
    });
  });
}

void Testbed::gateway_egress(net::FrameMeta&& frame) {
  if (frame.output_if == 1) {
    out_fwd_->transmit(frame.wire_bytes, [this, frame] {
      host_rx_.after(config_.host_rx_latency, [this, frame]() mutable {
        ++delivered_fwd_;
        if (to_receiver_) to_receiver_(std::move(frame));
      });
    });
  } else {
    out_rev_->transmit(frame.wire_bytes, [this, frame] {
      host_rx_.after(config_.host_rx_latency, [this, frame]() mutable {
        ++delivered_rev_;
        if (to_sender_) to_sender_(std::move(frame));
      });
    });
  }
}

std::uint64_t Testbed::link_drops() const {
  std::uint64_t total = fwd_trunk_->drops() + rev_trunk_->drops() +
                        out_fwd_->drops() + out_rev_->drops();
  for (const auto& l : sender_access_) total += l->drops();
  for (const auto& l : receiver_access_) total += l->drops();
  return total;
}

}  // namespace lvrm::traffic
