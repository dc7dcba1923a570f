#include "sim/link.hpp"

#include <algorithm>
#include <utility>

namespace lvrm::sim {

bool Link::transmit(std::int64_t bytes, Callback deliver) {
  // A frame whose serialization has not begun occupies a TX-ring slot.
  const Nanos now = sim_.now();
  const bool wire_busy = wire_free_at_ > now;
  if (wire_busy && backlog_ >= queue_limit_) {
    ++drops_;
    return false;
  }

  const Nanos start = std::max(now, wire_free_at_);
  const Nanos wire = wire_time(bytes, rate_);
  wire_free_at_ = start + wire;
  busy_time_ += wire;

  if (wire_busy) {
    ++backlog_;
    sim_.at(start, [this] { --backlog_; });
  }

  if (pending_count_ == pending_.size()) {
    std::vector<Callback> grown(std::max<std::size_t>(8, 2 * pending_.size()));
    for (std::size_t i = 0; i < pending_count_; ++i)
      grown[i] = std::move(
          pending_[(pending_head_ + i) & (pending_.size() - 1)]);
    pending_.swap(grown);
    pending_head_ = 0;
  }
  pending_[(pending_head_ + pending_count_) & (pending_.size() - 1)] =
      std::move(deliver);
  ++pending_count_;
  sim_.at(wire_free_at_ + propagation_, [this] { deliver_next(); });
  return true;
}

void Link::deliver_next() {
  // Moved out first: the callback may transmit on this link again.
  Callback deliver = std::move(pending_[pending_head_]);
  pending_head_ = (pending_head_ + 1) & (pending_.size() - 1);
  --pending_count_;
  ++delivered_;
  if (deliver) deliver.consume();
}

}  // namespace lvrm::sim
