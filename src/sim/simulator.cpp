#include "sim/simulator.hpp"

namespace lvrm::sim {

void Simulator::run_until(Nanos deadline) {
  while (queue_.fire_due(deadline, now_, processed_)) {
  }
  now_ = std::max(now_, deadline);
}

void Simulator::run_all(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (fired < max_events && step()) ++fired;
}

}  // namespace lvrm::sim
