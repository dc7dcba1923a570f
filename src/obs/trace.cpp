#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>

#include "obs/export.hpp"

namespace lvrm::obs {

const char* to_string(FlightDumpCause c) {
  switch (c) {
    case FlightDumpCause::kVriCrash: return "vri_crash";
    case FlightDumpCause::kQuarantine: return "quarantine";
    case FlightDumpCause::kAdmission: return "admission";
    case FlightDumpCause::kManual: return "manual";
  }
  return "unknown";
}

namespace {
std::uint32_t clamp_period(std::uint32_t p, const TracingConfig& cfg) {
  const std::uint32_t lo = cfg.min_sample_every == 0 ? 1 : cfg.min_sample_every;
  const std::uint32_t hi = std::max(lo, cfg.max_sample_every);
  return std::min(std::max(p, lo), hi);
}
}  // namespace

Tracer::Tracer(const TracingConfig& cfg, int shards)
    : cfg_(cfg),
      sampler_(clamp_period(cfg.initial_sample_every, cfg)) {
  const int n = shards < 1 ? 1 : shards;
  recorders_.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s)
    recorders_.emplace_back(cfg_.recorder_capacity);
  // Pre-size the span buffer past the early geometric-growth copies; the
  // cap stays cfg_.max_spans (add_span drops beyond it).
  spans_.reserve(std::min<std::size_t>(cfg_.max_spans, 1024));
}

std::uint64_t Tracer::records_total() const {
  std::uint64_t total = 0;
  for (const auto& r : recorders_) total += r.total();
  return total;
}

void Tracer::adapt(Nanos now) {
  const double pressure =
      win_frames_ == 0
          ? 0.0
          : static_cast<double>(win_pressured_) /
                static_cast<double>(win_frames_);
  const std::uint32_t period = sampler_.period();
  std::uint32_t next = period;
  if (pressure >= cfg_.escalate_pressure) {
    // Overload: back span resolution off (longer period, fewer samples).
    next = clamp_period(period * 2, cfg_);
  } else if (pressure <= cfg_.relax_pressure) {
    // Idle: raise resolution toward 1-in-min_sample_every.
    next = clamp_period(period / 2, cfg_);
  }
  if (next != period) {
    sampler_.set_period(next);
    ++adaptations_;
  }
  win_started_ = now;
  win_frames_ = 0;
  win_pressured_ = 0;
}

std::uint64_t Tracer::dump(Nanos now, FlightDumpCause cause, int shard,
                           int vr, int vri) {
  FlightDump d;
  d.time = now;
  d.reason = to_string(cause);
  d.shard = shard;
  d.vr = vr;
  d.vri = vri;
  d.seq = dump_seq_++;
  d.records_total = records_total();
  for (const auto& r : recorders_) {
    const auto snap = r.snapshot();
    d.records.insert(d.records.end(), snap.begin(), snap.end());
  }
  // Per-ring snapshots are already oldest-to-newest; merge to one global
  // timeline (stable: ties keep shard order, matching write order per ring).
  std::stable_sort(
      d.records.begin(), d.records.end(),
      [](const TraceRecord& a, const TraceRecord& b) { return a.t < b.t; });

  if (!cfg_.dump_dir.empty()) {
    const std::string path = cfg_.dump_dir + "/flight_" +
                             std::to_string(d.seq) + "_" + d.reason + ".json";
    std::ofstream os(path);
    if (os) write_flight_dump(d, os);
  }
  last_dump_records_ = d.records.size();
  if (dumps_.size() < cfg_.max_dumps) dumps_.push_back(std::move(d));
  return dump_seq_ - 1;
}

}  // namespace lvrm::obs
