// Experiment 9 — MPMC virtual-link IPC fabric with work stealing
// (DESIGN.md §17).
//
// The SPSC mesh allocates one ring per (endpoint, peer) pair, so the ring
// inventory grows as V*(2S+2)+S and each VRI's ingress buffering is
// statically split S ways. §17 collapses a VRI's ingress to ONE MpmcLink
// fed by every shard and TX to one per-home-shard MPMC drain, shrinking
// the inventory to V*3+2S and pooling the buffer budget; on top, idle VRIs
// may steal unpinned backlog from overloaded same-VR siblings and idle
// shards may steal TX drain bursts. Acceptance bar: >=4x ring reduction
// and >=1.2x aggregate real-thread fan-in at 8 shards x 16 VRIs, with 0
// ordering violations and 0 lost frames under stealing.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"
#include "queue/mpmc_link.hpp"
#include "queue/spsc_ring.hpp"

using namespace lvrm;
using namespace lvrm::exp;

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<std::uint64_t> g_guard{0};

/// Real-thread S-shard x V-VRI ingress fan-in, mesh vs fabric — the same
/// sparse-traffic model as bench_hotpath's fabric_scaling_* keys (2 hot
/// shards per VRI, equal per-VRI buffer budget, 4+4 capped thread pool).
double fanin_mops(bool fabric, std::size_t shards, std::size_t vris,
                  std::uint64_t per_vri) {
  const std::size_t kProducers = std::min<std::size_t>(4, shards);
  const std::size_t kConsumers = std::min<std::size_t>(4, vris);
  const std::size_t kHotShards = std::min<std::size_t>(2, shards);
  const std::size_t kMeshCap = 16;
  const std::uint64_t per_pair = per_vri / kHotShards;
  const std::uint64_t total = per_pair * kHotShards * vris;
  std::vector<std::unique_ptr<queue::SpscRing<std::uint64_t>>> mesh;
  std::vector<std::unique_ptr<queue::MpmcLink<std::uint64_t>>> links;
  if (fabric) {
    for (std::size_t v = 0; v < vris; ++v)
      links.push_back(std::make_unique<queue::MpmcLink<std::uint64_t>>(
          kMeshCap * shards));
  } else {
    for (std::size_t i = 0; i < vris * shards; ++i)
      mesh.push_back(
          std::make_unique<queue::SpscRing<std::uint64_t>>(kMeshCap));
  }
  std::atomic<std::uint64_t> popped{0};
  const double t0 = now_ns();
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      std::uint64_t buf[16];
      for (std::size_t i = 0; i < 16; ++i) buf[i] = i;
      std::vector<std::pair<std::size_t, std::uint64_t>> work;
      for (std::size_t v = 0; v < vris; ++v)
        for (std::size_t k = 0; k < kHotShards; ++k) {
          const std::size_t s = (v + k) % shards;
          if (s % kProducers != p) continue;
          work.emplace_back(fabric ? v : v * shards + s, per_pair);
        }
      std::size_t live = work.size();
      while (live > 0) {
        bool progressed = false;
        for (auto& [dst, rem] : work) {
          if (rem == 0) continue;
          const std::size_t want =
              static_cast<std::size_t>(std::min<std::uint64_t>(16, rem));
          const std::size_t ok = fabric
                                     ? links[dst]->try_push_batch(buf, want)
                                     : mesh[dst]->try_push_batch(buf, want);
          rem -= ok;
          if (ok > 0) progressed = true;
          if (rem == 0) --live;
        }
        if (!progressed) std::this_thread::yield();
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t buf[64];
      std::uint64_t acc = 0;
      while (popped.load(std::memory_order_relaxed) < total) {
        std::uint64_t round = 0;
        for (std::size_t v = c; v < vris; v += kConsumers) {
          if (fabric) {
            const std::size_t got = links[v]->try_pop_batch(buf, 64);
            for (std::size_t i = 0; i < got; ++i) acc += buf[i];
            round += got;
          } else {
            for (std::size_t s = 0; s < shards; ++s) {
              const std::size_t got =
                  mesh[v * shards + s]->try_pop_batch(buf, 64);
              for (std::size_t i = 0; i < got; ++i) acc += buf[i];
              round += got;
            }
          }
        }
        if (round == 0)
          std::this_thread::yield();
        else
          popped.fetch_add(round, std::memory_order_relaxed);
      }
      g_guard.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = now_ns() - t0;
  return static_cast<double>(total) * 1e3 / elapsed;
}

const char* workload_name(FabricTrialOptions::Workload w) {
  switch (w) {
    case FabricTrialOptions::Workload::kPinned: return "pinned";
    case FabricTrialOptions::Workload::kElephant: return "elephant";
    case FabricTrialOptions::Workload::kSkewFrame: return "skew-frame";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 9: MPMC virtual-link fabric & work stealing",
      "DESIGN.md S17",
      "ring inventory collapses >=4x at 8x16 while arena bytes shrink; "
      "real-thread fan-in >=1.2x the SPSC mesh at 8x16; stealing moves "
      "frames off slowed VRIs with 0 ordering violations and 0 lost "
      "frames");

  // --- ring inventory: mesh vs fabric across topologies --------------------
  TablePrinter inv({"shards", "vris", "mesh rings", "fabric rings", "reduce",
                    "mesh KiB", "fabric KiB", "reclaimed KiB"},
                   args.csv);
  struct Topo { int shards, vris; };
  for (const auto topo : {Topo{4, 8}, Topo{8, 16}, Topo{16, 32}}) {
    FabricTrialOptions opt;
    opt.shards = topo.shards;
    opt.vris = topo.vris;
    opt.seed = args.seed;
    opt.warmup = args.scaled(msec(2));
    opt.measure = args.scaled(msec(5));
    const auto r = run_fabric_trial(opt);
    inv.add_row(
        {TablePrinter::num(static_cast<std::int64_t>(topo.shards)),
         TablePrinter::num(static_cast<std::int64_t>(topo.vris)),
         TablePrinter::num(static_cast<std::int64_t>(r.mesh_rings)),
         TablePrinter::num(static_cast<std::int64_t>(r.fabric_rings)),
         TablePrinter::num(static_cast<double>(r.mesh_rings) /
                               static_cast<double>(r.fabric_rings),
                           2),
         TablePrinter::num(static_cast<double>(r.mesh_ring_bytes) / 1024.0,
                           0),
         TablePrinter::num(static_cast<double>(r.fabric_ring_bytes) / 1024.0,
                           0),
         TablePrinter::num(
             static_cast<double>(r.mesh_ring_bytes - r.fabric_ring_bytes) /
                 1024.0,
             0)});
  }
  inv.print(std::cout);

  // --- real-thread fan-in: aggregate Mops, mesh vs fabric ------------------
  std::cout << "\n";
  TablePrinter fanin({"shards", "vris", "mesh Mops", "fabric Mops", "speedup"},
                     args.csv);
  const std::uint64_t per_vri =
      static_cast<std::uint64_t>(48'000 * args.scale);
  for (const auto topo : {Topo{4, 8}, Topo{8, 16}, Topo{16, 32}}) {
    // Best-of-3: scheduler noise only ever subtracts throughput.
    double mesh_best = 0.0, fab_best = 0.0;
    for (int r = 0; r < 3; ++r) {
      mesh_best = std::max(
          mesh_best, fanin_mops(false, static_cast<std::size_t>(topo.shards),
                                static_cast<std::size_t>(topo.vris), per_vri));
      fab_best = std::max(
          fab_best, fanin_mops(true, static_cast<std::size_t>(topo.shards),
                               static_cast<std::size_t>(topo.vris), per_vri));
    }
    fanin.add_row({TablePrinter::num(static_cast<std::int64_t>(topo.shards)),
                   TablePrinter::num(static_cast<std::int64_t>(topo.vris)),
                   TablePrinter::num(mesh_best, 1),
                   TablePrinter::num(fab_best, 1),
                   TablePrinter::num(fab_best / mesh_best, 2)});
  }
  fanin.print(std::cout);

  // --- work stealing under skew (sim): delivered, steals, invariants -------
  std::cout << "\n";
  TablePrinter steal({"workload", "stealing", "Kfps", "vri steals",
                      "stolen frames", "tx steals", "order viol",
                      "lost"},
                     args.csv);
  for (const auto workload : {FabricTrialOptions::Workload::kPinned,
                              FabricTrialOptions::Workload::kSkewFrame,
                              FabricTrialOptions::Workload::kElephant}) {
    for (const bool stealing : {false, true}) {
      FabricTrialOptions opt;
      opt.shards = 2;
      opt.vris = 4;
      opt.stealing = stealing;
      opt.workload = workload;
      opt.seed = args.seed;
      opt.warmup = args.scaled(opt.warmup);
      opt.measure = args.scaled(opt.measure);
      const auto r = run_fabric_trial(opt);
      steal.add_row(
          {workload_name(workload), stealing ? "on" : "off",
           TablePrinter::num(r.delivered_fps / 1e3, 1),
           TablePrinter::num(static_cast<std::int64_t>(r.vri_steals)),
           TablePrinter::num(static_cast<std::int64_t>(r.vri_steal_frames)),
           TablePrinter::num(static_cast<std::int64_t>(r.tx_steals)),
           TablePrinter::num(
               static_cast<std::int64_t>(r.ordering_violations)),
           TablePrinter::num(static_cast<std::int64_t>(r.lost))});
    }
  }
  steal.print(std::cout);
  return 0;
}
