// Differential tests for sim::EventLane and the lane-based sim::Link.
//
// An EventLane must be indistinguishable from one Simulator::at per item: the
// same (time, tag) firing sequence, the same EventIds handed to interleaved
// at() calls, the same events_processed(). Each test builds a seeded random
// schedule with many equal-nanosecond ties twice, once on lanes and once with
// plain at() calls, and compares the two runs. Link is compared the same way
// against ModelLink, the event-per-frame link it replaced.
#include "sim/event_lane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace lvrm::sim {
namespace {

// --- EventLane vs one at() per item ------------------------------------------

struct Fired {
  Nanos at;
  int tag;
  bool operator==(const Fired&) const = default;
};

// A random schedule over `lanes` FIFO lanes and plain events. Every fired item
// may schedule more, onto any lane or as a plain event, until `budget` items
// exist. With `use_lanes` false, each lane push becomes a Simulator::at.
class LaneSchedule {
 public:
  LaneSchedule(bool use_lanes, std::uint64_t seed, std::size_t lanes,
               int budget)
      : use_lanes_(use_lanes),
        rng_(seed),
        budget_(budget),
        tail_(lanes, 0),
        pending_(lanes, 0) {
    for (std::size_t k = 0; k < lanes; ++k)
      lanes_.push_back(std::make_unique<EventLane>(sim_));
  }

  void run() {
    random_ops(8);
    // Partial runs first, so pushes also land while items wait past a
    // deadline.
    for (int i = 0; i < 4 && !sim_.idle(); ++i)
      sim_.run_until(sim_.now() + static_cast<Nanos>(rng_.uniform(6)));
    sim_.run_all();
  }

  std::vector<Fired> fired;
  std::vector<EventId> at_ids;
  std::uint64_t events() const { return sim_.events_processed(); }
  Nanos now() const { return sim_.now(); }
  int lane_size_mismatches = 0;

 private:
  void lane_push(std::size_t k, Nanos when) {
    when = std::max({when, tail_[k], sim_.now()});
    tail_[k] = when;
    ++pending_[k];
    const int tag = next_tag_++;
    auto cb = [this, k, tag] { on_fire(static_cast<int>(k), tag); };
    if (use_lanes_) {
      lanes_[k]->at(when, cb);
    } else {
      sim_.at(when, cb);
    }
  }

  void plain(Nanos when) {
    const int tag = next_tag_++;
    at_ids.push_back(sim_.at(when, [this, tag] { on_fire(-1, tag); }));
  }

  void random_ops(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n && next_tag_ < budget_; ++i) {
      // Times a few ns ahead: most items tie with others.
      const Nanos when = sim_.now() + static_cast<Nanos>(rng_.uniform(4));
      if (rng_.uniform(3) == 0) {
        plain(when);
      } else {
        lane_push(rng_.uniform(lanes_.size()), when);
      }
    }
  }

  void on_fire(int lane, int tag) {
    fired.push_back({sim_.now(), tag});
    if (lane >= 0) --pending_[static_cast<std::size_t>(lane)];
    if (use_lanes_) {
      for (std::size_t k = 0; k < lanes_.size(); ++k)
        if (lanes_[k]->size() != pending_[k]) ++lane_size_mismatches;
    }
    random_ops(rng_.uniform(4));
  }

  Simulator sim_;
  bool use_lanes_;
  Rng rng_;
  int budget_;
  int next_tag_ = 0;
  std::vector<std::unique_ptr<EventLane>> lanes_;
  std::vector<Nanos> tail_;
  std::vector<std::size_t> pending_;
};

TEST(EventLane, RandomSchedulesMatchOneAtPerItem) {
  std::size_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const std::size_t lanes = 1 + seed % 4;
    LaneSchedule lane(true, seed, lanes, 400);
    LaneSchedule model(false, seed, lanes, 400);
    lane.run();
    model.run();
    fired += lane.fired.size();
    ASSERT_EQ(lane.fired, model.fired) << "seed " << seed;
    ASSERT_EQ(lane.at_ids, model.at_ids) << "seed " << seed;
    ASSERT_EQ(lane.events(), model.events()) << "seed " << seed;
    ASSERT_EQ(lane.now(), model.now()) << "seed " << seed;
    ASSERT_EQ(lane.lane_size_mismatches, 0) << "seed " << seed;
  }
  EXPECT_GT(fired, 300u * 300u);  // most schedules ran to their budget
}

TEST(EventLane, TiesFireInPushOrderAcrossLanesAndPlainEvents) {
  Simulator sim;
  EventLane a(sim), b(sim);
  std::vector<int> order;
  auto tag = [&order](int t) { return [&order, t] { order.push_back(t); }; };
  a.at(5, tag(0));
  sim.at(5, tag(1));
  b.at(5, tag(2));
  a.at(5, tag(3));
  const EventId id = sim.at(5, tag(4));
  b.at(7, tag(5));
  a.at(6, tag(6));
  // Two plain events and three lane items took ids 1..5 in push order.
  EXPECT_EQ(id, 5u);
  // A lane item's id is nobody's handle: cancelling it changes nothing.
  sim.cancel(1);
  sim.cancel(4);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 6, 5}));
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(EventLane, SizeCountsPendingItemsAndClampsToNow) {
  Simulator sim;
  EventLane lane(sim);
  std::vector<Nanos> times;
  sim.run_until(100);
  lane.at(50, [&] { times.push_back(sim.now()); });  // in the past: now
  lane.after(-5, nullptr);  // negative delay: now; empty callback still fires
  lane.after(10, [&] { times.push_back(sim.now()); });
  EXPECT_EQ(lane.size(), 3u);
  EXPECT_FALSE(sim.idle());
  sim.run_all();
  EXPECT_EQ(times, (std::vector<Nanos>{100, 110}));
  EXPECT_EQ(lane.size(), 0u);
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_TRUE(sim.idle());
}

TEST(EventLane, CallbackPushesOntoItsOwnFullRing) {
  // Eight items fill the first ring. The head's callback runs after its slot
  // is freed, so its first push refills that slot while the callback runs,
  // and its second grows the full ring.
  Simulator sim;
  EventLane lane(sim);
  std::vector<int> order;
  int next = 8;
  std::function<void(int)> item = [&](int t) {
    order.push_back(t);
    if (next < 40) {
      const int a = next++, b = next++;
      lane.at(sim.now() + 1, [&item, a] { item(a); });
      lane.at(sim.now() + 1, [&item, b] { item(b); });
    }
  };
  for (int t = 0; t < 8; ++t) lane.at(0, [&item, t] { item(t); });
  sim.run_all();
  ASSERT_EQ(order.size(), 40u);
  for (int t = 0; t < 40; ++t) EXPECT_EQ(order[static_cast<std::size_t>(t)], t);
  EXPECT_EQ(sim.events_processed(), 40u);
}

TEST(EventLane, ThrowingCallbackLeavesTheLaneConsistent) {
  Simulator sim;
  EventLane lane(sim);
  int ran = 0;
  lane.at(1, [] { throw 7; });
  lane.at(2, [&] { ++ran; });
  EXPECT_THROW(sim.run_all(), int);
  EXPECT_EQ(lane.size(), 1u);
  sim.run_all();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(lane.size(), 0u);
}

#ifndef NDEBUG
TEST(EventLaneDeathTest, EarlierTimeThanThePendingTailAsserts) {
  Simulator sim;
  EventLane lane(sim);
  lane.at(10, nullptr);
  EXPECT_DEATH(lane.at(9, nullptr), "");
}
#endif

// --- Link vs the event-per-frame link it replaced ----------------------------

// The link as it was before event lanes: one Simulator::at per serialization
// start (which frees a TX-queue slot) and one per delivery.
class ModelLink {
 public:
  ModelLink(Simulator& sim, BitsPerSec rate, Nanos propagation,
            std::size_t queue_limit)
      : sim_(sim),
        rate_(rate),
        propagation_(propagation),
        queue_limit_(queue_limit) {}

  template <typename F>
  bool transmit(std::int64_t bytes, F&& deliver) {
    const Nanos now = sim_.now();
    const bool wire_busy = wire_free_at_ > now;
    if (wire_busy && backlog_ >= queue_limit_) {
      ++drops_;
      // A queued frame starts serializing right now, but its start event
      // has not fired yet, so its slot still counts.
      if (!starts_.empty() && starts_.front() == now) ++drops_at_start_;
      return false;
    }
    const Nanos start = std::max(now, wire_free_at_);
    const Nanos wire = wire_time(bytes, rate_);
    wire_free_at_ = start + wire;
    busy_time_ += wire;
    if (wire_busy) {
      ++backlog_;
      starts_.push_back(start);
      sim_.at(start, [this] {
        --backlog_;
        starts_.pop_front();
      });
    }
    sim_.at(wire_free_at_ + propagation_,
            [this, cb = Callback(std::forward<F>(deliver))]() mutable {
              ++delivered_;
              if (cb) cb.consume();
            });
    return true;
  }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t drops() const { return drops_; }
  std::size_t backlog() const { return backlog_; }
  Nanos busy_time() const { return busy_time_; }
  std::uint64_t drops_at_start() const { return drops_at_start_; }

 private:
  Simulator& sim_;
  BitsPerSec rate_;
  Nanos propagation_;
  std::size_t queue_limit_;
  Nanos wire_free_at_ = 0;
  std::size_t backlog_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t drops_ = 0;
  Nanos busy_time_ = 0;
  std::deque<Nanos> starts_;
  std::uint64_t drops_at_start_ = 0;
};

// What one fired callback saw: its time and tag, and every link's counters.
struct LinkObs {
  Nanos at;
  int tag;
  std::vector<std::tuple<std::size_t, std::uint64_t, std::uint64_t>> links;
  bool operator==(const LinkObs&) const = default;
};

// Frames of 63/125/250 B at 1 Gbps (504/1000/2000 ns of wire) offered on a
// 500 ns grid to links with 1-4 frame queues: serialization starts, plain
// events and deliveries keep landing on the same nanosecond, and tail drops
// happen, some at the instant a queued frame starts. Deliveries transmit
// again and push plain events and host-lane items (a Simulator::at each when
// `use_lanes` is false, as with ModelLink).
template <typename LinkT>
class LinkSchedule {
 public:
  LinkSchedule(bool use_lanes, std::uint64_t seed, int budget)
      : use_lanes_(use_lanes), rng_(seed), budget_(budget), host_(sim_) {
    for (int i = 0; i < 3; ++i) {
      links_.push_back(std::make_unique<LinkT>(
          sim_, 1e9, static_cast<Nanos>(rng_.uniform(3)) * 500,
          1 + rng_.uniform(4)));
    }
  }

  void run() {
    random_ops(12);
    sim_.run_until(static_cast<Nanos>(rng_.uniform(5000)));
    random_ops(6);
    sim_.run_all();
  }

  std::vector<LinkObs> seen;
  std::vector<EventId> at_ids;
  std::vector<bool> accepted;
  const LinkT& link(std::size_t i) const { return *links_[i]; }
  std::uint64_t events() const { return sim_.events_processed(); }

 private:
  Nanos grid_time(std::uint64_t steps) const {
    return (sim_.now() / 500 + static_cast<Nanos>(steps)) * 500;
  }

  void transmit(std::size_t i) {
    static constexpr std::int64_t kBytes[] = {63, 125, 250};
    const int tag = next_tag_++;
    accepted.push_back(links_[i]->transmit(kBytes[rng_.uniform(3)],
                                           [this, tag] { on_fire(tag); }));
  }

  void random_ops(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n && next_tag_ < budget_; ++i) {
      switch (rng_.uniform(4)) {
        case 0:
        case 1:
          transmit(rng_.uniform(links_.size()));
          break;
        case 2: {
          const int tag = next_tag_++;
          at_ids.push_back(sim_.at(grid_time(rng_.uniform(4)),
                                   [this, tag] { on_fire(tag); }));
          break;
        }
        default: {
          const int tag = next_tag_++;
          auto cb = [this, tag] { on_fire(tag); };
          if (use_lanes_) {
            host_.after(500, cb);
          } else {
            sim_.after(500, cb);
          }
        }
      }
    }
  }

  void on_fire(int tag) {
    LinkObs obs{sim_.now(), tag, {}};
    for (const auto& l : links_)
      obs.links.emplace_back(l->backlog(), l->delivered(), l->drops());
    seen.push_back(std::move(obs));
    random_ops(rng_.uniform(4));
  }

  Simulator sim_;
  bool use_lanes_;
  Rng rng_;
  int budget_;
  int next_tag_ = 0;
  EventLane host_;
  std::vector<std::unique_ptr<LinkT>> links_;
};

TEST(LinkModel, RandomSchedulesMatchTheEventPerFrameLink) {
  std::uint64_t drops = 0, drops_at_start = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    LinkSchedule<Link> lane(true, seed, 300);
    LinkSchedule<ModelLink> model(false, seed, 300);
    lane.run();
    model.run();
    ASSERT_EQ(lane.seen, model.seen) << "seed " << seed;
    ASSERT_EQ(lane.at_ids, model.at_ids) << "seed " << seed;
    ASSERT_EQ(lane.accepted, model.accepted) << "seed " << seed;
    ASSERT_EQ(lane.events(), model.events()) << "seed " << seed;
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(lane.link(i).delivered(), model.link(i).delivered());
      ASSERT_EQ(lane.link(i).drops(), model.link(i).drops());
      ASSERT_EQ(lane.link(i).backlog(), 0u);
      ASSERT_EQ(lane.link(i).busy_time(), model.link(i).busy_time());
      drops += model.link(i).drops();
      drops_at_start += model.link(i).drops_at_start();
    }
  }
  // The schedules did exercise tail drops, also at a start instant.
  EXPECT_GT(drops, 100u);
  EXPECT_GT(drops_at_start, 10u);
}

// A frame offered at the instant a queued frame starts serializing is dropped
// if its event was scheduled before the start event (the start has not fired,
// so the queued frame still holds its slot), and accepted if after.
template <typename LinkT>
std::vector<bool> offer_at_a_start_instant() {
  Simulator sim;
  LinkT link(sim, 1e9, 0, /*queue_limit=*/1);
  std::vector<bool> accepted;
  auto offer = [&] { accepted.push_back(link.transmit(125, nullptr)); };
  sim.at(1000, offer);  // scheduled before B's start event
  offer();              // A: on the wire until 1000
  offer();              // B: queued, starts at 1000
  sim.at(1000, offer);  // scheduled after B's start event
  sim.run_all();
  accepted.push_back(link.backlog() == 0 && link.delivered() == 3 &&
                     link.drops() == 1);
  return accepted;
}

TEST(LinkModel, TailDropAtTheStartInstantFollowsEventOrder) {
  const std::vector<bool> expected{true, true, false, true, true};
  EXPECT_EQ(offer_at_a_start_instant<ModelLink>(), expected);
  EXPECT_EQ(offer_at_a_start_instant<Link>(), expected);
}

TEST(LinkModel, DeliverClosureIsBuiltInPlaceAndMovedOnceOnFire) {
  struct Counted {
    int* moves;
    int* runs;
    Counted(int* m, int* r) : moves(m), runs(r) {}
    Counted(Counted&& o) noexcept : moves(o.moves), runs(o.runs) { ++*moves; }
    void operator()() const { ++*runs; }
  };
  Simulator sim;
  Link link(sim, 1e9, 0, 4);
  int moves = 0, runs = 0;
  link.transmit(125, Counted(&moves, &runs));
  EXPECT_EQ(moves, 1);  // from the temporary into its lane slot
  sim.run_all();
  EXPECT_EQ(moves, 2);  // out of the slot when it fires
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace lvrm::sim
