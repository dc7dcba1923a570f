#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace lvrm::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.push(1, [&] { ++fired; });
  const EventId victim = q.push(2, [&] { fired += 100; });
  q.push(3, [&] { ++fired; });
  q.cancel(victim);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  q.push(1, [] {});
  q.cancel(9999);
  q.cancel(kInvalidEvent);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, SizeReflectsLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId first = q.push(1, [] {});
  q.push(7, [] {});
  q.cancel(first);
  EXPECT_EQ(q.next_time(), 7);
}

TEST(EventQueue, FiredCarriesTimestamp) {
  EventQueue q;
  q.push(123, [] {});
  const auto fired = q.pop();
  EXPECT_EQ(fired.at, 123);
}

TEST(EventQueue, IdsAreSequentialFromOne) {
  EventQueue q;
  EXPECT_EQ(q.push(5, [] {}), 1u);
  EXPECT_EQ(q.push(1, [] {}), 2u);
  q.cancel(1);
  q.pop();
  EXPECT_EQ(q.push(3, [] {}), 3u);
}

TEST(EventQueue, CancelFiredAndCancelledIdsAreNoops) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  const EventId b = q.push(2, [] {});
  q.push(3, [] {});
  q.pop();
  q.cancel(a);  // already fired
  EXPECT_EQ(q.size(), 2u);
  q.cancel(b);
  q.cancel(b);  // already cancelled
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 3);
}

TEST(EventQueue, DestroyingAQueueDestroysPendingCallbacksOnce) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    for (int i = 0; i < 1000; ++i) q.push(i % 7, [token] {});
    EXPECT_EQ(token.use_count(), 1001);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---- differential test against a std::set<(at, id)> reference model ----

// Drives either an EventQueue (push / pop / cancel) or a Simulator (at /
// step / cancel, which fires callbacks in place in their slots) with seeded
// random operations and checks every step against the reference model.
// Every callback captures `token`, so its use count is 1 + the number of
// pending callbacks exactly when each callable is destroyed exactly once,
// at fire or cancel time.
class Differential {
 public:
  Differential(bool via_simulator, std::uint64_t seed)
      : via_sim_(via_simulator), rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      // Pushes slightly outpace pops and cancels, so the queue grows to a
      // few thousand events before the final drain.
      const std::uint64_t r = draw(20);
      if (r < 9) {
        push();
      } else if (r < 12) {
        cancel_some();
      } else {
        pop();
      }
      check();
    }
    while (!model_.empty() && !::testing::Test::HasFailure()) {
      pop();
      check();
    }
    EXPECT_EQ(token_.use_count(), 1);
    EXPECT_GT(fired_.size(), 0u);
    EXPECT_GT(cancelled_.size(), 0u);
  }

  std::size_t peak() const { return peak_; }

 private:
  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }

  // Times cluster on a handful of values so ties are frequent. The bare
  // queue also takes times before the last fired one; the Simulator would
  // clamp those to now.
  Nanos draw_time() {
    const auto d = static_cast<Nanos>(draw(8));
    return via_sim_ ? clock_ + d : clock_ + d - 2;
  }

  template <typename F>
  EventId schedule(Nanos at, F&& f) {
    return via_sim_ ? sim_.at(at, std::forward<F>(f))
                    : q_.push(at, std::forward<F>(f));
  }

  void push() {
    const Nanos at = draw_time();
    const EventId expect = next_id_++;
    EventId got = kInvalidEvent;
    if (draw(4) == 0) {
      // Larger than the inline buffer: exercises the boxed fallback.
      std::array<EventId, 32> pad{};
      pad.back() = expect;
      got = schedule(at, [this, expect, tok = token_, pad] {
        EXPECT_EQ(pad.back(), expect);
        on_fire(expect);
      });
    } else {
      got = schedule(at, [this, expect, tok = token_] { on_fire(expect); });
    }
    EXPECT_EQ(got, expect);
    model_.emplace(at, expect);
    live_.emplace(expect, at);
    peak_ = std::max(peak_, model_.size());
  }

  void cancel(EventId id) {
    const auto it = live_.find(id);
    if (it != live_.end()) {
      model_.erase({it->second, id});
      live_.erase(it);
      cancelled_.push_back(id);
    }
    if (via_sim_) {
      sim_.cancel(id);
    } else {
      q_.cancel(id);
    }
  }

  EventId pick(const std::vector<EventId>& ids) {
    return ids.empty() ? kInvalidEvent : ids[draw(ids.size())];
  }

  EventId live_sibling() {
    if (live_.empty()) return kInvalidEvent;
    auto it = live_.lower_bound(1 + draw(next_id_));
    if (it == live_.end()) it = live_.begin();
    return it->first;
  }

  void cancel_some() {
    switch (draw(5)) {
      case 0: cancel(pick(fired_)); break;
      case 1: cancel(pick(cancelled_)); break;
      case 2: cancel(draw(2) ? next_id_ + draw(100) : kInvalidEvent); break;
      default: cancel(live_sibling()); break;
    }
  }

  void pop() {
    if (model_.empty()) {
      EXPECT_FALSE(via_sim_ ? sim_.step() : !q_.empty());
      return;
    }
    if (via_sim_) {
      EXPECT_TRUE(sim_.step());
      return;
    }
    EXPECT_EQ(q_.next_time(), model_.begin()->first);
    EventQueue::Fired f = q_.pop();
    EXPECT_EQ(f.at, model_.begin()->first);
    EXPECT_EQ(f.id, model_.begin()->second);
    f.cb();
  }

  void on_fire(EventId id) {
    ASSERT_FALSE(model_.empty());
    EXPECT_EQ(model_.begin()->second, id) << "fired out of (at, id) order";
    const Nanos at = model_.begin()->first;
    if (via_sim_) EXPECT_EQ(sim_.now(), at);
    model_.erase(model_.begin());
    live_.erase(id);
    fired_.push_back(id);
    clock_ = at;
    check_size();
    switch (draw(8)) {
      case 0:  // cancelling the firing event itself is a no-op
        cancel(id);
        break;
      case 1:
        cancel(live_sibling());
        break;
      case 2:
        push();
        break;
      case 3:
        push();
        push();
        break;
      case 4:
        cancel(live_sibling());
        push();
        break;
      default:
        break;
    }
    check_size();
  }

  void check_size() {
    if (via_sim_) {
      EXPECT_EQ(sim_.idle(), model_.empty());
    } else {
      EXPECT_EQ(q_.size(), model_.size());
      EXPECT_EQ(q_.empty(), model_.empty());
    }
  }

  void check() {
    check_size();
    EXPECT_EQ(token_.use_count(), static_cast<long>(1 + model_.size()));
  }

  bool via_sim_;
  std::mt19937_64 rng_;
  EventQueue q_;
  Simulator sim_;
  std::set<std::pair<Nanos, EventId>> model_;
  std::map<EventId, Nanos> live_;
  std::vector<EventId> fired_;
  std::vector<EventId> cancelled_;
  EventId next_id_ = 1;
  Nanos clock_ = 0;
  std::size_t peak_ = 0;
  std::shared_ptr<int> token_ = std::make_shared<int>(0);
};

TEST(EventQueueDifferential, QueueMatchesSetModel) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Differential d(/*via_simulator=*/false, seed);
    d.run(60'000);
    EXPECT_GT(d.peak(), 1000u);  // deep enough to rehash and sift far
  }
}

TEST(EventQueueDifferential, SimulatorMatchesSetModel) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Differential d(/*via_simulator=*/true, seed);
    d.run(60'000);
    EXPECT_GT(d.peak(), 1000u);
  }
}

// ---- sim::Callback ------------------------------------------------------

// A callable that counts how often an owning instance is destroyed; a
// moved-from instance owns nothing.
template <std::size_t kPad>
struct Counted {
  int* destroyed;
  int* calls;
  std::array<char, kPad> pad{};
  Counted(int* d, int* c) : destroyed(d), calls(c) {}
  Counted(Counted&& o) noexcept
      : destroyed(std::exchange(o.destroyed, nullptr)),
        calls(o.calls),
        pad(o.pad) {}
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    if (destroyed) ++*destroyed;
  }
  void operator()() { ++*calls; }
};

using SmallCounted = Counted<8>;
using LargeCounted = Counted<Callback::kInlineBytes + 8>;

template <typename C>
void expect_destroyed_once() {
  int destroyed = 0;
  int calls = 0;
  {  // moved around, then dropped
    Callback a = C(&destroyed, &calls);
    Callback b = std::move(a);
    Callback c;
    c = std::move(b);
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
    c();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
  {  // consume() runs and destroys in one go
    Callback a = C(&destroyed, &calls);
    a.consume();
    EXPECT_FALSE(a);
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(destroyed, 2);
  {  // reset() destroys; the destructor then has nothing left
    Callback a = C(&destroyed, &calls);
    a.reset();
    EXPECT_EQ(destroyed, 3);
  }
  EXPECT_EQ(destroyed, 3);
  {  // scheduled, one fired and one cancelled
    Simulator sim;
    sim.at(1, C(&destroyed, &calls));
    const EventId id = sim.at(2, C(&destroyed, &calls));
    sim.cancel(id);
    EXPECT_EQ(destroyed, 4);
    sim.run_all();
    EXPECT_EQ(destroyed, 5);
    sim.at(3, C(&destroyed, &calls));  // pending when the simulator dies
  }
  EXPECT_EQ(destroyed, 6);
  EXPECT_EQ(calls, 3);
}

TEST(Callback, DestructorRunsExactlyOnceInline) {
  static_assert(sizeof(SmallCounted) <= Callback::kInlineBytes);
  expect_destroyed_once<SmallCounted>();
}

TEST(Callback, DestructorRunsExactlyOnceBoxed) {
  static_assert(sizeof(LargeCounted) > Callback::kInlineBytes);
  expect_destroyed_once<LargeCounted>();
}

TEST(Callback, MoveOnlyCapture) {
  int out = 0;
  Callback cb = [p = std::make_unique<int>(7), &out] { out = *p; };
  Callback moved = std::move(cb);
  EXPECT_FALSE(cb);
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(out, 7);

  Simulator sim;
  sim.after(5, [p = std::make_unique<int>(9), &out] { out = *p; });
  sim.run_all();
  EXPECT_EQ(out, 9);
}

TEST(Callback, CaptureLargerThanInlineBuffer) {
  std::array<std::uint64_t, Callback::kInlineBytes / 8 + 4> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  std::uint64_t sum = 0;
  Callback cb = [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  };
  Callback moved = std::move(cb);
  moved();
  const std::uint64_t n = big.size();
  EXPECT_EQ(sum, n * (n + 1) / 2);
}

TEST(Callback, EmptyStdFunctionIsEmpty) {
  const std::function<void()> empty;
  EXPECT_FALSE(Callback(empty));
  EXPECT_FALSE(Callback(std::function<void()>{}));
  EXPECT_FALSE(Callback(nullptr));
  void (*null_fn)() = nullptr;
  EXPECT_FALSE(Callback(null_fn));
  int calls = 0;
  const std::function<void()> set = [&calls] { ++calls; };
  Callback cb(set);
  ASSERT_TRUE(cb);
  cb();
  EXPECT_EQ(calls, 1);

  // An empty callback scheduled as an event fires as a no-op.
  Simulator sim;
  sim.at(10, empty);
  sim.run_all();
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Callback, ThrowingEventStillReleasesItsSlot) {
  auto token = std::make_shared<int>(0);
  Simulator sim;
  sim.at(1, [token] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);
  int fired = 0;
  sim.at(2, [&fired] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace lvrm::sim
