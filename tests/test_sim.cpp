// Kernel tests: event ordering, periodic timers, cancellation, handle
// generations, trace parity with the original kernel, re-armable timers
// against the cancel-and-schedule idiom they replace, RNG determinism and
// distribution sanity, histogram percentiles, and the decentralization
// statistics.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace ds = decentnet::sim;

TEST(Simulator, ExecutesEventsInTimestampOrder) {
  ds::Simulator sim;
  std::vector<int> order;
  sim.schedule(ds::millis(30), [&] { order.push_back(3); });
  sim.schedule(ds::millis(10), [&] { order.push_back(1); });
  sim.schedule(ds::millis(20), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ds::millis(30));
}

TEST(Simulator, SameTimestampIsFifo) {
  ds::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(ds::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  ds::Simulator sim;
  int fired = 0;
  sim.schedule(ds::seconds(1), [&] { ++fired; });
  sim.schedule(ds::seconds(2), [&] { ++fired; });
  sim.schedule(ds::seconds(3), [&] { ++fired; });
  sim.run_until(ds::seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), ds::seconds(2));
  sim.run_until(ds::seconds(10));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), ds::seconds(10));  // clock advances to the horizon
}

TEST(Simulator, CancelPreventsExecution) {
  ds::Simulator sim;
  int fired = 0;
  auto handle = sim.schedule(ds::seconds(1), [&] { ++fired; });
  EXPECT_TRUE(handle.valid());
  handle.cancel();
  EXPECT_FALSE(handle.valid());
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, PeriodicFiresRepeatedlyUntilCancelled) {
  ds::Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_periodic(ds::seconds(1), ds::seconds(1), [&] {
    ++fired;
  });
  sim.run_until(ds::seconds(5) + ds::millis(1));
  EXPECT_EQ(fired, 5);
  handle.cancel();
  sim.run_until(ds::seconds(20));
  EXPECT_EQ(fired, 5);
}

TEST(Simulator, EventsScheduledFromEventsRun) {
  ds::Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(ds::millis(1), recurse);
  };
  sim.schedule(0, recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  ds::Simulator sim;
  sim.schedule(ds::seconds(1), [] {});
  sim.run_all();
  bool fired = false;
  sim.schedule(-ds::seconds(5), [&] { fired = true; });
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), ds::seconds(1));
}

TEST(Simulator, SameTimeFifoAcrossTenThousandEvents) {
  // The slab + indexed-heap kernel must keep the (when, seq) FIFO contract
  // exact at scale, including when same-time events are interleaved with
  // earlier and later ones.
  ds::Simulator sim;
  std::vector<int> order;
  order.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    sim.post(ds::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  ASSERT_EQ(order.size(), 10000u);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CancelInsideCallbackPreventsLaterEvent) {
  ds::Simulator sim;
  int fired = 0;
  auto victim = sim.schedule(ds::millis(20), [&] { ++fired; });
  sim.schedule(ds::millis(10), [&] {
    EXPECT_TRUE(victim.valid());
    victim.cancel();
    EXPECT_FALSE(victim.valid());
  });
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelOwnEventInsideItsCallbackIsNoOp) {
  // By the time the callback runs, the event's slot has been recycled: the
  // handle reads invalid and cancel() must not disturb whatever event may
  // have taken the slot.
  ds::Simulator sim;
  ds::EventHandle self;
  bool ran = false, later_ran = false;
  self = sim.schedule(ds::millis(1), [&] {
    ran = true;
    EXPECT_FALSE(self.valid());
    // Reuse the freed slot immediately, then try the stale cancel.
    sim.schedule(ds::millis(1), [&] { later_ran = true; });
    self.cancel();
  });
  sim.run_all();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(later_ran);  // the stale handle must not have cancelled it
}

TEST(Simulator, PeriodicSelfCancelStopsTheSeries) {
  ds::Simulator sim;
  int fired = 0;
  ds::EventHandle series;
  series = sim.schedule_periodic(ds::seconds(1), ds::seconds(1), [&] {
    if (++fired == 3) series.cancel();
  });
  sim.run_until(ds::seconds(30));
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(series.valid());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ClearInvalidatesOutstandingHandles) {
  // Regression: with the shared_ptr kernel, clear() dropped the queue but
  // left alive-flags set, so stale handles kept reporting valid. Slot
  // generations bump on clear, so every outstanding handle reads invalid.
  ds::Simulator sim;
  int fired = 0;
  auto one_shot = sim.schedule(ds::seconds(1), [&] { ++fired; });
  auto periodic =
      sim.schedule_periodic(ds::seconds(1), ds::seconds(1), [&] { ++fired; });
  EXPECT_TRUE(one_shot.valid());
  EXPECT_TRUE(periodic.valid());
  sim.clear();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(one_shot.valid());
  EXPECT_FALSE(periodic.valid());
  // Stale cancels must not disturb new events that reuse the slots.
  bool survivor_ran = false;
  sim.schedule(ds::seconds(1), [&] { survivor_ran = true; });
  one_shot.cancel();
  periodic.cancel();
  sim.run_until(ds::seconds(5));
  EXPECT_TRUE(survivor_ran);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, HandleStaysInvalidWhenSlotIsReused) {
  ds::Simulator sim;
  int first = 0, second = 0;
  auto h = sim.schedule(ds::millis(1), [&] { ++first; });
  sim.run_all();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(h.valid());
  // The new event recycles the fired event's slot; the stale handle must
  // neither validate nor cancel it.
  auto h2 = sim.schedule(ds::millis(1), [&] { ++second; });
  EXPECT_FALSE(h.valid());
  h.cancel();
  EXPECT_TRUE(h2.valid());
  sim.run_all();
  EXPECT_EQ(second, 1);
}

TEST(InlineFn, InlineAndBoxedCapturesBothInvoke) {
  int hits = 0;
  ds::InlineFn<64> small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);
  // Oversized capture: takes the heap-fallback path, must still work and
  // destroy cleanly.
  std::array<char, 200> big{};
  big[0] = 7;
  ds::InlineFn<64> boxed([big, &hits] { hits += big[0]; });
  boxed();
  EXPECT_EQ(hits, 8);
  // Move transfers the callable; the source becomes empty.
  ds::InlineFn<64> moved(std::move(boxed));
  moved();
  EXPECT_EQ(hits, 15);
  EXPECT_FALSE(static_cast<bool>(boxed));  // NOLINT(bugprone-use-after-move)
}

TEST(Simulator, TraceMatchesSeedKernelGolden) {
  // The JSONL below was captured from the pre-slab (shared_ptr +
  // std::priority_queue) kernel running this exact scenario. The rewritten
  // kernel must emit identical sched/fire/cancel records: same seq
  // numbering, same FIFO order, and the same lazy-cancel reclamation points
  // (a cancelled event is traced when it surfaces, even one parked beyond
  // the run_until horizon).
  static const char* kGolden =
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"a\",\"id\":0,\"a\":10000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"b\",\"id\":1,\"a\":5000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"c\",\"id\":2,\"a\":7000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"d\",\"id\":3,\"a\":20000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"e\",\"id\":4,\"a\":8000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"f\",\"id\":5,\"a\":12000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"f\",\"id\":6,\"a\":12000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"f\",\"id\":7,\"a\":12000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"f\",\"id\":8,\"a\":12000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"p\",\"id\":9,\"a\":3000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"g\",\"id\":10,\"a\":60000}\n"
      "{\"t\":3000,\"kind\":\"fire\",\"tag\":\"p\",\"id\":9}\n"
      "{\"t\":3000,\"kind\":\"sched\",\"tag\":\"p\",\"id\":11,\"a\":7000}\n"
      "{\"t\":5000,\"kind\":\"fire\",\"tag\":\"b\",\"id\":1}\n"
      "{\"t\":5000,\"kind\":\"cancel\",\"tag\":\"c\",\"id\":2}\n"
      "{\"t\":7000,\"kind\":\"fire\",\"tag\":\"p\",\"id\":11}\n"
      "{\"t\":7000,\"kind\":\"sched\",\"tag\":\"p\",\"id\":12,\"a\":11000}\n"
      "{\"t\":8000,\"kind\":\"fire\",\"tag\":\"e\",\"id\":4}\n"
      "{\"t\":10000,\"kind\":\"fire\",\"tag\":\"a\",\"id\":0}\n"
      "{\"t\":11000,\"kind\":\"fire\",\"tag\":\"p\",\"id\":12}\n"
      "{\"t\":12000,\"kind\":\"fire\",\"tag\":\"f\",\"id\":5}\n"
      "{\"t\":12000,\"kind\":\"fire\",\"tag\":\"f\",\"id\":6}\n"
      "{\"t\":12000,\"kind\":\"fire\",\"tag\":\"f\",\"id\":7}\n"
      "{\"t\":12000,\"kind\":\"fire\",\"tag\":\"f\",\"id\":8}\n"
      "{\"t\":12000,\"kind\":\"cancel\",\"tag\":\"d\",\"id\":3}\n"
      "{\"t\":12000,\"kind\":\"cancel\",\"tag\":\"g\",\"id\":10}\n";

  std::ostringstream out;
  ds::JsonlTraceSink sink(out);
  ds::Simulator sim;
  sim.set_trace(&sink);

  int fired = 0;
  auto h1 = sim.schedule(ds::millis(10), [&] { ++fired; }, "a");
  (void)h1;
  sim.post(ds::millis(5), [&] { ++fired; }, "b");
  auto h2 = sim.schedule(ds::millis(7), [&] { ++fired; }, "c");
  h2.cancel();
  ds::EventHandle h3 = sim.schedule(ds::millis(20), [&] { ++fired; }, "d");
  sim.schedule(ds::millis(8), [&h3] { h3.cancel(); }, "e");
  for (int i = 0; i < 4; ++i) {
    sim.post(ds::millis(12), [&] { ++fired; }, "f");
  }
  int pcount = 0;
  ds::EventHandle p;
  p = sim.schedule_periodic(ds::millis(3), ds::millis(4),
                            [&] {
                              if (++pcount == 3) p.cancel();
                            },
                            "p");
  auto h4 = sim.schedule(ds::millis(60), [&] { ++fired; }, "g");
  h4.cancel();
  sim.run_until(ds::millis(50));

  EXPECT_EQ(out.str(), kGolden);
}

namespace {

// One re-armable deadline, run two ways: the kernel's Timer, and the
// EventHandle cancel-then-schedule idiom it replaces.
struct KernelTimer {
  ds::Timer timer;
  KernelTimer(ds::Simulator& sim, std::function<void()> fn)
      : timer(sim, [fn = std::move(fn)] { fn(); }, "t") {}
  void arm(ds::SimDuration d) { timer.arm(d); }
  void cancel() { timer.cancel(); }
};

struct HandleTimer {
  ds::Simulator& sim;
  std::function<void()> fn;
  ds::EventHandle handle;
  HandleTimer(ds::Simulator& s, std::function<void()> f)
      : sim(s), fn(std::move(f)) {}
  void arm(ds::SimDuration d) {
    handle.cancel();
    handle = sim.schedule(d, [this] { fn(); }, "t");
  }
  void cancel() { handle.cancel(); }
};

constexpr int kTimerScriptPostBase = 100;  // log ids below are timers

struct ScriptRun {
  std::vector<std::pair<ds::SimTime, int>> fired;  // (now, timer) or post id
  std::uint64_t processed = 0;
};

// A seeded script over six timers: plain posts on a coarse 1 ms grid (so
// equal-time ties are common) re-arm, cancel and post; timer callbacks
// re-arm themselves and others. Every decision comes from the script's own
// RNG, so two backends that fire in the same order replay the same script.
template <class Backend>
ScriptRun run_timer_script(std::uint64_t seed) {
  constexpr int kTimers = 6;
  ds::Simulator sim(1);
  ds::Rng rng(seed);
  ScriptRun run;
  std::vector<std::unique_ptr<Backend>> timers;
  int budget = 4000;  // bounds the posts that spawn further posts
  int next_post = kTimerScriptPostBase;
  std::function<void()> act = [&] {
    const auto k = static_cast<std::size_t>(rng.uniform_int(kTimers));
    switch (rng.uniform_int(4)) {
      case 0:
      case 1:
        timers[k]->arm(ds::millis(rng.uniform_int(0, 40)));
        break;
      case 2:
        timers[k]->cancel();
        break;
      default:
        if (budget-- > 0) {
          const int id = next_post++;
          sim.post(ds::millis(rng.uniform_int(0, 20)), [&, id] {
            run.fired.emplace_back(sim.now(), id);
            act();
            act();
          });
        }
    }
  };
  for (int k = 0; k < kTimers; ++k) {
    timers.push_back(std::make_unique<Backend>(sim, [&, k] {
      run.fired.emplace_back(sim.now(), k);
      if (rng.chance(0.5)) {
        timers[static_cast<std::size_t>(k)]->arm(
            ds::millis(rng.uniform_int(0, 30)));
      }
      act();
    }));
  }
  for (int i = 0; i < 1000; ++i) {
    const int id = next_post++;
    sim.post(ds::millis(rng.uniform_int(0, 2000)), [&, id] {
      run.fired.emplace_back(sim.now(), id);
      act();
      act();
    });
  }
  sim.run_until(ds::millis(1500));
  sim.run_all();
  run.processed = sim.total_events_processed();
  return run;
}

}  // namespace

TEST(Timer, MatchesCancelThenScheduleOnASeededScript) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const ScriptRun kernel = run_timer_script<KernelTimer>(seed);
    const ScriptRun handles = run_timer_script<HandleTimer>(seed);
    // ties: a timer fires right after or before another callback at the
    // same simulated time.
    std::size_t timer_fires = 0, ties = 0;
    for (std::size_t i = 0; i < kernel.fired.size(); ++i) {
      if (kernel.fired[i].second < kTimerScriptPostBase) ++timer_fires;
      if (i > 0 && kernel.fired[i].first == kernel.fired[i - 1].first &&
          (kernel.fired[i].second < kTimerScriptPostBase ||
           kernel.fired[i - 1].second < kTimerScriptPostBase)) {
        ++ties;
      }
    }
    // The script must exercise what it claims: timers that fire, and
    // timers tied in time with another callback.
    EXPECT_GT(timer_fires, 100u) << "seed " << seed;
    EXPECT_GT(ties, 50u) << "seed " << seed;
    EXPECT_EQ(kernel.fired, handles.fired) << "seed " << seed;
    EXPECT_EQ(kernel.processed, handles.processed) << "seed " << seed;
    EXPECT_EQ(kernel.processed, kernel.fired.size()) << "seed " << seed;
  }
}

TEST(Timer, ArmedReadsFalseInsideTheCallbackAndCanReArm) {
  ds::Simulator sim;
  int fired = 0;
  bool armed_inside = true;
  std::unique_ptr<ds::Timer> t;
  t = std::make_unique<ds::Timer>(sim, [&] {
    armed_inside = t->armed();
    if (++fired < 3) t->arm(ds::millis(2));
  });
  EXPECT_FALSE(t->armed());
  t->arm(ds::millis(1));
  EXPECT_TRUE(t->armed());
  sim.run_until(ds::millis(10));
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(armed_inside);
  EXPECT_FALSE(t->armed());
  EXPECT_EQ(sim.total_events_processed(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Timer, StaleEntryOfADestroyedTimerNeverFiresItsSuccessor) {
  ds::Simulator sim;
  int first = 0, second = 0;
  auto a = std::make_unique<ds::Timer>(sim, [&] { ++first; });
  a->arm(ds::millis(5));
  a.reset();  // its heap entry stays queued until it surfaces
  EXPECT_EQ(sim.pending_events(), 1u);
  // Timer ids are reused last-in first-out, so b takes a's id while a's
  // entry is still queued under it.
  ds::Timer b(sim, [&] { ++second; });
  b.arm(ds::millis(10));
  sim.run_until(ds::millis(7));
  EXPECT_EQ(second, 0);
  EXPECT_TRUE(b.armed());
  EXPECT_EQ(sim.pending_events(), 1u);  // a's entry dropped, not re-keyed
  sim.run_until(ds::millis(20));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(sim.now(), ds::millis(20));
  EXPECT_EQ(sim.total_events_processed(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Timer, ClearDisarmsTimersAndKeepsTheArenaIntact) {
  ds::Simulator sim;
  int fired = 0, events = 0;
  ds::Timer t(sim, [&] { ++fired; });
  ds::Timer u(sim, [&] { ++fired; });
  t.arm(ds::millis(5));
  u.arm(ds::millis(9));
  u.arm(ds::millis(2));  // an earlier deadline: u holds two heap entries
  auto h = sim.schedule(ds::millis(3), [&] { ++events; });
  sim.clear();
  EXPECT_FALSE(t.armed());
  EXPECT_FALSE(u.armed());
  EXPECT_FALSE(h.valid());
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(ds::millis(10));
  EXPECT_EQ(fired, 0);
  // Two events must get two distinct arena slots: clear() released only the
  // event's slot, never one for a timer entry.
  sim.post(ds::millis(1), [&] { ++events; });
  sim.post(ds::millis(1), [&] { ++events; });
  t.arm(ds::millis(1));
  sim.run_until(ds::millis(20));
  EXPECT_EQ(events, 2);
  EXPECT_EQ(fired, 1);
}

TEST(Timer, TraceWritesOneSchedPerArmAndNoCancel) {
  // Three arms — later, earlier, later again — write three "sched" records
  // and one "fire" at the last arm's (time, seq). The superseded arms leave
  // no "cancel" record, unlike EventHandle::cancel().
  static const char* kExpected =
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"t\",\"id\":0,\"a\":10000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"t\",\"id\":1,\"a\":4000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"t\",\"id\":2,\"a\":6000}\n"
      "{\"t\":6000,\"kind\":\"fire\",\"tag\":\"t\",\"id\":2}\n";
  std::ostringstream out;
  ds::JsonlTraceSink sink(out);
  ds::Simulator sim;
  sim.set_trace(&sink);
  int fired = 0;
  ds::Timer t(sim, [&] { ++fired; }, "t");
  t.arm(ds::millis(10));
  t.arm(ds::millis(4));
  t.arm(ds::millis(6));
  sim.run_until(ds::millis(20));
  EXPECT_EQ(out.str(), kExpected);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.total_events_processed(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Timer, CancelledArmLeavesOnlyItsSchedRecord) {
  std::ostringstream out;
  ds::JsonlTraceSink sink(out);
  ds::Simulator sim;
  sim.set_trace(&sink);
  int fired = 0;
  ds::Timer t(sim, [&] { ++fired; }, "t");
  t.arm(ds::millis(5));
  t.cancel();
  EXPECT_FALSE(t.armed());
  sim.run_until(ds::millis(20));
  EXPECT_EQ(out.str(),
            "{\"t\":0,\"kind\":\"sched\",\"tag\":\"t\",\"id\":0,"
            "\"a\":5000}\n");
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.total_events_processed(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  ds::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkProducesIndependentStream) {
  ds::Rng a(123);
  ds::Rng b = a.fork(1);
  ds::Rng c = a.fork(1);
  // Different forks of advancing parent state must differ.
  EXPECT_NE(b.next(), c.next());
}

TEST(Rng, UniformIsInRange) {
  ds::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto n = rng.uniform_int(std::uint64_t{10});
    EXPECT_LT(n, 10u);
    const auto s = rng.uniform_int(std::int64_t{-5}, std::int64_t{5});
    EXPECT_GE(s, -5);
    EXPECT_LE(s, 5);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  ds::Rng rng(99);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMeanAndStddev) {
  ds::Rng rng(4);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, ParetoRespectsMinimum) {
  ds::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, WeightedIndexFollowsWeights) {
  ds::Rng rng(6);
  std::vector<double> weights{1, 0, 3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, ShufflePreservesElements) {
  ds::Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ZipfSampler, RankZeroIsMostFrequent) {
  ds::Rng rng(11);
  ds::ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(Histogram, ExactPercentilesOnSmallData) {
  ds::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.percentile(99), 99.01, 0.01);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(Histogram, FractionBelow) {
  ds::Histogram h;
  for (int i = 1; i <= 10; ++i) h.record(i);
  EXPECT_DOUBLE_EQ(h.fraction_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(100.0), 1.0);
}

TEST(Histogram, ReservoirKeepsCountExact) {
  ds::Histogram h(/*max_samples=*/100);
  for (int i = 0; i < 10000; ++i) h.record(i);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.samples().size(), 100u);
  // The reservoir median should approximate the true median.
  EXPECT_NEAR(h.percentile(50), 5000, 1500);
}

TEST(Histogram, ReservoirPercentilesTrackDistributionPastCapacity) {
  // Regression: once record() crosses max_samples and switches to
  // reservoir downsampling, every percentile (not just the median) must
  // keep tracking the underlying distribution, and the result must be a
  // pure function of the seed.
  ds::Histogram h(/*max_samples=*/500, /*reservoir_seed=*/0x5EED);
  const std::uint64_t n = 50'000;
  for (std::uint64_t i = 0; i < n; ++i) {
    h.record(static_cast<double>(i));  // uniform on [0, n)
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.samples().size(), 500u);
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double truth = static_cast<double>(n) * p / 100.0;
    // Binomial spread of a 500-sample reservoir: ~5 percentage points of
    // mass, generously doubled for the tails.
    EXPECT_NEAR(h.percentile(p), truth, static_cast<double>(n) * 0.10)
        << "p" << p;
  }
  EXPECT_NEAR(h.mean(), static_cast<double>(n) / 2.0,
              static_cast<double>(n) * 0.01);  // mean is exact, not sampled

  // Same seed, same stream -> identical reservoir.
  ds::Histogram again(500, 0x5EED);
  for (std::uint64_t i = 0; i < n; ++i) {
    again.record(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(h.percentile(90), again.percentile(90));
  EXPECT_EQ(h.samples(), again.samples());
}

TEST(Stats, GiniOfEqualSharesIsZero) {
  EXPECT_NEAR(decentnet::sim::gini({5, 5, 5, 5}), 0.0, 1e-9);
}

TEST(Stats, GiniOfMonopolyApproachesOne) {
  std::vector<double> v(100, 0.0);
  v[0] = 1000;
  EXPECT_NEAR(decentnet::sim::gini(v), 0.99, 0.011);
}

TEST(Stats, NakamotoCoefficient) {
  // Six pools with 75%: {20,15,12,11,9,8} + tail of small miners.
  std::vector<double> shares{20, 15, 12, 11, 9, 8};
  for (int i = 0; i < 25; ++i) shares.push_back(1.0);
  EXPECT_EQ(decentnet::sim::nakamoto_coefficient(shares), 4u);
  EXPECT_NEAR(decentnet::sim::top_k_share(shares, 6), 0.75, 0.001);
}

TEST(Stats, EntropyBounds) {
  EXPECT_NEAR(decentnet::sim::shannon_entropy({1, 1, 1, 1}), 2.0, 1e-9);
  EXPECT_NEAR(decentnet::sim::shannon_entropy({1, 0, 0, 0}), 0.0, 1e-9);
}

TEST(Stats, HhiBounds) {
  EXPECT_NEAR(decentnet::sim::hhi({1, 1, 1, 1}), 0.25, 1e-9);
  EXPECT_NEAR(decentnet::sim::hhi({42}), 1.0, 1e-9);
}

TEST(Table, RendersAlignedColumns) {
  ds::Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", ds::Table::num(1.5)});
  t.add_row({"beta", ds::Table::num(20.25)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("20.25"), std::string::npos);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(ds::format_duration(ds::seconds(1.5)), "1.50s");
  EXPECT_EQ(ds::format_duration(ds::millis(340)), "340.00ms");
  EXPECT_EQ(ds::format_duration(ds::minutes(2)), "2.00min");
}
