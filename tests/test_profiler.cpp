// Kernel self-profiler tests: per-tag attribution through the Simulator
// hook, aggregation by tag content and subsystem prefix, cross-thread
// merge, JSON shape, and the harness --profile plumbing (the "profile" key
// appears exactly when profiling was requested and something ran).
#include <gtest/gtest.h>

#include <string>

#include "sim/experiment.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"

namespace ds = decentnet::sim;

TEST(Profiler, RecordsAndAggregatesByTagContent) {
  ds::Profiler prof;
  EXPECT_TRUE(prof.empty());
  // Two distinct pointers with identical content must aggregate together —
  // the hot path keys on pointer, the report keys on content.
  const std::string s1 = "net/deliver";
  const std::string s2 = "net/deliver";
  prof.record(s1.c_str(), 100);
  prof.record(s2.c_str(), 50);
  prof.record("gossip/shuffle", 10);
  prof.record(nullptr, 5);
  EXPECT_FALSE(prof.empty());

  const auto tags = prof.by_tag();
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags.at("net/deliver").events, 2u);
  EXPECT_EQ(tags.at("net/deliver").wall_ns, 150u);
  EXPECT_EQ(tags.at("gossip/shuffle").events, 1u);
  EXPECT_EQ(tags.at("(untagged)").events, 1u);

  const auto subs = prof.by_subsystem();
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs.at("net").wall_ns, 150u);
  EXPECT_EQ(subs.at("gossip").wall_ns, 10u);
  EXPECT_EQ(subs.at("(untagged)").wall_ns, 5u);

  EXPECT_EQ(prof.total().events, 4u);
  EXPECT_EQ(prof.total().wall_ns, 165u);
}

TEST(Profiler, MergeAndClear) {
  ds::Profiler a, b;
  a.record("x/one", 10);
  b.record("x/one", 5);
  b.record("y/two", 7);
  a.merge_from(b);
  EXPECT_EQ(a.by_tag().at("x/one").events, 2u);
  EXPECT_EQ(a.by_tag().at("x/one").wall_ns, 15u);
  EXPECT_EQ(a.by_tag().at("y/two").wall_ns, 7u);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.total().events, 0u);
}

TEST(Profiler, JsonShapeIsSortedAndComplete) {
  ds::Profiler prof;
  prof.record("b/z", 2);
  prof.record("a/y", 1);
  const std::string json = prof.to_json();
  EXPECT_NE(json.find("\"total\""), std::string::npos);
  EXPECT_NE(json.find("\"subsystems\""), std::string::npos);
  EXPECT_NE(json.find("\"tags\""), std::string::npos);
  // Sorted: subsystem "a" before "b", tag "a/y" before "b/z".
  EXPECT_LT(json.find("\"a\""), json.find("\"b\""));
  EXPECT_LT(json.find("\"a/y\""), json.find("\"b/z\""));
  EXPECT_NE(json.find("\"events\":2"), std::string::npos);
}

TEST(Profiler, SimulatorAttributesFiredEvents) {
  ds::Simulator sim(3);
  ds::Profiler prof;
  sim.set_profiler(&prof);
  int fired = 0;
  sim.schedule(ds::millis(1), [&] { ++fired; }, "unit/a");
  sim.schedule(ds::millis(2), [&] { ++fired; }, "unit/a");
  sim.schedule(ds::millis(3), [&] { ++fired; }, "unit/b");
  // A Timer's firing is profiled under its tag; re-keying and dropping its
  // superseded heap entries are not events and are not profiled.
  ds::Timer timer(sim, [&] { ++fired; }, "unit/t");
  timer.arm(ds::millis(9));
  timer.arm(ds::millis(1));
  timer.arm(ds::millis(4));
  sim.run_all();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.now(), ds::millis(4));
  const auto tags = prof.by_tag();
  EXPECT_EQ(tags.at("unit/a").events, 2u);
  EXPECT_EQ(tags.at("unit/b").events, 1u);
  EXPECT_EQ(tags.at("unit/t").events, 1u);
  EXPECT_EQ(prof.by_subsystem().at("unit").events, 4u);
}

TEST(Profiler, HarnessEmitsProfileKeyOnlyWhenRequested) {
  const auto run = [](bool profile) {
    ds::ExperimentOptions opts;
    opts.quiet = true;
    opts.emit_json = false;
    opts.profile = profile;
    ds::ExperimentHarness ex("unit_profile", opts);
    ds::Simulator sim(1);
    ex.instrument(sim);
    for (int i = 0; i < 8; ++i) {
      sim.post(ds::millis(i), [] {}, "unit/tick");
    }
    sim.run_all();
    return ex.to_json();
  };
  const std::string with = run(true);
  EXPECT_NE(with.find("\"profile\""), std::string::npos);
  EXPECT_NE(with.find("\"unit/tick\""), std::string::npos);
  const std::string without = run(false);
  EXPECT_EQ(without.find("\"profile\""), std::string::npos);
}

TEST(Profiler, RunPointsMergesPointProfilers) {
  ds::ExperimentOptions opts;
  opts.quiet = true;
  opts.emit_json = false;
  opts.profile = true;
  opts.jobs = 2;
  ds::ExperimentHarness ex("unit_profile_points", opts);
  ex.run_points(4, [](ds::PointScope& scope) {
    ds::Simulator sim(scope.root_seed() + scope.index());
    scope.instrument(sim);
    sim.post(ds::millis(1), [] {}, "pt/work");
    sim.run_all();
    scope.add_row({{"point", std::uint64_t{scope.index()}}});
  });
  const std::string json = ex.to_json();
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"pt/work\""), std::string::npos);
  // All four points' events merged into one report.
  EXPECT_NE(json.find("\"events\":4"), std::string::npos);
}
