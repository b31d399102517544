// ExperimentHarness tests: CLI parsing, Value rendering, the JSON artifact
// shape, timing-cell exclusion, seed derivation, and the run_points()
// parallel replication contract (deterministic merge order, metric merging,
// --jobs-independent artifacts, exception propagation).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/simulator.hpp"

namespace ds = decentnet::sim;

namespace {

/// Parse `argv_tail` over `opts` (the bench's defaults).
ds::ExperimentOptions parse(std::vector<const char*> argv_tail,
                            bool* ok = nullptr,
                            std::string* error_out = nullptr,
                            ds::ExperimentOptions opts = {}) {
  std::vector<const char*> argv{"bench"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  std::string error;
  const bool parsed = ds::ExperimentHarness::parse_cli(
      static_cast<int>(argv.size()),
      const_cast<char* const*>(argv.data()), opts, error);
  if (ok) *ok = parsed;
  if (error_out) *error_out = error;
  return opts;
}

}  // namespace

TEST(ExperimentCli, DefaultsSurviveEmptyArgv) {
  bool ok = false;
  ds::ExperimentOptions opts = parse({}, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(opts.seed, 1u);
  EXPECT_TRUE(opts.emit_json);
  EXPECT_FALSE(opts.quiet);
  EXPECT_FALSE(opts.help);
  EXPECT_TRUE(opts.json_path.empty());
  EXPECT_TRUE(opts.trace_path.empty());
}

TEST(ExperimentCli, ParsesEveryFlag) {
  bool ok = false;
  ds::ExperimentOptions opts =
      parse({"--seed", "777", "--json", "out.json", "--trace", "t.jsonl",
             "--quiet"},
            &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(opts.seed, 777u);
  EXPECT_EQ(opts.json_path, "out.json");
  EXPECT_EQ(opts.trace_path, "t.jsonl");
  EXPECT_TRUE(opts.quiet);
  EXPECT_TRUE(opts.emit_json);
}

TEST(ExperimentCli, NoJsonAndHelp) {
  bool ok = false;
  ds::ExperimentOptions opts = parse({"--no-json", "--help"}, &ok);
  EXPECT_TRUE(ok);
  EXPECT_FALSE(opts.emit_json);
  EXPECT_TRUE(opts.help);
}

TEST(ExperimentCli, RejectsUnknownFlagAndMissingValue) {
  bool ok = true;
  std::string error;
  parse({"--frobnicate"}, &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(error.empty());
  parse({"--seed"}, &ok, &error);
  EXPECT_FALSE(ok);
  parse({"--seed", "not-a-number"}, &ok, &error);
  EXPECT_FALSE(ok);
}

TEST(ExperimentValue, JsonRendering) {
  EXPECT_EQ(ds::Value().to_json(), "null");
  EXPECT_EQ(ds::Value(true).to_json(), "true");
  EXPECT_EQ(ds::Value(false).to_json(), "false");
  EXPECT_EQ(ds::Value(std::int64_t{-42}).to_json(), "-42");
  EXPECT_EQ(ds::Value(std::uint64_t{42}).to_json(), "42");
  EXPECT_EQ(ds::Value("a \"quoted\" cell").to_json(),
            "\"a \\\"quoted\\\" cell\"");
  // Doubles serialize shortest-round-trip, independent of table precision.
  EXPECT_EQ(ds::Value(0.5, 0).to_json(), ds::Value(0.5, 6).to_json());
}

TEST(ExperimentHarness, JsonArtifactShapeAndDeterminism) {
  const auto build = [] {
    ds::ExperimentOptions opts;
    opts.seed = 5;
    opts.quiet = true;
    opts.emit_json = false;  // keep the filesystem out of the test
    ds::ExperimentHarness ex("unit_shape", opts);
    ex.describe("title", "claim", "method");
    ex.set_param("sweep", ds::Value(std::uint64_t{3}));
    ex.metrics().counter("net/bytes_sent").add(123);
    ex.add_row({{"label", "a"}, {"v", ds::Value(1.25, 2)}});
    ex.add_row({{"label", "b"},
                {"v", ds::Value(2.5, 2)},
                {"extra", ds::Value(std::int64_t{7})}});
    return ex.to_json();
  };
  const std::string json = build();
  EXPECT_EQ(json, build());  // byte-identical across runs
  EXPECT_NE(json.find("\"id\": \"unit_shape\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"claim\": \"claim\""), std::string::npos);
  EXPECT_NE(json.find("\"net/bytes_sent\""), std::string::npos);
  EXPECT_NE(json.find("\"label\""), std::string::npos);
  // Column union keeps first-seen order: label, v, extra.
  const auto label_pos = json.find("\"label\"");
  const auto extra_pos = json.find("\"extra\"");
  ASSERT_NE(extra_pos, std::string::npos);
  EXPECT_LT(label_pos, extra_pos);
  // Rows serialize only the cells they set; "extra" appears in the column
  // union and in row "b" alone.
  const auto row_a = json.find("\"label\": \"a\"");
  const auto row_b = json.find("\"label\": \"b\"");
  ASSERT_NE(row_a, std::string::npos);
  ASSERT_NE(row_b, std::string::npos);
  EXPECT_EQ(json.find("\"extra\"", row_a), json.find("\"extra\"", row_b));
}

TEST(ExperimentHarness, TimingCellsExcludedFromJson) {
  ds::ExperimentOptions opts;
  opts.quiet = true;
  opts.emit_json = false;
  ds::ExperimentHarness ex("unit_timing", opts);
  ex.add_row({{"n", ds::Value(std::uint64_t{10})},
              {"wall_ms", ds::Value::timing(123.456, 1)}});
  const std::string json = ex.to_json();
  EXPECT_NE(json.find("\"n\""), std::string::npos);
  EXPECT_EQ(json.find("wall_ms"), std::string::npos);
  EXPECT_EQ(json.find("123.4"), std::string::npos);
}

TEST(ExperimentHarness, SeedForIsDeterministicAndSpreads) {
  ds::ExperimentOptions opts;
  opts.seed = 11;
  opts.quiet = true;
  opts.emit_json = false;
  ds::ExperimentHarness ex("unit_seeds", opts);
  EXPECT_EQ(ex.seed(), 11u);
  EXPECT_EQ(ex.seed_for(0), ex.seed_for(0));
  EXPECT_NE(ex.seed_for(0), ex.seed_for(1));
  EXPECT_NE(ex.seed_for(1), ex.seed_for(2));

  ds::ExperimentOptions opts2 = opts;
  opts2.seed = 12;
  ds::ExperimentHarness ex2("unit_seeds", opts2);
  EXPECT_NE(ex.seed_for(0), ex2.seed_for(0));
}

TEST(ExperimentHarness, TraceSinkInstalledOnlyWhenRequested) {
  ds::ExperimentOptions opts;
  opts.quiet = true;
  opts.emit_json = false;
  {
    ds::ExperimentHarness ex("unit_notrace", opts);
    EXPECT_EQ(ex.trace(), nullptr);
  }
  opts.trace_path = "unit_trace_tmp.jsonl";
  {
    ds::ExperimentHarness ex("unit_trace", opts);
    EXPECT_NE(ex.trace(), nullptr);
    ex.simulator().post(ds::millis(1), [] {});
    ex.simulator().run_all();
  }
  std::remove("unit_trace_tmp.jsonl");
}

TEST(ExperimentCli, ParsesJobs) {
  bool ok = false;
  ds::ExperimentOptions opts = parse({"--jobs", "4"}, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(opts.jobs, 4u);
  parse({"--jobs", "0"}, &ok);
  EXPECT_FALSE(ok);
  parse({"--jobs", "nope"}, &ok);
  EXPECT_FALSE(ok);
}

TEST(ExperimentCli, ShardFlagsRequireShardAwareBench) {
  // Default ExperimentOptions are not shard-aware: the CLI must reject a
  // decomposition it would silently ignore, with an actionable message.
  bool ok = false;
  std::string error;
  parse({"--sim-shards", "4"}, &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("Shard-aware benches"), std::string::npos) << error;
  EXPECT_NE(error.find("bench_e22_transport"), std::string::npos) << error;
  parse({"--sim-threads", "4"}, &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("bench_e22_transport"), std::string::npos) << error;
  // Value 1 is the status quo and always fine.
  parse({"--sim-shards", "1", "--sim-threads", "1"}, &ok);
  EXPECT_TRUE(ok);
  // A shard-aware bench accepts both, and bad values still error.
  std::vector<const char*> argv{"bench", "--sim-shards", "8",
                                "--sim-threads", "2"};
  ds::ExperimentOptions opts;
  opts.shard_aware = true;
  const bool parsed = ds::ExperimentHarness::parse_cli(
      static_cast<int>(argv.size()),
      const_cast<char* const*>(argv.data()), opts, error);
  EXPECT_TRUE(parsed);
  EXPECT_EQ(opts.sim_shards, 8u);
  EXPECT_EQ(opts.sim_threads, 2u);
  parse({"--sim-shards", "0"}, &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("positive integer"), std::string::npos) << error;
}

TEST(ExperimentCli, SimShardsAtMostKernelBound) {
  // Above ShardedKernel::kMaxShards the kernel would refuse the count (or,
  // near 2^64, fail to allocate it); the CLI says so first, with rc 2.
  ds::ExperimentOptions shard_aware;
  shard_aware.shard_aware = true;
  bool ok = true;
  std::string error;
  for (const char* bad : {"65", "18446744073709551615"}) {
    parse({"--sim-shards", bad}, &ok, &error, shard_aware);
    EXPECT_FALSE(ok) << bad;
    EXPECT_EQ(error.rfind("--sim-shards:", 0), 0u) << error;
    EXPECT_NE(error.find("64"), std::string::npos) << error;
    EXPECT_NE(error.find(bad), std::string::npos) << error;
  }
  parse({"--sim-shards", "64"}, &ok, &error, shard_aware);
  EXPECT_TRUE(ok) << error;
}

TEST(ExperimentCli, ChaosSweepRejectsInstrumentsOutsideRepro) {
  // The chaos sweep instruments none of its runs, so the CLI rejects the
  // instrument flags unless --repro names the one run to instrument.
  auto chaos_parse = [](std::vector<const char*> tail, std::string* error) {
    std::vector<const char*> argv{"bench"};
    argv.insert(argv.end(), tail.begin(), tail.end());
    ds::ExperimentOptions opts;
    opts.chaos_aware = true;
    return ds::ExperimentHarness::parse_cli(
        static_cast<int>(argv.size()), const_cast<char* const*>(argv.data()),
        opts, *error);
  };
  std::string error;
  EXPECT_FALSE(chaos_parse({"--trace", "t.jsonl"}, &error));
  EXPECT_NE(error.find("--trace"), std::string::npos) << error;
  EXPECT_NE(error.find("--repro"), std::string::npos) << error;
  EXPECT_FALSE(chaos_parse({"--stream-trace", "t.jsonl"}, &error));
  EXPECT_EQ(error, "unrecognized argument: --stream-trace");
  for (const char* flag : {"--profile", "--telemetry", "--telemetry=50ms"}) {
    EXPECT_FALSE(chaos_parse({"--chaos-seeds", "2", flag}, &error)) << flag;
    EXPECT_NE(error.find("--repro"), std::string::npos) << error;
  }
  // Flag order does not matter: --repro may come last.
  EXPECT_TRUE(chaos_parse({"--trace", "t.jsonl", "--profile", "--telemetry",
                           "--repro", "r.json"},
                          &error))
      << error;
  EXPECT_TRUE(chaos_parse({"--chaos-seeds", "2"}, &error)) << error;
  // Benches that are not chaos-aware keep their instrument flags.
  bool ok = false;
  parse({"--trace", "t.jsonl", "--profile", "--telemetry"}, &ok);
  EXPECT_TRUE(ok);
}

namespace {

/// A bench that declares `max_n`, `mode` and `rounds`.
const ds::ExperimentOptions kDeclared = [] {
  ds::ExperimentOptions opts;
  opts.params = {{"max_n", "7"}, {"mode", "slow"}, {"rounds", "3"}};
  return opts;
}();

}  // namespace

TEST(ExperimentCli, ParsesRepeatableParams) {
  bool ok = false;
  std::string error;
  ds::ExperimentOptions opts = parse(
      {"--param", "max_n=1000", "--param", "mode=fast", "--param",
       "max_n=50"},
      &ok, &error, kDeclared);
  ASSERT_TRUE(ok) << error;
  // The three declared defaults, then the three overrides.
  ASSERT_EQ(opts.params.size(), 6u);
  EXPECT_EQ(opts.params[3].first, "max_n");
  EXPECT_EQ(opts.params[3].second, "1000");

  ds::ExperimentHarness ex("params_test", std::move(opts));
  EXPECT_EQ(ex.cli_param("mode"), "fast");
  // Last occurrence of a repeated key wins; the default covers the rest.
  EXPECT_EQ(ex.cli_param_u64("max_n"), 50u);
  EXPECT_EQ(ex.cli_param_u64("rounds"), 3u);
  // Reading a key the bench never declared is a bug in the bench.
  EXPECT_THROW((void)ex.cli_param("absent"), std::logic_error);
  EXPECT_THROW((void)ex.cli_param_u64("absent"), std::logic_error);

  parse({"--param", "missing-equals"}, &ok, &error, kDeclared);
  EXPECT_FALSE(ok);
  parse({"--param", "=value"}, &ok, &error, kDeclared);
  EXPECT_FALSE(ok);
}

TEST(ExperimentCli, RejectsUndeclaredParam) {
  // A typo must not run the default: the error names the key and lists the
  // declared ones.
  bool ok = true;
  std::string error;
  parse({"--param", "maxn=1000"}, &ok, &error, kDeclared);
  EXPECT_FALSE(ok);
  EXPECT_EQ(error.rfind("--param maxn:", 0), 0u) << error;
  EXPECT_NE(error.find("max_n, mode, rounds"), std::string::npos) << error;
  // A bench that declares nothing takes no --param at all.
  parse({"--param", "x=-1"}, &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("--param x"), std::string::npos) << error;
  EXPECT_NE(error.find("none"), std::string::npos) << error;
  // --help lists the declared keys with their defaults.
  const std::string help = ds::ExperimentHarness::usage(
      "bench", "id", {{"max_n", "7"}, {"mode", "slow"}, {"max_n", "9"}});
  EXPECT_NE(help.find("max_n=7\n"), std::string::npos) << help;
  EXPECT_NE(help.find("mode=slow\n"), std::string::npos) << help;
  EXPECT_EQ(help.find("max_n=9"), std::string::npos) << help;
}

TEST(ExperimentCli, IntegerFlagsRejectSignOverflowAndTrailingText) {
  // strtoull reads "-1" as 2^64-1 and clamps overflow to it; each integer
  // flag must refuse both rather than run with a value nobody typed.
  struct Bad {
    const char* flag;
    const char* value;
  };
  const Bad cases[] = {
      {"--seed", "-1"},
      {"--seed", "99999999999999999999999"},
      {"--seed", "18446744073709551616"},
      {"--seed", "7abc"},
      {"--jobs", "-1"},
      {"--jobs", "18446744073709551616"},
      {"--sim-shards", "-1"},
      {"--sim-shards", "99999999999999999999"},
      {"--sim-threads", "-1"},
      {"--sim-threads", "18446744073709551616"},
      {"--chaos-seeds", "-1"},
      {"--chaos-seeds", "18446744073709551616"},
      {"--telemetry", "-5ms"},
      {"--telemetry", "99999999999999s"},
      {"--telemetry", "9223372036854775808us"},
      {"--telemetry", "18446744073709551616ms"},
  };
  for (const Bad& c : cases) {
    const std::string flag = c.flag;
    const std::string attached = flag + "=" + c.value;
    std::vector<const char*> argv{"bench"};
    if (flag == "--telemetry") {
      argv.push_back(attached.c_str());
    } else {
      argv.push_back(c.flag);
      argv.push_back(c.value);
    }
    ds::ExperimentOptions opts;
    opts.shard_aware = true;
    opts.chaos_aware = flag == "--chaos-seeds";
    std::string error;
    EXPECT_FALSE(ds::ExperimentHarness::parse_cli(
        static_cast<int>(argv.size()), const_cast<char* const*>(argv.data()),
        opts, error))
        << flag << " " << c.value;
    EXPECT_EQ(error.rfind(flag + ":", 0), 0u) << error;
    EXPECT_NE(error.find(c.value), std::string::npos) << error;
  }
  // The largest values that fit are still accepted, in today's syntax.
  bool ok = false;
  ds::ExperimentOptions opts =
      parse({"--seed", "0xFFFFFFFFFFFFFFFF",
             "--telemetry=9223372036854775807us"},
            &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(opts.seed, 18446744073709551615u);
  EXPECT_EQ(opts.telemetry_interval, 9223372036854775807);
  opts = parse({"--telemetry=2s"}, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(opts.telemetry_interval, ds::seconds(2));
}

TEST(ExperimentCli, TelemetryOutNeedsTelemetry) {
  bool ok = true;
  std::string error;
  parse({"--telemetry-out", "series.jsonl"}, &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("without --telemetry"), std::string::npos) << error;
  parse({"--telemetry-out", "series.jsonl", "--telemetry"}, &ok);
  EXPECT_TRUE(ok);
  parse({"--telemetry=5ms", "--telemetry-out", "series.jsonl"}, &ok);
  EXPECT_TRUE(ok);
}

TEST(ExperimentCliDeathTest, ParamU64RejectsSignAndOverflow) {
  for (const char* bad : {"-1", "99999999999999999999999"}) {
    ds::ExperimentOptions opts;
    opts.params = {{"max_n", "7"}, {"max_n", bad}};
    const ds::ExperimentHarness ex("param_death", std::move(opts));
    EXPECT_EXIT((void)ex.cli_param_u64("max_n"),
                ::testing::ExitedWithCode(2),
                std::string("--param max_n: .*") + bad);
  }
}

namespace {

// A sweep whose per-point work is deliberately scheduled to finish out of
// order under parallelism: point 0 sleeps longest, point N-1 not at all.
std::string run_point_sweep(std::size_t jobs) {
  ds::ExperimentOptions opts;
  opts.seed = 9;
  opts.jobs = jobs;
  opts.quiet = true;
  opts.emit_json = false;
  ds::ExperimentHarness ex("unit_points", opts);
  const std::size_t kPoints = 6;
  ex.run_points(kPoints, [&](ds::PointScope& scope) {
    if (jobs > 1) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(5 * (kPoints - scope.index())));
    }
    // Each point drives its own kernel, seeded off the root seed exactly as
    // the migrated benches do.
    ds::Simulator simu(scope.root_seed() + scope.index());
    std::uint64_t fired = 0;
    for (int i = 0; i < 10; ++i) {
      simu.post(ds::millis(i), [&fired] { ++fired; });
    }
    simu.run_all();
    scope.metrics().counter("pt/fired").add(fired);
    scope.add_row({{"point", std::uint64_t{scope.index()}},
                   {"fired", std::uint64_t{fired}},
                   {"seed", std::uint64_t{scope.seed()}}});
  });
  return ex.to_json();
}

}  // namespace

TEST(ExperimentRunPoints, RowsMergeInIndexOrderRegardlessOfJobs) {
  const std::string sequential = run_point_sweep(1);
  const std::string parallel = run_point_sweep(4);
  EXPECT_EQ(sequential, parallel);  // byte-identical artifact
  // Rows really are in index order.
  std::size_t pos = 0;
  for (std::uint64_t p = 0; p < 6; ++p) {
    const auto at =
        sequential.find("\"point\": " + std::to_string(p), pos);
    ASSERT_NE(at, std::string::npos) << "missing point " << p;
    pos = at;
  }
  // Point-private counters merged into the harness registry.
  EXPECT_NE(sequential.find("\"pt/fired\":60"), std::string::npos);
}

TEST(ExperimentRunPoints, PointSeedsAreDerivedFromRootSeed) {
  ds::ExperimentOptions opts;
  opts.seed = 21;
  opts.quiet = true;
  opts.emit_json = false;
  ds::ExperimentHarness ex("unit_point_seeds", opts);
  std::vector<std::uint64_t> seeds;
  ex.run_points(3, [&](ds::PointScope& scope) {
    EXPECT_EQ(scope.root_seed(), 21u);
    seeds.push_back(scope.seed());
  });
  ASSERT_EQ(seeds.size(), 3u);
  EXPECT_EQ(seeds[0], ex.seed_for(0));
  EXPECT_EQ(seeds[1], ex.seed_for(1));
  EXPECT_EQ(seeds[2], ex.seed_for(2));
  EXPECT_NE(seeds[0], seeds[1]);
}

TEST(ExperimentRunPoints, TracingForcesSequentialExecution) {
  ds::ExperimentOptions opts;
  opts.jobs = 8;
  opts.quiet = true;
  opts.emit_json = false;
  opts.trace_path = "unit_points_trace_tmp.jsonl";
  ds::ExperimentHarness ex("unit_points_trace", opts);
  EXPECT_EQ(ex.effective_jobs(), 1u);
  ex.run_points(2, [&](ds::PointScope& scope) {
    EXPECT_NE(scope.trace(), nullptr);
  });
  std::remove("unit_points_trace_tmp.jsonl");
}

TEST(ExperimentRunPoints, LowestIndexExceptionWinsAcrossWorkers) {
  ds::ExperimentOptions opts;
  opts.jobs = 4;
  opts.quiet = true;
  opts.emit_json = false;
  ds::ExperimentHarness ex("unit_points_throw", opts);
  std::atomic<int> started{0};
  try {
    ex.run_points(6, [&](ds::PointScope& scope) {
      started.fetch_add(1);
      if (scope.index() == 1) throw std::runtime_error("point-1");
      if (scope.index() == 3) {
        // Give point 1 time to throw first so both failures are in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("point-3");
      }
    });
    FAIL() << "expected run_points to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "point-1");
  }
  EXPECT_GE(started.load(), 2);
  EXPECT_EQ(ex.row_count(), 0u);  // failed sweep merges nothing
}

TEST(ExperimentHarness, FinishIsIdempotentAndReturnsZero) {
  ds::ExperimentOptions opts;
  opts.quiet = true;
  opts.emit_json = false;
  ds::ExperimentHarness ex("unit_finish", opts);
  ex.add_row({{"x", ds::Value(std::uint64_t{1})}});
  EXPECT_EQ(ex.finish(), 0);
  EXPECT_EQ(ex.finish(), 0);
  EXPECT_EQ(ex.row_count(), 1u);
}

TEST(ExperimentHarness, FinishFailsWhenAnOutputWriteFails) {
  // /dev/full accepts every open and fails every write with ENOSPC, so each
  // harness output in turn goes there; finish() must exit 1 and name it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const std::string output : {"json", "trace", "series"}) {
    SCOPED_TRACE(output);
    ds::ExperimentOptions opts;
    opts.quiet = true;
    opts.emit_json = output == "json";
    opts.json_path = "/dev/full";
    if (output == "trace") opts.trace_path = "/dev/full";
    if (output == "series") {
      opts.telemetry_interval = ds::millis(100);
      opts.telemetry_path = "/dev/full";
    }
    ds::ExperimentHarness ex("unit_full", opts);
    ex.simulator().post(ds::millis(1), [] {});
    ex.simulator().run_until(ds::seconds(1));
    ex.add_row({{"x", ds::Value(std::uint64_t{1})}});
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(ex.finish(), 1);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "cannot write /dev/full\n");
  }
}
