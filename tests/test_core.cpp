// Core analysis toolkit: trilemma evaluator properties and smoke runs of the
// three scenario drivers (small configurations; benches run the full sizes).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenarios.hpp"
#include "core/trilemma.hpp"
#include "sim/metrics.hpp"
#include "sim/profiler.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

namespace dc = decentnet::core;
namespace ds = decentnet::sim;

TEST(Trilemma, FullBroadcastMaximizesSecurityAndMinimizesThroughput) {
  dc::TrilemmaDesign d;
  d.shards = 1;
  d.node_capacity_tps = 15;
  const auto p = dc::evaluate_trilemma(d);
  EXPECT_DOUBLE_EQ(p.throughput_tps, 15);
  EXPECT_DOUBLE_EQ(p.scalability, 1);
  EXPECT_DOUBLE_EQ(p.security, 0.5);
  EXPECT_DOUBLE_EQ(p.per_node_load, 1.0);
}

TEST(Trilemma, ShardingTradesSecurityForThroughput) {
  const auto sweep = dc::trilemma_sweep(1000, 10, {1, 2, 4, 8, 16, 64});
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].throughput_tps, sweep[i - 1].throughput_tps);
    EXPECT_LT(sweep[i].security, sweep[i - 1].security);
  }
  // The product of scalability and security is invariant: pick two.
  for (const auto& p : sweep) {
    EXPECT_NEAR(p.scalability * p.security, 0.5, 1e-9);
  }
}

TEST(Scenarios, PowSmokeRun) {
  dc::PowScenarioConfig cfg;
  cfg.nodes = 12;
  cfg.miners = 4;
  cfg.wallets = 8;
  cfg.tx_rate_per_sec = 2;
  cfg.common.duration = ds::minutes(40);
  cfg.params.target_block_interval = ds::minutes(2);
  cfg.params.initial_difficulty = 1e6;
  cfg.params.retarget_window = 0;
  cfg.total_hashrate = 1e6 / 120.0;  // ~1 block / 2 min
  const auto r = dc::run_pow_scenario(cfg);
  EXPECT_GT(r.blocks_on_chain, 5u);
  EXPECT_GT(r.confirmed_txs, 100u);
  EXPECT_GT(r.throughput_tps, 0.1);
  EXPECT_LT(r.stale_rate, 0.2);
}

TEST(Scenarios, FabricSmokeRun) {
  dc::FabricScenarioConfig cfg;
  cfg.orgs = 3;
  cfg.required_endorsements = 2;
  cfg.orderer = dc::OrdererKind::Raft;
  cfg.clients = 4;
  cfg.tx_rate_per_sec = 50;
  cfg.common.duration = ds::seconds(30);
  const auto r = dc::run_fabric_scenario(cfg);
  EXPECT_GT(r.committed, 1000u);
  EXPECT_GT(r.throughput_tps, 30);
  EXPECT_GT(r.latency_p50_ms, 0);
  EXPECT_LT(r.latency_p50_ms, 2000);
}

TEST(Scenarios, FabricHotKeysCauseMvccConflicts) {
  dc::FabricScenarioConfig cfg;
  cfg.orgs = 3;
  cfg.required_endorsements = 2;
  cfg.orderer = dc::OrdererKind::Solo;
  cfg.clients = 4;
  cfg.tx_rate_per_sec = 100;
  cfg.common.duration = ds::seconds(20);
  cfg.hot_keys = 2;  // everyone hammers two keys
  const auto r = dc::run_fabric_scenario(cfg);
  EXPECT_GT(r.mvcc_conflicts, 10u);
}

TEST(Scenarios, PartitionedScalesWithPartitions) {
  dc::PartitionedScenarioConfig small;
  small.partitions = 2;
  small.tx_rate_per_sec = 2000;
  small.common.duration = ds::seconds(10);
  const auto r2 = dc::run_partitioned_scenario(small);

  dc::PartitionedScenarioConfig big = small;
  big.partitions = 8;
  big.tx_rate_per_sec = 8000;
  const auto r8 = dc::run_partitioned_scenario(big);

  EXPECT_GT(r2.throughput_tps, 1500);
  EXPECT_GT(r8.throughput_tps, r2.throughput_tps * 3);
  EXPECT_LT(r8.latency_p50_ms, 100);
}

TEST(Scenarios, EnvInstrumentsTheRun) {
  dc::PartitionedScenarioConfig cfg;
  cfg.partitions = 2;
  cfg.tx_rate_per_sec = 500;
  cfg.common.duration = ds::seconds(3);
  const auto plain = dc::run_partitioned_scenario(cfg);

  ds::MetricRegistry registry;
  std::ostringstream trace_out;
  ds::JsonlTraceSink trace(trace_out);
  ds::Profiler profiler;
  const std::string series_path =
      ::testing::TempDir() + "decentnet_scenario_env.jsonl";
  dc::PartitionedScenarioResult instrumented;
  {
    ds::SeriesSink sink(series_path);
    ds::Telemetry telemetry(sink);
    instrumented = dc::run_partitioned_scenario(
        cfg, {.metrics = &registry,
              .trace = &trace,
              .profiler = &profiler,
              .telemetry = &telemetry});
  }
  trace.flush();
  std::ifstream in(series_path);
  std::ostringstream series;
  series << in.rdbuf();
  in.close();
  std::remove(series_path.c_str());

  // The env lends instruments only: the seed is cfg.common.seed either way.
  EXPECT_EQ(instrumented.committed, plain.committed);
  EXPECT_EQ(instrumented.throughput_tps, plain.throughput_tps);
  EXPECT_EQ(instrumented.latency_p50_ms, plain.latency_p50_ms);
  EXPECT_EQ(instrumented.latency_p99_ms, plain.latency_p99_ms);
  EXPECT_GT(plain.committed, 0u);

  EXPECT_FALSE(trace_out.str().empty());
  EXPECT_FALSE(profiler.empty());
  ASSERT_EQ(registry.counters().count("net/messages_sent"), 1u);
  EXPECT_GT(registry.counters().at("net/messages_sent").value(), 0u);
  EXPECT_NE(series.str().find("\"series\":\"kernel/backlog\""),
            std::string::npos);
  EXPECT_NE(series.str().find("\"series\":\"net/messages_sent\""),
            std::string::npos);
}
