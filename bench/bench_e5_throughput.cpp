// E5 — Throughput: permissionless chains vs a partitioned cloud backend
// (§III-C Problem 2).
// "While VISA is processing 24,000 transactions per second, Bitcoin can
// process between 3.3 and 7 transactions per second, and Ethereum around 15
// per second."
//
// All three systems run on the same simulated network substrate; absolute
// numbers are simulator-scale, the ordering and the orders-of-magnitude gap
// are the result.
#include "bench_util.hpp"
#include "core/scenarios.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E5_throughput", argc, argv, {.seed = 42});
  ex.describe(
      "E5: transactions per second across architectures",
      "Bitcoin 3.3-7 tps, Ethereum ~15 tps, VISA ~24,000 tps: global "
      "broadcast + full replication caps throughput at one node's capacity, "
      "while a shared-nothing partitioned backend scales linearly",
      "full-protocol simulations: PoW gossip networks with Bitcoin-like and "
      "Ethereum-like parameters under saturating load, and a Raft-replicated "
      "partitioned commit substrate (the cloud/VISA architecture)");

  // The four systems are independent sweep points (each scenario builds its
  // own Simulator, seeded with the root seed), so with --jobs N they run on
  // worker threads; rows merge in index order and the artifact bytes don't
  // depend on N.
  ex.run_points(4, [&](sim::PointScope& scope) {
    const core::ScenarioEnv env = core::ScenarioEnv::of(scope);
    switch (scope.index()) {
      case 0: {
        core::PowScenarioConfig cfg;
        cfg.params = chain::ChainParams::bitcoin();
        cfg.params.retarget_window = 0;
        cfg.params.initial_difficulty = 1e9;
        cfg.total_hashrate = 1e9 / 600.0;  // one block / 10 min
        cfg.nodes = 32;
        cfg.miners = 10;
        cfg.wallets = 48;
        cfg.tx_rate_per_sec = 10;  // saturating: capacity is ~6.7 tps
        cfg.common.duration = sim::hours(3);
        cfg.common.seed = scope.root_seed();
        const auto r = core::run_pow_scenario(cfg, env);
        scope.add_row({{"system", "Bitcoin-like PoW"},
                       {"tps", bench::Value(r.throughput_tps, 1)},
                       {"block_interval_s",
                        bench::Value(r.mean_block_interval_s, 0)},
                       {"stale_rate", bench::Value(r.stale_rate, 4)},
                       {"offered_tps", 10},
                       {"notes", "1MB blocks / 10 min"}});
        break;
      }
      case 1: {
        core::PowScenarioConfig cfg;
        cfg.params = chain::ChainParams::ethereum();
        cfg.params.retarget_window = 0;
        cfg.params.initial_difficulty = 13e6;
        cfg.total_hashrate = 13e6 / 13.0;  // one block / 13 s
        cfg.nodes = 32;
        cfg.miners = 10;
        cfg.wallets = 48;
        cfg.tx_rate_per_sec = 30;  // capacity ~17 tps
        cfg.common.duration = sim::minutes(30);
        cfg.common.seed = scope.root_seed();
        const auto r = core::run_pow_scenario(cfg, env);
        scope.add_row({{"system", "Ethereum-like PoW"},
                       {"tps", bench::Value(r.throughput_tps, 1)},
                       {"block_interval_s",
                        bench::Value(r.mean_block_interval_s, 1)},
                       {"stale_rate", bench::Value(r.stale_rate, 4)},
                       {"offered_tps", 30},
                       {"notes", "60KB blocks / 13 s"}});
        break;
      }
      case 2: {
        core::PartitionedScenarioConfig cfg;
        cfg.partitions = 16;
        cfg.replicas = 3;
        cfg.tx_rate_per_sec = 8000;
        cfg.common.duration = sim::seconds(20);
        cfg.common.seed = scope.root_seed();
        const auto r = core::run_partitioned_scenario(cfg, env);
        scope.add_row({{"system", "Partitioned cloud (16 shards)"},
                       {"tps", bench::Value(r.throughput_tps, 0)},
                       {"offered_tps", 8000},
                       {"p50_latency_ms", bench::Value(r.latency_p50_ms, 0)}});
        break;
      }
      default: {
        core::PartitionedScenarioConfig cfg;
        cfg.partitions = 48;
        cfg.replicas = 3;
        cfg.tx_rate_per_sec = 24000;
        cfg.common.duration = sim::seconds(10);
        cfg.common.seed = scope.root_seed();
        const auto r = core::run_partitioned_scenario(cfg, env);
        scope.add_row({{"system", "Partitioned cloud (48 shards)"},
                       {"tps", bench::Value(r.throughput_tps, 0)},
                       {"offered_tps", 24000},
                       {"p50_latency_ms", bench::Value(r.latency_p50_ms, 0)}});
        break;
      }
    }
  });
  const int rc = ex.finish();
  std::printf(
      "\nThe PoW rows are capped near block_bytes/(tx_bytes*interval) no\n"
      "matter the offered load; the partitioned rows track offered load —\n"
      "add shards, get throughput. That is the paper's VISA contrast.\n");
  return rc;
}
