// Composition cross-check: the benchmark must measure the code the benches
// run. With the same config and seed, pow_mesh must reproduce
// core::run_pow_scenario's PowScenarioResult exactly, and raft_commit with
// its fault window off must reproduce core::run_partitioned_scenario's
// result exactly.
//
//   perfbench_compose [SEED...]     (default seed 1; exit 0 = all match)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

#include "workloads.hpp"

namespace core = decentnet::core;

namespace {

int g_failures = 0;

void expect_eq(const char* what, std::uint64_t seed, double bench,
               double scenario) {
  const bool ok = bench == scenario;
  std::printf("%-4s seed=%" PRIu64 " %-32s bench=%.17g scenario=%.17g\n",
              ok ? "ok" : "FAIL", seed, what, bench, scenario);
  if (!ok) ++g_failures;
}

void check_pow_mesh(std::uint64_t seed) {
  perfbench::RunOptions options;
  options.seed = seed;
  const perfbench::Report rep = perfbench::run_workload("pow_mesh", options);
  const core::PowScenarioResult want =
      core::run_pow_scenario(perfbench::pow_mesh_config(seed));
  const core::PowScenarioResult& got = *rep.pow;
  expect_eq("pow_mesh.blocks_on_chain", seed, got.blocks_on_chain,
            want.blocks_on_chain);
  expect_eq("pow_mesh.stale_blocks", seed, got.stale_blocks,
            want.stale_blocks);
  expect_eq("pow_mesh.confirmed_txs", seed, got.confirmed_txs,
            want.confirmed_txs);
  expect_eq("pow_mesh.submitted_txs", seed, got.submitted_txs,
            want.submitted_txs);
  expect_eq("pow_mesh.throughput_tps", seed, got.throughput_tps,
            want.throughput_tps);
  expect_eq("pow_mesh.mean_block_interval_s", seed, got.mean_block_interval_s,
            want.mean_block_interval_s);
  expect_eq("pow_mesh.stale_rate", seed, got.stale_rate, want.stale_rate);
  expect_eq("pow_mesh.mean_reorg_depth", seed, got.mean_reorg_depth,
            want.mean_reorg_depth);
}

void check_raft_commit(std::uint64_t seed) {
  perfbench::RunOptions options;
  options.seed = seed;
  options.fault_window = false;
  const perfbench::Report rep =
      perfbench::run_workload("raft_commit", options);
  const core::PartitionedScenarioResult want =
      core::run_partitioned_scenario(perfbench::raft_commit_config(seed));
  const core::PartitionedScenarioResult& got = *rep.partitioned;
  expect_eq("raft_commit.committed", seed, got.committed, want.committed);
  expect_eq("raft_commit.throughput_tps", seed, got.throughput_tps,
            want.throughput_tps);
  expect_eq("raft_commit.latency_p50_ms", seed, got.latency_p50_ms,
            want.latency_p50_ms);
  expect_eq("raft_commit.latency_p99_ms", seed, got.latency_p99_ms,
            want.latency_p99_ms);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> seeds;
  for (int i = 1; i < argc; ++i) seeds.push_back(std::strtoull(argv[i], nullptr, 10));
  if (seeds.empty()) seeds.push_back(1);
  try {
    for (const std::uint64_t seed : seeds) {
      check_pow_mesh(seed);
      check_raft_commit(seed);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", g_failures == 0 ? "composition: all match"
                                      : "composition: MISMATCH");
  return g_failures == 0 ? 0 : 1;
}
