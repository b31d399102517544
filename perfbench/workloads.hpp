// The benchmark's three workloads, built from the same public classes the
// scenario runners (core/scenarios.cpp) and the E20 bench use:
//
//   pow_mesh       the ablate_relay PoW mesh: 24 full nodes, 8 miners, 100 KB
//                  blocks every 30 s over 2/16 Mbit/s links, 12 tps offered
//   raft_commit    the E5 partitioned backend: 48 Raft groups x 3 replicas,
//                  24,000 proposals/s, leaders of 12 groups isolated mid-run
//   overlay_churn  E20 at N=100k under Weibull churn: a Kademlia lookup phase
//                  then a gossip phase, each on a 4-shard ShardedKernel
//
// Load is open loop in simulated time. One call runs one workload once and
// reports wall times, the operations it offered, and a digest of the
// simulated results; a traced call (RunOptions::tracer) adds per-layer spans
// and counters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/scenarios.hpp"

namespace perfbench {

class Tracer;

struct RunOptions {
  std::uint64_t seed = 1;
  /// Worker threads for overlay_churn's sharded kernels (0 = its default, 2).
  /// Results never depend on it.
  std::size_t threads = 0;
  /// raft_commit's leader-isolation window; off reproduces
  /// core::run_partitioned_scenario exactly.
  bool fault_window = true;
  /// Non-null for a traced run: proxies, generator spans and telemetry
  /// gauges are installed, and the tracer is active during run_until.
  Tracer* tracer = nullptr;
  /// Telemetry series file written by a traced run.
  std::string series_path;
};

struct Report {
  double setup_s = 0;  // building the system, up to the first run_until
  double run_s = 0;    // the run_until call(s)
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  /// FNV-1a over the simulated results (tips, counts, sim-time latency
  /// histograms, lookup results, gossip coverage).
  std::uint64_t digest = 0;
  /// Output checks that failed; empty when the results are consistent.
  std::vector<std::string> violations;
  /// Per-layer values, named as in BENCHMARK.json's per_layer list.
  std::vector<std::pair<std::string, double>> layer;
  /// Filled by the workloads that mirror a core scenario runner, for the
  /// composition cross-check.
  std::optional<decentnet::core::PowScenarioResult> pow;
  std::optional<decentnet::core::PartitionedScenarioResult> partitioned;
};

/// Run workload `name` once. Throws std::invalid_argument for an unknown
/// name.
Report run_workload(const std::string& name, const RunOptions& options);

/// Kernel shards the workload runs on (the tracer needs one slot each).
std::size_t workload_shards(const std::string& name);

/// The scenario configurations pow_mesh and raft_commit are built from.
decentnet::core::PowScenarioConfig pow_mesh_config(std::uint64_t seed);
decentnet::core::PartitionedScenarioConfig raft_commit_config(
    std::uint64_t seed);

}  // namespace perfbench
