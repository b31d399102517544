// End-to-end scenario runners: each assembles a complete system (network,
// nodes, workload), runs it for a simulated duration, and returns the
// measurements the paper's claims are phrased in. Benches stay thin wrappers
// over these.
//
// Every runner comes in three flavours:
//   run_*_scenario(cfg)            — standalone; seed from cfg.common.seed.
//   run_*_scenario(cfg, harness)   — seed/metrics/trace from the harness.
//   run_*_scenario(cfg, scope)     — inside run_points(): root seed, the
//                                    point-private registry, the point trace.
// The harness/scope overloads exist so benches stop hand-plumbing
// seed/trace/registry; cfg.common.seed is ignored there.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "chain/params.hpp"
#include "edge/federation.hpp"
#include "net/transport.hpp"
#include "sim/time.hpp"

namespace decentnet::sim {
class ExperimentHarness;
class PointScope;
}  // namespace decentnet::sim

namespace decentnet::core {

/// Knobs every scenario shares, embedded as `.common` in each
/// *ScenarioConfig (per-scenario defaults come from the member
/// initializer). `latency` is the scenario's one-way delay scale — the
/// median of the wide-area lognormal for PoW, the LAN constant for the
/// consortium/cloud scenarios; the edge scenario uses a geographic model
/// and ignores it.
struct ScenarioCommon {
  std::uint64_t seed = 42;
  sim::SimDuration duration = 0;
  sim::SimDuration latency = 0;
  /// Enable causal span tracking on the scenario's Network: every relayed
  /// message carries a (root, parent-hop) span, traces gain "span" records,
  /// and span-derived histograms (relay-tree depth, lookup path length)
  /// come alive. Off by default — spans cost a few ns per delivery and
  /// change trace bytes, so golden-trace comparisons pin this off.
  bool track_spans = false;
  /// Shard the scenario's kernel this many ways (sim::ShardedKernel).
  /// Only shard-aware scenarios accept > 1 — the chain/BFT/fabric stacks
  /// funnel through shared in-memory state (mempools, ledgers, orderer
  /// queues) that is not shard-safe, so their validate() rejects it with
  /// an actionable error. 1 (the default) is the legacy single-kernel
  /// path, bit-for-bit.
  std::size_t sim_shards = 1;
  /// Worker threads for a sharded kernel's windows. Ignored when
  /// sim_shards == 1. Results never depend on this — it is purely a
  /// wall-clock knob (the determinism contract in sim/sharding.hpp).
  std::size_t sim_threads = 1;
  /// The transport model every scenario's Network runs (mode, default
  /// LinkSpec, Tcp constants — see net/transport.hpp). Defaults to pure
  /// latency; scenarios validate it uniformly on entry.
  net::TransportConfig transport;
};

// ---------------------------------------------------------------------------
// Permissionless PoW chain under load (E5, E10)
// ---------------------------------------------------------------------------

struct PowScenarioConfig {
  chain::ChainParams params = chain::ChainParams::bitcoin();
  ScenarioCommon common{42, sim::hours(2), sim::millis(80)};
  std::size_t nodes = 40;            // full nodes forming the gossip mesh
  std::size_t degree = 6;            // mesh degree
  std::size_t miners = 10;           // subset of nodes that mine
  double total_hashrate = 1e9;       // hashes/s across all miners
  std::size_t wallets = 64;
  double tx_rate_per_sec = 8.0;      // offered load
  chain::Amount tx_amount = 1000;
  chain::Amount tx_fee = 10;
  /// Relay blocks as header+txids (BIP152-style) instead of full bodies.
  /// Link capacity / congestion modeling moved to common.transport.
  bool compact_relay = false;

  /// Actionable description of the first invalid field, or nullopt when the
  /// config is runnable. Runners reject invalid configs on entry.
  std::optional<std::string> validate() const;
};

struct PowScenarioResult {
  std::uint64_t blocks_on_chain = 0;
  std::uint64_t stale_blocks = 0;
  std::uint64_t confirmed_txs = 0;   // on the observer's active chain
  std::uint64_t submitted_txs = 0;
  double throughput_tps = 0;
  double mean_block_interval_s = 0;
  double stale_rate = 0;
  double mean_reorg_depth = 0;
};

PowScenarioResult run_pow_scenario(const PowScenarioConfig& config);
PowScenarioResult run_pow_scenario(const PowScenarioConfig& config,
                                   sim::ExperimentHarness& harness);
PowScenarioResult run_pow_scenario(const PowScenarioConfig& config,
                                   sim::PointScope& scope);

// ---------------------------------------------------------------------------
// Permissioned (Fabric) channel under load (E11, E12)
// ---------------------------------------------------------------------------

enum class OrdererKind : std::uint8_t { Solo, Raft, Pbft };

struct FabricScenarioConfig {
  ScenarioCommon common{42, sim::minutes(2), sim::millis(2)};
  std::size_t orgs = 4;
  std::size_t peers_per_org = 1;
  std::size_t required_endorsements = 2;
  OrdererKind orderer = OrdererKind::Raft;
  std::size_t orderer_nodes = 3;  // Raft group size, or f for PBFT
  std::size_t clients = 8;
  double tx_rate_per_sec = 200.0;  // offered load across all clients
  std::size_t block_max_txs = 50;
  sim::SimDuration block_timeout = sim::millis(250);
  /// If nonzero, each client hammers a shared set of hot keys this wide —
  /// drives the MVCC conflict rate.
  std::size_t hot_keys = 0;

  std::optional<std::string> validate() const;
};

struct FabricScenarioResult {
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::uint64_t mvcc_conflicts = 0;
  double throughput_tps = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
};

FabricScenarioResult run_fabric_scenario(const FabricScenarioConfig& config);
FabricScenarioResult run_fabric_scenario(const FabricScenarioConfig& config,
                                         sim::ExperimentHarness& harness);
FabricScenarioResult run_fabric_scenario(const FabricScenarioConfig& config,
                                         sim::PointScope& scope);

// ---------------------------------------------------------------------------
// Partitioned cloud commit (the "VISA" baseline of E5)
// ---------------------------------------------------------------------------

struct PartitionedScenarioConfig {
  ScenarioCommon common{42, sim::seconds(30), sim::millis(1)};
  std::size_t partitions = 8;       // shared-nothing shards
  std::size_t replicas = 3;         // Raft replicas per partition (<= 64)
  double tx_rate_per_sec = 20000;   // offered load across partitions

  std::optional<std::string> validate() const;
};

struct PartitionedScenarioResult {
  std::uint64_t committed = 0;
  double throughput_tps = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
};

PartitionedScenarioResult run_partitioned_scenario(
    const PartitionedScenarioConfig& config);
PartitionedScenarioResult run_partitioned_scenario(
    const PartitionedScenarioConfig& config, sim::ExperimentHarness& harness);
PartitionedScenarioResult run_partitioned_scenario(
    const PartitionedScenarioConfig& config, sim::PointScope& scope);

// ---------------------------------------------------------------------------
// Edge federation with a permissioned usage ledger (E13)
// ---------------------------------------------------------------------------

struct EdgeScenarioConfig {
  /// Latency is geographic (net::GeoLatency), so common.latency is unused.
  ScenarioCommon common{99, sim::minutes(5), 0};
  edge::Federation::Topology topology;
  edge::PlacementPolicy policy = edge::PlacementPolicy::EdgeFirst;
  double geo_jitter_sigma = 0.15;
  std::size_t requests = 2000;
  sim::SimDuration request_interval = sim::millis(10);

  std::optional<std::string> validate() const;
};

struct EdgeScenarioResult {
  std::uint64_t ok = 0;
  std::uint64_t total = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double in_region_pct = 0;
  double in_domain_pct = 0;
  /// Cross-domain usage records settled on the federation's permissioned
  /// channel (a FabricPeer + solo orderer sharing the network).
  std::uint64_t usage_records = 0;
};

EdgeScenarioResult run_edge_scenario(const EdgeScenarioConfig& config);
EdgeScenarioResult run_edge_scenario(const EdgeScenarioConfig& config,
                                     sim::ExperimentHarness& harness);
EdgeScenarioResult run_edge_scenario(const EdgeScenarioConfig& config,
                                     sim::PointScope& scope);

}  // namespace decentnet::core
