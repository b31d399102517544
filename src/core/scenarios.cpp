#include "core/scenarios.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bft/raft.hpp"
#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "chain/wallet.hpp"
#include "fabric/channel.hpp"
#include "fabric/contracts.hpp"
#include "net/topology.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"

namespace decentnet::core {

namespace {

void check_valid(const std::optional<std::string>& error) {
  if (error) throw std::invalid_argument(*error);
}

/// Install the env's trace sink, profiler and telemetry on a run's kernel.
/// Attaching telemetry drops its registrations, so a runner registers its
/// Network's series after this call.
void instrument(sim::Simulator& sim, const ScenarioEnv& env) {
  sim.set_trace(env.trace);
  sim.set_profiler(env.profiler);
  if (env.telemetry != nullptr) env.telemetry->attach(sim);
}

}  // namespace

ScenarioEnv ScenarioEnv::of(sim::ExperimentHarness& harness) {
  return {&harness.metrics(), harness.trace(), harness.profiler(),
          harness.telemetry()};
}

ScenarioEnv ScenarioEnv::of(sim::PointScope& scope) {
  return {&scope.metrics(), scope.trace(), scope.profiler(),
          scope.telemetry()};
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

std::optional<std::string> PowScenarioConfig::validate() const {
  if (nodes == 0) return "PowScenarioConfig: nodes must be > 0";
  if (degree == 0 || degree >= nodes) {
    return "PowScenarioConfig: degree must be in [1, nodes-1], got degree=" +
           std::to_string(degree) + " with nodes=" + std::to_string(nodes);
  }
  if (miners > nodes) {
    return "PowScenarioConfig: miners (" + std::to_string(miners) +
           ") must be <= nodes (" + std::to_string(nodes) + ")";
  }
  if (wallets < 2) {
    return "PowScenarioConfig: wallets must be >= 2 (the workload pays one "
           "wallet from another)";
  }
  if (total_hashrate <= 0) {
    return "PowScenarioConfig: total_hashrate must be > 0 or no block is "
           "ever mined";
  }
  if (tx_rate_per_sec < 0) {
    return "PowScenarioConfig: tx_rate_per_sec must be >= 0 (0 disables the "
           "workload)";
  }
  if (common.duration <= 0) return "PowScenarioConfig: duration must be > 0";
  if (common.latency <= 0) {
    return "PowScenarioConfig: common.latency (median one-way delay) must "
           "be > 0";
  }
  if (auto err = common.transport.validate()) {
    return "PowScenarioConfig: " + *err;
  }
  return std::nullopt;
}

std::optional<std::string> FabricScenarioConfig::validate() const {
  if (orgs == 0 || peers_per_org == 0) {
    return "FabricScenarioConfig: orgs and peers_per_org must be > 0";
  }
  if (required_endorsements == 0 ||
      required_endorsements > orgs * peers_per_org) {
    return "FabricScenarioConfig: required_endorsements must be in "
           "[1, orgs*peers_per_org], got " +
           std::to_string(required_endorsements) + " with " +
           std::to_string(orgs * peers_per_org) + " peers";
  }
  if (orderer_nodes == 0) {
    return "FabricScenarioConfig: orderer_nodes must be > 0 (Raft group "
           "size, or f for PBFT)";
  }
  if (clients == 0) return "FabricScenarioConfig: clients must be > 0";
  if (tx_rate_per_sec <= 0) {
    return "FabricScenarioConfig: tx_rate_per_sec must be > 0";
  }
  if (block_max_txs == 0) {
    return "FabricScenarioConfig: block_max_txs must be > 0";
  }
  if (block_timeout <= 0) {
    return "FabricScenarioConfig: block_timeout must be > 0 or partial "
           "blocks never cut";
  }
  if (common.duration <= 0) {
    return "FabricScenarioConfig: duration must be > 0";
  }
  if (common.latency <= 0) {
    return "FabricScenarioConfig: common.latency (LAN delay) must be > 0";
  }
  if (auto err = common.transport.validate()) {
    return "FabricScenarioConfig: " + *err;
  }
  return std::nullopt;
}

std::optional<std::string> PartitionedScenarioConfig::validate() const {
  if (partitions == 0) {
    return "PartitionedScenarioConfig: partitions must be > 0";
  }
  if (replicas == 0) {
    return "PartitionedScenarioConfig: replicas must be > 0 (each shard is "
           "a Raft group)";
  }
  if (replicas > bft::RaftNode::kMaxGroupSize) {
    return "PartitionedScenarioConfig: replicas must be <= " +
           std::to_string(bft::RaftNode::kMaxGroupSize) +
           " (a Raft group tallies votes in a 64-bit mask)";
  }
  if (tx_rate_per_sec <= 0) {
    return "PartitionedScenarioConfig: tx_rate_per_sec must be > 0";
  }
  if (common.duration <= 0) {
    return "PartitionedScenarioConfig: duration must be > 0";
  }
  if (common.latency <= 0) {
    return "PartitionedScenarioConfig: common.latency (LAN delay) must "
           "be > 0";
  }
  if (auto err = common.transport.validate()) {
    return "PartitionedScenarioConfig: " + *err;
  }
  return std::nullopt;
}

std::optional<std::string> EdgeScenarioConfig::validate() const {
  if (topology.regions == 0) {
    return "EdgeScenarioConfig: topology.regions must be > 0";
  }
  if (topology.cloud_region >= topology.regions) {
    return "EdgeScenarioConfig: topology.cloud_region must name one of the " +
           std::to_string(topology.regions) + " regions";
  }
  if (topology.users_per_region == 0) {
    return "EdgeScenarioConfig: topology.users_per_region must be > 0";
  }
  if (requests == 0) return "EdgeScenarioConfig: requests must be > 0";
  if (request_interval <= 0) {
    return "EdgeScenarioConfig: request_interval must be > 0";
  }
  if (common.duration <= 0) return "EdgeScenarioConfig: duration must be > 0";
  if (auto err = common.transport.validate()) {
    return "EdgeScenarioConfig: " + *err;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// PoW scenario
// ---------------------------------------------------------------------------

PowScenarioResult run_pow_scenario(const PowScenarioConfig& config,
                                   const ScenarioEnv& env) {
  check_valid(config.validate());
  sim::Simulator sim(config.common.seed);
  instrument(sim, env);
  net::NetworkConfig net_cfg;
  net_cfg.transport = config.common.transport;
  net_cfg.expected_nodes = config.nodes;
  net_cfg.track_spans = config.common.track_spans;
  check_valid(net_cfg.validate());
  net::Network net(sim,
                   std::make_unique<net::LogNormalLatency>(
                       config.common.latency, 0.4),
                   net_cfg, env.metrics);
  if (env.telemetry != nullptr) net.register_telemetry(*env.telemetry);
  sim::Rng rng = sim.rng().fork(0x9C0E);

  // Wallets funded from a premined genesis: many small outputs each so the
  // workload can keep spending while change waits for confirmation.
  std::vector<chain::Wallet> wallets;
  std::vector<std::pair<crypto::PublicKey, chain::Amount>> premine;
  constexpr std::size_t kOutputsPerWallet = 100;
  for (std::size_t i = 0; i < config.wallets; ++i) {
    wallets.push_back(
        chain::Wallet::from_seed(config.common.seed * 1000003 + i));
    for (std::size_t k = 0; k < kOutputsPerWallet; ++k) {
      premine.emplace_back(wallets.back().address(),
                           chain::Amount{1'000'000});
    }
  }
  const chain::BlockPtr genesis =
      chain::make_genesis_multi(premine, config.params.initial_difficulty);

  // Full-node mesh.
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < config.nodes; ++i) {
    addrs.push_back(net.new_node_id());
  }
  const net::AdjacencyList adj =
      net::TopologySpec{.kind = net::TopologySpec::Kind::Random,
                        .nodes = config.nodes,
                        .degree = config.degree}
          .build(rng);
  std::vector<std::unique_ptr<chain::FullNode>> nodes;
  for (std::size_t i = 0; i < config.nodes; ++i) {
    nodes.push_back(std::make_unique<chain::FullNode>(net, addrs[i],
                                                      config.params, genesis));
    nodes.back()->set_compact_relay(config.compact_relay);
    std::vector<net::NodeId> neighbors;
    for (std::size_t j : adj[i]) neighbors.push_back(addrs[j]);
    nodes.back()->connect(std::move(neighbors));
  }

  // Miners on the first `miners` nodes, equal hash-power split.
  std::vector<std::unique_ptr<chain::Miner>> miners;
  const double per_miner =
      config.total_hashrate / static_cast<double>(std::max<std::size_t>(
                                  config.miners, 1));
  for (std::size_t i = 0; i < config.miners && i < nodes.size(); ++i) {
    const chain::Wallet payout =
        chain::Wallet::from_seed(config.common.seed * 2000003 + i);
    miners.push_back(std::make_unique<chain::Miner>(
        *nodes[i], payout.address(), per_miner));
    miners.back()->start();
  }

  // Workload: exponential inter-arrival, random wallet pays random wallet,
  // submitted at a random node.
  std::uint64_t submitted = 0;
  std::uint64_t tx_nonce = 0;
  auto next_tx = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_next = next_tx;
  *next_tx = [&, weak_next] {
    auto strong = weak_next.lock();
    const std::size_t from = rng.uniform_int(wallets.size());
    std::size_t to = rng.uniform_int(wallets.size());
    if (to == from) to = (to + 1) % wallets.size();
    chain::FullNode& gateway = *nodes[rng.uniform_int(nodes.size())];
    const auto tx = wallets[from].pay(gateway.utxo(), wallets[to].address(),
                                      config.tx_amount, config.tx_fee,
                                      ++tx_nonce, &rng);
    if (tx && gateway.submit_transaction(*tx)) ++submitted;
    const double gap = rng.exponential(config.tx_rate_per_sec);
    if (strong) sim.post(sim::seconds(gap), [strong] { (*strong)(); });
  };
  if (config.tx_rate_per_sec > 0) {
    sim.post(sim::seconds(1), [next_tx] { (*next_tx)(); });
  }

  sim.run_until(config.common.duration);
  for (auto& m : miners) m->stop();

  // Measure on an observer node that does not mine (last node), falling
  // back to node 0 in tiny configurations.
  chain::FullNode& observer =
      *nodes[config.miners < config.nodes ? config.nodes - 1 : 0];
  PowScenarioResult result;
  result.blocks_on_chain = observer.tree().best_height();
  result.stale_blocks = observer.tree().stale_count();
  result.confirmed_txs = observer.confirmed_tx_count();
  result.submitted_txs = submitted;
  const double secs = sim::to_seconds(config.common.duration);
  result.throughput_tps =
      static_cast<double>(result.confirmed_txs) / std::max(secs, 1.0);
  result.mean_block_interval_s =
      result.blocks_on_chain == 0
          ? 0
          : secs / static_cast<double>(result.blocks_on_chain);
  const double total_blocks = static_cast<double>(result.blocks_on_chain) +
                              static_cast<double>(result.stale_blocks);
  result.stale_rate =
      total_blocks == 0
          ? 0
          : static_cast<double>(result.stale_blocks) / total_blocks;
  double depth_sum = 0;
  for (const auto& n : nodes) {
    depth_sum += static_cast<double>(n->stats().reorg_depth_max);
  }
  result.mean_reorg_depth = depth_sum / static_cast<double>(nodes.size());
  return result;
}

// ---------------------------------------------------------------------------
// Fabric scenario
// ---------------------------------------------------------------------------

FabricScenarioResult run_fabric_scenario(const FabricScenarioConfig& config,
                                         const ScenarioEnv& env) {
  check_valid(config.validate());
  sim::Simulator sim(config.common.seed);
  instrument(sim, env);
  net::Network net(
      sim,
      std::make_unique<net::LogNormalLatency>(config.common.latency, 0.2),
      net::NetworkConfig{.transport = config.common.transport,
                         .expected_nodes = config.orgs * config.peers_per_org +
                                           config.orderer_nodes +
                                           config.clients + 1},
      env.metrics);
  if (env.telemetry != nullptr) net.register_telemetry(*env.telemetry);
  sim::Rng rng = sim.rng().fork(0xFAB);

  fabric::MembershipService msp(config.common.seed);
  const fabric::EndorsementPolicy policy{config.required_endorsements};

  auto kv = std::make_shared<fabric::KvContract>();
  std::vector<std::unique_ptr<fabric::FabricPeer>> peers;
  for (std::size_t o = 0; o < config.orgs; ++o) {
    for (std::size_t p = 0; p < config.peers_per_org; ++p) {
      peers.push_back(std::make_unique<fabric::FabricPeer>(
          net, net.new_node_id(), "org" + std::to_string(o), msp, policy,
          config.common.seed * 31 + o * 97 + p));
      peers.back()->install(kv);
    }
  }
  peers.front()->set_event_source(true);

  std::unique_ptr<fabric::SoloOrderer> solo;
  std::unique_ptr<fabric::RaftOrderer> raft;
  std::unique_ptr<fabric::PbftOrderer> pbft;
  fabric::OrdererConfig ocfg;
  ocfg.block_max_txs = config.block_max_txs;
  ocfg.block_timeout = config.block_timeout;
  fabric::OrderingService* svc = nullptr;
  switch (config.orderer) {
    case OrdererKind::Solo:
      solo = std::make_unique<fabric::SoloOrderer>(net, net.new_node_id(),
                                                   ocfg);
      svc = solo.get();
      break;
    case OrdererKind::Raft:
      raft = std::make_unique<fabric::RaftOrderer>(net, config.orderer_nodes,
                                                   ocfg);
      svc = raft.get();
      break;
    case OrdererKind::Pbft:
      pbft = std::make_unique<fabric::PbftOrderer>(net, config.orderer_nodes,
                                                   ocfg);
      svc = pbft.get();
      break;
  }
  for (const auto& p : peers) svc->register_peer(p->addr());

  std::vector<fabric::FabricPeer*> endorsers;
  for (const auto& p : peers) endorsers.push_back(p.get());

  std::vector<std::unique_ptr<fabric::FabricClient>> clients;
  for (std::size_t c = 0; c < config.clients; ++c) {
    clients.push_back(std::make_unique<fabric::FabricClient>(
        net, net.new_node_id(), policy));
    clients.back()->set_endorsers(endorsers);
    clients.back()->set_orderer(svc);
  }

  sim::Histogram latencies;
  std::uint64_t unique_key = 0;
  auto next_tx = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_next = next_tx;
  *next_tx = [&, weak_next] {
    auto strong = weak_next.lock();
    fabric::FabricClient& client = *clients[rng.uniform_int(clients.size())];
    std::string key;
    if (config.hot_keys > 0) {
      key = "hot" + std::to_string(rng.uniform_int(config.hot_keys));
    } else {
      key = "k" + std::to_string(unique_key++);
    }
    client.invoke("kv", {"put", key, "v"},
                  [&latencies](bool ok, const std::string&,
                               sim::SimDuration latency) {
                    if (ok) latencies.record(sim::to_millis(latency));
                  });
    const double gap = rng.exponential(config.tx_rate_per_sec);
    if (strong) sim.post(sim::seconds(gap), [strong] { (*strong)(); });
  };
  // Let Raft/PBFT settle leadership before offering load.
  sim.post(sim::seconds(2), [next_tx] { (*next_tx)(); });

  sim.run_until(config.common.duration + sim::seconds(2));

  FabricScenarioResult result;
  const auto& stats = peers.front()->stats();
  result.committed = stats.txs_committed;
  result.mvcc_conflicts = stats.mvcc_conflicts;
  for (const auto& c : clients) result.failed += c->failed();
  result.throughput_tps = static_cast<double>(result.committed) /
                          sim::to_seconds(config.common.duration);
  result.latency_p50_ms = latencies.percentile(50);
  result.latency_p99_ms = latencies.percentile(99);
  return result;
}

// ---------------------------------------------------------------------------
// Partitioned cloud commit
// ---------------------------------------------------------------------------

PartitionedScenarioResult run_partitioned_scenario(
    const PartitionedScenarioConfig& config, const ScenarioEnv& env) {
  check_valid(config.validate());
  sim::Simulator sim(config.common.seed);
  instrument(sim, env);
  net::Network net(
      sim, std::make_unique<net::ConstantLatency>(config.common.latency),
      net::NetworkConfig{.transport = config.common.transport,
                         .expected_nodes =
                             config.partitions * config.replicas + 1},
      env.metrics);
  if (env.telemetry != nullptr) net.register_telemetry(*env.telemetry);
  sim::Rng rng = sim.rng().fork(0x9A27);

  struct Partition {
    std::vector<std::unique_ptr<bft::RaftNode>> replicas;
    std::unordered_map<std::uint64_t, sim::SimTime> inflight;
    std::uint64_t committed = 0;
  };
  auto partitions = std::make_unique<std::vector<Partition>>();
  partitions->resize(config.partitions);
  sim::Histogram latencies;

  for (std::size_t p = 0; p < config.partitions; ++p) {
    Partition& part = (*partitions)[p];
    std::vector<net::NodeId> addrs;
    for (std::size_t r = 0; r < config.replicas; ++r) {
      addrs.push_back(net.new_node_id());
    }
    for (std::size_t r = 0; r < config.replicas; ++r) {
      part.replicas.push_back(
          std::make_unique<bft::RaftNode>(net, addrs[r], r, bft::RaftConfig{}));
      part.replicas.back()->set_group(addrs);
    }
    // Every replica reports commits; the first (the leader) wins the race
    // and the inflight-map erase deduplicates the rest.
    for (auto& r : part.replicas) {
      r->set_commit_hook(
          [&latencies, &part, &sim](std::uint64_t, const bft::Command& cmd) {
            const auto it = part.inflight.find(cmd.id);
            if (it == part.inflight.end()) return;
            latencies.record(sim::to_millis(sim.now() - it->second));
            part.inflight.erase(it);
            ++part.committed;
          });
    }
    for (auto& r : part.replicas) r->start();
  }

  std::uint64_t next_id = 1;
  auto next_tx = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_next = next_tx;
  *next_tx = [&, weak_next] {
    auto strong = weak_next.lock();
    Partition& part = (*partitions)[rng.uniform_int(partitions->size())];
    bft::RaftNode* leader = nullptr;
    for (auto& r : part.replicas) {
      if (r->is_leader()) {
        leader = r.get();
        break;
      }
    }
    if (leader != nullptr) {
      bft::Command cmd;
      cmd.id = next_id++;
      cmd.wire_bytes = 128;
      part.inflight.emplace(cmd.id, sim.now());
      leader->propose(std::move(cmd));
    }
    const double gap = rng.exponential(config.tx_rate_per_sec);
    if (strong) sim.post(sim::seconds(gap), [strong] { (*strong)(); });
  };
  sim.post(sim::seconds(1), [next_tx] { (*next_tx)(); });

  sim.run_until(config.common.duration + sim::seconds(1));

  PartitionedScenarioResult result;
  for (const auto& part : *partitions) result.committed += part.committed;
  result.throughput_tps = static_cast<double>(result.committed) /
                          sim::to_seconds(config.common.duration);
  result.latency_p50_ms = latencies.percentile(50);
  result.latency_p99_ms = latencies.percentile(99);
  return result;
}

// ---------------------------------------------------------------------------
// Edge federation (extracted from the E13 bench so the scenario is reusable
// and harness-aware like the others)
// ---------------------------------------------------------------------------

EdgeScenarioResult run_edge_scenario(const EdgeScenarioConfig& config,
                                     const ScenarioEnv& env) {
  check_valid(config.validate());
  sim::Simulator sim(config.common.seed);
  instrument(sim, env);
  auto geo_model =
      std::make_unique<net::GeoLatency>(config.geo_jitter_sigma);
  net::GeoLatency* geo = geo_model.get();
  net::NetworkConfig net_cfg;
  net_cfg.transport = config.common.transport;
  // Federation nodes + users, plus the usage ledger's peer/orderer/client.
  net_cfg.expected_nodes =
      1 +
      config.topology.regions * (config.topology.nano_dcs_per_region +
                                 config.topology.users_per_region) +
      3;
  net::Network net(sim, std::move(geo_model), net_cfg, env.metrics);
  if (env.telemetry != nullptr) net.register_telemetry(*env.telemetry);
  edge::Federation fed(net, *geo, config.topology, {});

  // Permissioned trust substrate on the same network: usage records are
  // metered through the energy-trading style contract.
  fabric::MembershipService msp(5);
  fabric::EndorsementPolicy fpolicy{1};
  fabric::FabricPeer peer(net, net.new_node_id(), "federation-registry", msp,
                          fpolicy, 999);
  auto kv = std::make_shared<fabric::KvContract>();
  peer.install(kv);
  peer.set_event_source(true);
  fabric::SoloOrderer orderer(net, net.new_node_id(),
                              fabric::OrdererConfig{});
  orderer.register_peer(peer.addr());
  fabric::FabricClient registry(net, net.new_node_id(), fpolicy);
  registry.set_endorsers({&peer});
  registry.set_orderer(&orderer);

  std::uint64_t usage_records = 0;
  std::uint64_t usage_seq = 0;
  fed.set_usage_recorder([&](const std::string& provider,
                             const std::string& consumer) {
    ++usage_records;
    registry.invoke("kv",
                    {"put",
                     "usage/" + provider + "/" + consumer + "/" +
                         std::to_string(usage_seq++),
                     "1"},
                    [](bool, const std::string&, sim::SimDuration) {});
  });

  sim::Histogram lat;
  std::size_t ok = 0, in_region = 0, in_domain = 0, total = 0;
  sim::Rng rng(config.common.seed ^ 13);
  const edge::PlacementPolicy policy = config.policy;
  for (std::size_t i = 0; i < config.requests; ++i) {
    sim.schedule(config.request_interval * static_cast<sim::SimDuration>(i),
                 [&, policy] {
                   fed.issue_request(
                       policy, rng,
                       [&](bool success, sim::SimDuration latency,
                           bool region, bool domain) {
                         ++total;
                         if (success) {
                           ++ok;
                           lat.record(sim::to_millis(latency));
                         }
                         if (region) ++in_region;
                         if (domain) ++in_domain;
                       });
                 });
  }
  sim.run_until(config.common.duration);

  EdgeScenarioResult result;
  result.ok = ok;
  result.total = total;
  result.latency_p50_ms = lat.percentile(50);
  result.latency_p99_ms = lat.percentile(99);
  if (total > 0) {
    result.in_region_pct =
        100.0 * static_cast<double>(in_region) / static_cast<double>(total);
    result.in_domain_pct =
        100.0 * static_cast<double>(in_domain) / static_cast<double>(total);
  }
  result.usage_records = usage_records;
  return result;
}

}  // namespace decentnet::core
