#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "bft/raft.hpp"
#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "chain/wallet.hpp"
#include "crypto/buffer.hpp"
#include "crypto/hash.hpp"
#include "net/churn.hpp"
#include "net/faults.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "overlay/gossip.hpp"
#include "overlay/kademlia.hpp"
#include "sim/metrics.hpp"
#include "sim/sharding.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace chain = decentnet::chain;
namespace core = decentnet::core;
namespace crypto = decentnet::crypto;
namespace net = decentnet::net;
namespace overlay = decentnet::overlay;
namespace sim = decentnet::sim;
namespace bft = decentnet::bft;

namespace {

// Horizons. Sized so one run of each workload takes a few seconds of wall
// time on a 4-core machine while still exercising its mechanism (pow_mesh:
// about twenty blocks with a backlogged mempool and, most seeds, a reorg;
// raft_commit: a fault window with re-elections; overlay_churn: a thousand
// lookups and two full dissemination trees over 100k churning hosts).
constexpr int kPowMeshMinutes = 10;
constexpr int kRaftSeconds = 30;
constexpr std::size_t kRaftIsolatedGroups = 12;
constexpr std::size_t kOverlayNodes = 100'000;
constexpr std::size_t kOverlayShards = 4;
constexpr std::size_t kOverlayThreads = 2;
constexpr std::size_t kLookups = 1000;
constexpr std::size_t kRumors = 2;

class Stopwatch {
 public:
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
};

std::uint64_t counter(const sim::MetricRegistry& reg, std::string_view name) {
  const auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0 : it->second.value();
}

/// Sum of every per-shard kernel counter "sim/shard/<s>/<stat>".
std::uint64_t shard_counter_sum(const sim::MetricRegistry& reg,
                                std::string_view stat) {
  std::uint64_t sum = 0;
  for (const auto& [name, c] : reg.counters()) {
    if (name.starts_with("sim/shard/") && name.ends_with(stat)) {
      sum += c.value();
    }
  }
  return sum;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Sim-time maxima a traced run samples through sim::Telemetry, which never
/// schedules kernel events and so cannot perturb the run.
struct Maxima {
  double queue_depth = 0;
  double backlog_bytes = 0;
  double busy_uplinks = 0;
  double mempool = 0;

  void sample(const net::Network& netw, sim::SimTime t) {
    if (!netw.transport().active()) return;
    const net::Transport::Sample s = netw.transport().sample(t);
    backlog_bytes = std::max(backlog_bytes, s.queued_bytes);
    busy_uplinks = std::max(busy_uplinks, static_cast<double>(s.busy_uplinks));
  }
};

/// The telemetry a traced run writes its series to.
struct TelemetryProbe {
  explicit TelemetryProbe(const std::string& path)
      : sink(path), series(sink) {}
  sim::SeriesSink sink;
  sim::Telemetry series;
};

/// Network-level totals shared by every workload's per-layer report.
struct NetTotals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;

  void add(const net::Network& netw, std::uint64_t kernel_events) {
    messages += netw.messages_sent();
    bytes += netw.bytes_sent();
    events += kernel_events;
  }
};

/// Run `body` (the run_until calls) with the tracer active; returns its wall
/// time.
template <typename Body>
double timed_run(Tracer* tracer, Body&& body) {
  const Stopwatch sw;
  if (tracer != nullptr) tracer->activate();
  body();
  if (tracer != nullptr) tracer->deactivate();
  return sw.seconds();
}

/// Per-layer values every workload reports: network, kernel and (traced)
/// span self times.
void add_common_layers(Report& rep, const Tracer* tracer,
                       const sim::MetricRegistry& reg, const NetTotals& totals,
                       const Maxima& maxima) {
  const double ops = static_cast<double>(rep.ops);
  const std::uint64_t dropped_partition =
      counter(reg, "net/dropped_partition");
  const std::uint64_t queue_dropped = counter(reg, "net/queue_dropped");
  const std::uint64_t dropped =
      dropped_partition + queue_dropped +
      counter(reg, "net/dropped_unreachable") +
      counter(reg, "net/dropped_loss") + counter(reg, "net/dropped_offline");
  auto& l = rep.layer;
  l.emplace_back("ops", ops);
  l.emplace_back("ops_failed", static_cast<double>(rep.ops_failed));
  l.emplace_back("net.messages", static_cast<double>(totals.messages));
  l.emplace_back("net.bytes", static_cast<double>(totals.bytes));
  l.emplace_back("net.msgs_per_op",
                 ratio(static_cast<double>(totals.messages), ops));
  l.emplace_back("net.bytes_per_op",
                 ratio(static_cast<double>(totals.bytes), ops));
  l.emplace_back("net.dropped", static_cast<double>(dropped));
  l.emplace_back("net.dropped_partition",
                 static_cast<double>(dropped_partition));
  l.emplace_back("net.transport.queue_dropped",
                 static_cast<double>(queue_dropped));
  l.emplace_back("net.transport.backlog_bytes_max", maxima.backlog_bytes);
  l.emplace_back("net.transport.busy_uplinks_max", maxima.busy_uplinks);
  l.emplace_back("sim.events", static_cast<double>(totals.events));
  l.emplace_back("sim.queue_depth_max", maxima.queue_depth);
  l.emplace_back("sim.shard.windows", static_cast<double>(totals.windows));
  l.emplace_back("sim.shard.stalls",
                 static_cast<double>(shard_counter_sum(reg, "/stalls")));
  l.emplace_back("sim.shard.mail",
                 static_cast<double>(shard_counter_sum(reg, "/mail_in")));
  if (tracer == nullptr) return;

  const CryptoCounts cc = tracer->crypto_total();
  l.emplace_back("crypto.sha256_calls", static_cast<double>(cc.sha256_calls));
  l.emplace_back("crypto.sha256_bytes", static_cast<double>(cc.sha256_bytes));
  l.emplace_back("crypto.hmac_calls", static_cast<double>(cc.hmac_calls));
  l.emplace_back("crypto.verify_calls", static_cast<double>(cc.verify_calls));
  l.emplace_back("crypto.calls_per_tx",
                 ratio(static_cast<double>(cc.sha256_calls + cc.hmac_calls),
                       ops));

  std::array<SpanStats, kSpanKinds> spans;
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    spans[k] = tracer->total(static_cast<SpanKind>(k));
  }
  using K = SpanKind;
  auto self_s = [&](std::initializer_list<SpanKind> kinds) {
    double s = 0;
    for (const SpanKind k : kinds) {
      s += static_cast<double>(spans[static_cast<std::size_t>(k)].self_ns) *
           1e-9;
    }
    return s;
  };
  auto p = [&](std::initializer_list<SpanKind> kinds, double pct) {
    sim::Histogram h;
    for (const SpanKind k : kinds) {
      h.merge(spans[static_cast<std::size_t>(k)].duration_us);
    }
    return h.percentile(pct);
  };
  const double crypto_s = self_s({K::kCrypto});
  const double chain_tx_s = self_s({K::kChainTx});
  const double chain_block_s = self_s({K::kChainBlock});
  const double chain_gen_s = self_s({K::kChainPay, K::kChainSubmit});
  const double bft_s = self_s({K::kBftHandle});
  const double bft_propose_s = self_s({K::kBftPropose});
  const double kad_s = self_s({K::kKadHandle});
  const double gossip_s = self_s({K::kGossipHandle});
  const double overlay_gen_s = self_s({K::kKadLookup, K::kGossipBroadcast});
  const double dispatch_s = rep.run_s - crypto_s - chain_tx_s - chain_block_s -
                            chain_gen_s - bft_s - bft_propose_s - kad_s -
                            gossip_s - overlay_gen_s;
  std::uint64_t handler_calls = 0;
  for (const SpanKind k : {K::kChainTx, K::kChainBlock, K::kBftHandle,
                           K::kKadHandle, K::kGossipHandle}) {
    handler_calls += spans[static_cast<std::size_t>(k)].calls;
  }
  l.emplace_back("net.handler_calls", static_cast<double>(handler_calls));
  l.emplace_back("crypto.self_s", crypto_s);
  l.emplace_back("chain.tx_handle_s", chain_tx_s);
  l.emplace_back("chain.block_handle_s", chain_block_s);
  l.emplace_back("chain.generate_s", chain_gen_s);
  l.emplace_back("chain.handle_us.p50", p({K::kChainTx, K::kChainBlock}, 50));
  l.emplace_back("chain.handle_us.p99", p({K::kChainTx, K::kChainBlock}, 99));
  l.emplace_back("chain.submit_tx_us.p50", p({K::kChainSubmit}, 50));
  l.emplace_back("chain.submit_tx_us.p99", p({K::kChainSubmit}, 99));
  l.emplace_back("chain.wallet_pay_us.p50", p({K::kChainPay}, 50));
  l.emplace_back("chain.wallet_pay_us.p99", p({K::kChainPay}, 99));
  l.emplace_back("bft.handle_s", bft_s);
  l.emplace_back("bft.propose_s", bft_propose_s);
  l.emplace_back("bft.handle_us.p50", p({K::kBftHandle}, 50));
  l.emplace_back("bft.handle_us.p99", p({K::kBftHandle}, 99));
  l.emplace_back("bft.propose_us.p50", p({K::kBftPropose}, 50));
  l.emplace_back("bft.propose_us.p99", p({K::kBftPropose}, 99));
  l.emplace_back("overlay.kad.handle_s", kad_s);
  l.emplace_back("overlay.gossip.handle_s", gossip_s);
  l.emplace_back("overlay.generate_s", overlay_gen_s);
  l.emplace_back("sim.dispatch_self_s", dispatch_s);
  l.emplace_back("sim.dispatch_ns_per_event",
                 ratio(dispatch_s * 1e9, static_cast<double>(totals.events)));
  l.emplace_back("trace.run_s", rep.run_s);
}

SpanKind classify_chain(const net::Message& msg) {
  return msg.is<chain::chain_msg::TxMsg>() ? SpanKind::kChainTx
                                           : SpanKind::kChainBlock;
}
SpanKind classify_bft(const net::Message&) { return SpanKind::kBftHandle; }
SpanKind classify_kad(const net::Message&) { return SpanKind::kKadHandle; }
SpanKind classify_gossip(const net::Message&) {
  return SpanKind::kGossipHandle;
}

// ---------------------------------------------------------------------------
// pow_mesh: run_pow_scenario's assembly, step for step, plus the counters
// and spans. Any change to the order of construction or RNG draws would
// break the composition cross-check (compose_check.cpp).
// ---------------------------------------------------------------------------

Report run_pow_mesh(const RunOptions& opt) {
  const core::PowScenarioConfig config = pow_mesh_config(opt.seed);
  if (auto err = config.validate()) throw std::invalid_argument(*err);
  Report rep;
  const Stopwatch setup;

  sim::Simulator sim(opt.seed);
  sim::MetricRegistry registry;
  net::NetworkConfig net_cfg;
  net_cfg.transport = config.common.transport;
  net_cfg.expected_nodes = config.nodes;
  net_cfg.track_spans = config.common.track_spans;
  net::Network net(sim,
                   std::make_unique<net::LogNormalLatency>(
                       config.common.latency, 0.4),
                   net_cfg, &registry);
  sim::Rng rng = sim.rng().fork(0x9C0E);

  std::vector<chain::Wallet> wallets;
  std::vector<std::pair<crypto::PublicKey, chain::Amount>> premine;
  constexpr std::size_t kOutputsPerWallet = 100;
  for (std::size_t i = 0; i < config.wallets; ++i) {
    wallets.push_back(chain::Wallet::from_seed(opt.seed * 1000003 + i));
    for (std::size_t k = 0; k < kOutputsPerWallet; ++k) {
      premine.emplace_back(wallets.back().address(),
                           chain::Amount{1'000'000});
    }
  }
  const chain::BlockPtr genesis =
      chain::make_genesis_multi(premine, config.params.initial_difficulty);

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

  std::vector<std::unique_ptr<chain::Miner>> miners;
  const double per_miner =
      config.total_hashrate /
      static_cast<double>(std::max<std::size_t>(config.miners, 1));
  for (std::size_t i = 0; i < config.miners && i < nodes.size(); ++i) {
    const chain::Wallet payout =
        chain::Wallet::from_seed(opt.seed * 2000003 + i);
    miners.push_back(std::make_unique<chain::Miner>(*nodes[i],
                                                    payout.address(),
                                                    per_miner));
    miners.back()->start();
  }

  std::uint64_t submitted = 0;
  std::uint64_t tx_nonce = 0;
  auto next_tx = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_next = next_tx;
  *next_tx = [&, weak_next] {
    auto strong = weak_next.lock();
    ++rep.ops;
    const std::size_t from = rng.uniform_int(wallets.size());
    std::size_t to = rng.uniform_int(wallets.size());
    if (to == from) to = (to + 1) % wallets.size();
    chain::FullNode& gateway = *nodes[rng.uniform_int(nodes.size())];
    std::optional<chain::Transaction> tx;
    {
      const SpanScope span(SpanKind::kChainPay);
      tx = wallets[from].pay(gateway.utxo(), wallets[to].address(),
                             config.tx_amount, config.tx_fee, ++tx_nonce,
                             &rng);
    }
    if (tx) {
      const SpanScope span(SpanKind::kChainSubmit);
      if (gateway.submit_transaction(*tx)) ++submitted;
    }
    const double gap = rng.exponential(config.tx_rate_per_sec);
    if (strong) sim.post(sim::seconds(gap), [strong] { (*strong)(); });
  };
  if (config.tx_rate_per_sec > 0) {
    sim.post(sim::seconds(1), [next_tx] { (*next_tx)(); });
  }

  std::vector<std::unique_ptr<HostProxy>> proxies;
  std::optional<TelemetryProbe> tel;
  Maxima maxima;
  if (opt.tracer != nullptr) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      proxies.push_back(std::make_unique<HostProxy>(*nodes[i], classify_chain));
      net.attach(addrs[i], proxies.back().get());
    }
    tel.emplace(opt.series_path);
    tel->series.attach(sim);
    net.register_telemetry(tel->series);
    tel->series.add_gauge("perfbench/mempool_max", 0, [&](sim::SimTime t) {
      maxima.queue_depth = std::max(maxima.queue_depth,
                                    static_cast<double>(sim.pending_events()));
      maxima.sample(net, t);
      for (const auto& n : nodes) {
        maxima.mempool = std::max(maxima.mempool,
                                  static_cast<double>(n->mempool().size()));
      }
      return maxima.mempool;
    });
  }
  rep.setup_s = setup.seconds();

  rep.run_s = timed_run(opt.tracer,
                        [&] { sim.run_until(config.common.duration); });
  for (auto& m : miners) m->stop();

  chain::FullNode& observer =
      *nodes[config.miners < config.nodes ? config.nodes - 1 : 0];
  core::PowScenarioResult result;
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
  rep.pow = result;

  rep.ops_failed = rep.ops - std::min(rep.ops, result.confirmed_txs);
  if (result.confirmed_txs > rep.ops || submitted > rep.ops) {
    rep.violations.push_back("pow_mesh: more txs confirmed or submitted (" +
                             std::to_string(result.confirmed_txs) + ", " +
                             std::to_string(submitted) + ") than offered (" +
                             std::to_string(rep.ops) + ")");
  }
  if (result.blocks_on_chain == 0) {
    rep.violations.push_back("pow_mesh: the observer's chain never grew");
  }
  // Every node's active chain must agree with the observer's below the last
  // six blocks (a deeper split would be a fork-choice or relay bug).
  const std::vector<chain::BlockPtr> ref = observer.tree().active_chain();
  crypto::ByteWriter digest;
  for (const auto& n : nodes) {
    const std::vector<chain::BlockPtr> mine = n->tree().active_chain();
    std::size_t common = 0;
    while (common < mine.size() && common < ref.size() &&
           mine[common]->id() == ref[common]->id()) {
      ++common;
    }
    if (common + 6 < std::min(mine.size(), ref.size())) {
      rep.violations.push_back("pow_mesh: node " +
                               std::to_string(n->addr().value) +
                               " diverges from the observer " +
                               std::to_string(ref.size() - common) +
                               " blocks deep");
    }
    const chain::FullNodeStats& st = n->stats();
    digest.hash(n->tree().best_tip())
        .u64(n->tree().best_height())
        .u64(n->tree().stale_count())
        .u64(n->confirmed_tx_count())
        .u64(n->mempool().size())
        .u64(st.blocks_accepted)
        .u64(st.blocks_rejected)
        .u64(st.txs_accepted)
        .u64(st.txs_rejected)
        .u64(st.reorgs)
        .u64(st.reorg_depth_max);
  }
  digest.u64(rep.ops).u64(submitted).u64(result.stale_blocks);
  rep.digest = digest.sha256().prefix64();

  NetTotals totals;
  totals.add(net, sim.total_events_processed());
  add_common_layers(rep, opt.tracer, registry, totals, maxima);
  const double accepted = static_cast<double>(counter(registry,
                                                      "chain/txs_accepted"));
  const double rejected = static_cast<double>(counter(registry,
                                                      "chain/txs_rejected"));
  auto& l = rep.layer;
  l.emplace_back("chain.txs_accepted", accepted);
  l.emplace_back("chain.txs_rejected", rejected);
  l.emplace_back("chain.tx_accept_ratio", ratio(accepted, accepted + rejected));
  l.emplace_back("chain.confirm_ratio",
                 ratio(static_cast<double>(result.confirmed_txs),
                       static_cast<double>(rep.ops)));
  l.emplace_back("chain.stale_rate", result.stale_rate);
  l.emplace_back("chain.reorgs",
                 static_cast<double>(counter(registry, "chain/reorgs")));
  l.emplace_back("chain.mempool_max", maxima.mempool);
  return rep;
}

// ---------------------------------------------------------------------------
// raft_commit: run_partitioned_scenario's assembly plus a FaultPlan that
// isolates the leaders of kRaftIsolatedGroups groups for the middle fifth of
// the run. Proposals keep arriving on schedule during the window; a proposal
// that finds no leader, or never commits, is a failed op.
// ---------------------------------------------------------------------------

Report run_raft_commit(const RunOptions& opt) {
  const core::PartitionedScenarioConfig config = raft_commit_config(opt.seed);
  if (auto err = config.validate()) throw std::invalid_argument(*err);
  Report rep;
  const Stopwatch setup;

  sim::Simulator sim(opt.seed);
  sim::MetricRegistry registry;
  net::Network net(
      sim, std::make_unique<net::ConstantLatency>(config.common.latency),
      net::NetworkConfig{.transport = config.common.transport,
                         .expected_nodes =
                             config.partitions * config.replicas + 1},
      &registry);
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
  std::uint64_t no_leader = 0;
  auto next_tx = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_next = next_tx;
  *next_tx = [&, weak_next] {
    auto strong = weak_next.lock();
    ++rep.ops;
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
      const SpanScope span(SpanKind::kBftPropose);
      leader->propose(std::move(cmd));
    } else {
      ++no_leader;
    }
    const double gap = rng.exponential(config.tx_rate_per_sec);
    if (strong) sim.post(sim::seconds(gap), [strong] { (*strong)(); });
  };
  sim.post(sim::seconds(1), [next_tx] { (*next_tx)(); });

  std::vector<std::unique_ptr<HostProxy>> proxies;
  std::optional<TelemetryProbe> tel;
  Maxima maxima;
  if (opt.tracer != nullptr) {
    for (auto& part : *partitions) {
      for (auto& r : part.replicas) {
        proxies.push_back(std::make_unique<HostProxy>(*r, classify_bft));
        net.attach(r->addr(), proxies.back().get());
      }
    }
    tel.emplace(opt.series_path);
    tel->series.attach(sim);
    net.register_telemetry(tel->series);
    tel->series.add_gauge("perfbench/queue_depth", 0, [&](sim::SimTime t) {
      maxima.queue_depth = std::max(maxima.queue_depth,
                                    static_cast<double>(sim.pending_events()));
      maxima.sample(net, t);
      return maxima.queue_depth;
    });
  }
  rep.setup_s = setup.seconds();

  // The window starts once leaders have long settled; it isolates whichever
  // replica leads each of the first kRaftIsolatedGroups groups at that time.
  const sim::SimTime end = config.common.duration + sim::seconds(1);
  const sim::SimTime window_start = sim::seconds(1) + config.common.duration * 2 / 5;
  const sim::SimTime window_end = window_start + config.common.duration / 5;
  std::optional<net::FaultScheduler> faults;
  rep.run_s = timed_run(opt.tracer, [&] { sim.run_until(window_start); });
  if (opt.fault_window) {
    std::vector<std::unordered_set<std::uint64_t>> isolated;
    for (std::size_t p = 0; p < kRaftIsolatedGroups && p < partitions->size();
         ++p) {
      for (auto& r : (*partitions)[p].replicas) {
        if (r->is_leader()) isolated.push_back({r->addr().value});
      }
    }
    if (!isolated.empty()) {
      net::FaultPlan plan;
      plan.partition(window_start, "isolate-leaders", std::move(isolated),
                     window_end);
      faults.emplace(net, std::move(plan));
      faults->start();
    }
  }
  rep.run_s += timed_run(opt.tracer, [&] { sim.run_until(end); });

  core::PartitionedScenarioResult result;
  for (const auto& part : *partitions) result.committed += part.committed;
  result.throughput_tps = static_cast<double>(result.committed) /
                          sim::to_seconds(config.common.duration);
  result.latency_p50_ms = latencies.percentile(50);
  result.latency_p99_ms = latencies.percentile(99);
  rep.partitioned = result;
  rep.ops_failed = rep.ops - std::min(rep.ops, result.committed);

  if (result.committed > rep.ops) {
    rep.violations.push_back("raft_commit: more commits than proposals due");
  }
  crypto::ByteWriter digest;
  for (std::size_t p = 0; p < partitions->size(); ++p) {
    const Partition& part = (*partitions)[p];
    std::size_t leaders = 0;
    for (const auto& r : part.replicas) {
      if (r->is_leader()) ++leaders;
      if (r->commit_index() > r->log_size()) {
        rep.violations.push_back("raft_commit: group " + std::to_string(p) +
                                 " commits past its log");
      }
      digest.u64(r->term()).u64(r->commit_index()).u64(r->log_size());
    }
    if (leaders != 1) {
      rep.violations.push_back("raft_commit: group " + std::to_string(p) +
                               " ends with " + std::to_string(leaders) +
                               " leaders");
    }
    digest.u64(part.committed).u64(part.inflight.size());
  }
  digest.u64(rep.ops)
      .u64(no_leader)
      .u64(latencies.count())
      .u64(std::bit_cast<std::uint64_t>(latencies.sum()))
      .u64(std::bit_cast<std::uint64_t>(result.latency_p50_ms))
      .u64(std::bit_cast<std::uint64_t>(result.latency_p99_ms));
  rep.digest = digest.sha256().prefix64();

  NetTotals totals;
  totals.add(net, sim.total_events_processed());
  add_common_layers(rep, opt.tracer, registry, totals, maxima);
  auto& l = rep.layer;
  l.emplace_back("bft.msgs_per_commit",
                 ratio(static_cast<double>(totals.messages),
                       static_cast<double>(result.committed)));
  l.emplace_back("bft.elections", static_cast<double>(counter(
                                      registry, "bft/raft_elections")));
  l.emplace_back("bft.commit_ratio",
                 ratio(static_cast<double>(result.committed),
                       static_cast<double>(rep.ops)));
  return rep;
}

// ---------------------------------------------------------------------------
// overlay_churn: the E20 sharded Kademlia and gossip points at N=100k.
// ---------------------------------------------------------------------------

net::ChurnConfig scale_churn() {
  net::ChurnConfig churn;
  churn.session = net::DurationDist::weibull(120, 0.6);
  churn.downtime = net::DurationDist::exponential_mean(60);
  churn.initially_online = 1.0;
  return churn;
}

net::NetworkConfig overlay_net_config() {
  net::NetworkConfig cfg;
  cfg.expected_nodes = kOverlayNodes;
  return cfg;
}

/// Kernel + sharded network + registered population, as in E20. The 20 ms
/// latency floor is the kernel's lookahead window.
struct ShardedWorld {
  sim::ShardedKernel kernel;
  net::Network netw;
  std::vector<net::NodeId> addrs;

  ShardedWorld(std::uint64_t seed, sim::MetricRegistry& registry)
      : kernel(seed, kOverlayShards),
        netw(kernel.shard(0),
             std::make_unique<net::LogNormalLatency>(sim::millis(80), 0.4,
                                                     sim::millis(20)),
             overlay_net_config(), &registry),
        addrs(kOverlayNodes) {
    netw.enable_sharding(kernel);
    for (auto& a : addrs) a = netw.new_node_id();
    for (const auto& a : addrs) netw.register_node(a);
  }

  std::size_t shard_of(std::size_t i) const {
    return kernel.shard_of(addrs[i].value);
  }

  /// Traced runs: telemetry sampled at barriers while the workers wait.
  void instrument(TelemetryProbe& tel, Maxima& maxima) {
    kernel.set_telemetry(&tel.series);
    netw.register_telemetry(tel.series);
    tel.series.add_gauge("perfbench/queue_depth", 0, [this, &maxima](
                                                         sim::SimTime t) {
      double depth = 0;
      for (std::size_t s = 0; s < kernel.shard_count(); ++s) {
        depth += static_cast<double>(kernel.shard(s).pending_events());
      }
      maxima.queue_depth = std::max(maxima.queue_depth, depth);
      maxima.sample(netw, t);
      return depth;
    });
  }
};

struct OverlayTally {
  double setup_s = 0;
  double run_s = 0;
  double warmup_s = 0;
  std::uint64_t lookups_ok = 0;
  std::uint64_t lookups_completed = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  NetTotals totals;
  Maxima maxima;
  crypto::ByteWriter digest;
};

void kademlia_phase(const RunOptions& opt, std::size_t threads,
                    sim::MetricRegistry& registry, Report& rep,
                    OverlayTally& tally) {
  const Stopwatch setup;
  const std::size_t n = kOverlayNodes;
  ShardedWorld world(opt.seed, registry);
  net::Network& netw = world.netw;
  const std::vector<net::NodeId>& addrs = world.addrs;

  overlay::KademliaConfig kcfg;
  kcfg.refresh_interval = sim::hours(6);

  // Declared before the nodes: ~KademliaNode fails pending lookups, and
  // those callbacks write here.
  std::vector<std::vector<overlay::LookupResult>> results(kOverlayShards);
  std::vector<std::uint64_t> skipped(kOverlayShards, 0);

  std::vector<std::unique_ptr<overlay::KademliaNode>> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::KademliaNode>(netw, addrs[i], kcfg));
  }

  const Stopwatch warmup;
  std::vector<std::size_t> by_id(n);
  for (std::size_t i = 0; i < n; ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return nodes[a]->id() < nodes[b]->id();
  });
  sim::Rng rng(opt.seed ^ 0xE20);
  constexpr std::size_t kNeighbors = 8;
  constexpr std::size_t kRandom = 16;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t i = by_id[pos];
    nodes[i]->join({});
    for (std::size_t d = 1; d <= kNeighbors; ++d) {
      const std::size_t lo = by_id[(pos + n - d) % n];
      const std::size_t hi = by_id[(pos + d) % n];
      nodes[i]->observe({nodes[lo]->id(), addrs[lo]});
      nodes[i]->observe({nodes[hi]->id(), addrs[hi]});
    }
    for (std::size_t r = 0; r < kRandom; ++r) {
      const std::size_t j = rng.uniform_int(n);
      if (j != i) nodes[i]->observe({nodes[j]->id(), addrs[j]});
    }
  }
  tally.warmup_s += warmup.seconds();

  std::vector<std::unique_ptr<HostProxy>> proxies;
  if (opt.tracer != nullptr) {
    proxies.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      proxies.push_back(std::make_unique<HostProxy>(*nodes[i], classify_kad));
      netw.attach(addrs[i], proxies.back().get());
    }
  }

  // Rejoining peers bootstrap through a contact they still know; the proxy
  // goes back in front of the node after every join.
  net::ChurnDriver churn(
      world.kernel.shard(0), n, scale_churn(),
      [&](std::size_t i) {
        if (nodes[i]->online()) return;
        nodes[i]->join(nodes[i]->routing_table().empty()
                           ? std::vector<overlay::Contact>{}
                           : std::vector<overlay::Contact>{
                                 nodes[i]->routing_table().front()});
        if (!proxies.empty()) netw.attach(addrs[i], proxies[i].get());
      },
      [&](std::size_t i) {
        if (nodes[i]->online()) nodes[i]->leave();
      });
  churn.set_shard_router([&](std::size_t i) -> sim::Simulator& {
    return netw.simulator_for(addrs[i]);
  });
  churn.start();

  // Initiators are pre-drawn so the draw order never depends on shards.
  for (std::size_t q = 0; q < kLookups; ++q) {
    const std::size_t who = rng.uniform_int(n);
    const std::size_t sh = world.shard_of(who);
    const auto at = sim::seconds(5) + sim::millis(15) * q;
    netw.simulator_for(addrs[who]).post(at, [&, q, who, sh] {
      if (!nodes[who]->online()) {
        ++skipped[sh];
        return;
      }
      const overlay::Key target =
          crypto::sha256("e20-target-" + std::to_string(q));
      const SpanScope span(SpanKind::kKadLookup);
      nodes[who]->lookup(target, [&results, sh](overlay::LookupResult r) {
        results[sh].push_back(std::move(r));
      });
    });
  }
  rep.ops += kLookups;

  std::optional<TelemetryProbe> tel;
  if (opt.tracer != nullptr) {
    tel.emplace(opt.series_path);
    world.instrument(*tel, tally.maxima);
  }
  tally.setup_s += setup.seconds();

  const auto horizon =
      sim::seconds(10) + sim::millis(15) * kLookups + sim::seconds(5);
  tally.run_s += timed_run(opt.tracer,
                           [&] { world.kernel.run_until(horizon, threads); });
  churn.stop();
  world.kernel.merge_metrics_into(registry);

  std::uint64_t skipped_total = 0;
  for (std::size_t sh = 0; sh < kOverlayShards; ++sh) {
    skipped_total += skipped[sh];
    for (const auto& r : results[sh]) {
      ++tally.lookups_completed;
      tally.rpcs += r.rpcs_sent;
      tally.rpc_timeouts += r.timeouts;
      if (!r.closest.empty()) ++tally.lookups_ok;
      tally.digest.u64(r.hops).u64(r.rpcs_sent).u64(r.timeouts).u64(
          static_cast<std::uint64_t>(r.elapsed));
      for (const auto& c : r.closest) tally.digest.u64(c.addr.value);
    }
  }
  tally.digest.u64(skipped_total).u64(churn.online_count());
  if (tally.lookups_completed + skipped_total > kLookups) {
    rep.violations.push_back("overlay_churn: more lookups finished than due");
  }
  tally.totals.add(netw, world.kernel.total_events_processed());
  tally.totals.windows += world.kernel.windows_run();
}

void gossip_phase(const RunOptions& opt, std::size_t threads,
                  sim::MetricRegistry& registry, Report& rep,
                  OverlayTally& tally) {
  const Stopwatch setup;
  const std::size_t n = kOverlayNodes;
  ShardedWorld world(opt.seed, registry);
  net::Network& netw = world.netw;
  const std::vector<net::NodeId>& addrs = world.addrs;

  overlay::GossipConfig gcfg;
  gcfg.view_size = 16;
  gcfg.shuffle_size = 8;
  gcfg.shuffle_interval = sim::seconds(30);
  gcfg.fanout = 6;
  gcfg.message_bytes = 256;

  // First-delivery times bucketed by the receiver's shard (single writer
  // each); declared before the nodes so the hooks never outlive them.
  std::vector<std::vector<std::vector<sim::SimTime>>> deliv(
      kOverlayShards, std::vector<std::vector<sim::SimTime>>(kRumors));
  std::vector<std::unique_ptr<overlay::GossipNode>> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::GossipNode>(netw, addrs[i], gcfg));
    const std::size_t sh = world.shard_of(i);
    sim::Simulator* nsim = &netw.simulator_for(addrs[i]);
    nodes.back()->set_deliver_hook(
        [&deliv, sh, nsim](overlay::RumorId rumor, std::size_t) {
          deliv[sh][rumor].push_back(nsim->now());
        });
  }

  const Stopwatch warmup;
  sim::Rng rng(opt.seed ^ 0xE20);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<net::NodeId> view;
    view.reserve(gcfg.view_size);
    for (std::size_t d = 1; d <= gcfg.view_size / 2; ++d) {
      view.push_back(addrs[(i + d) % n]);
    }
    while (view.size() < gcfg.view_size) {
      const std::size_t j = rng.uniform_int(n);
      if (j != i) view.push_back(addrs[j]);
    }
    nodes[i]->join(view);
  }
  tally.warmup_s += warmup.seconds();

  std::vector<std::unique_ptr<HostProxy>> proxies;
  if (opt.tracer != nullptr) {
    proxies.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      proxies.push_back(
          std::make_unique<HostProxy>(*nodes[i], classify_gossip));
      netw.attach(addrs[i], proxies.back().get());
    }
  }

  // Node 0 originates every rumor, so it stays out of the churn population.
  net::ChurnDriver churn(
      world.kernel.shard(0), n - 1, scale_churn(),
      [&](std::size_t i) {
        if (nodes[i + 1]->online()) return;
        std::vector<net::NodeId> view;
        for (std::size_t d = 1; d <= gcfg.view_size / 2; ++d) {
          view.push_back(addrs[(i + 1 + d) % n]);
        }
        nodes[i + 1]->join(view);
        if (!proxies.empty()) netw.attach(addrs[i + 1], proxies[i + 1].get());
      },
      [&](std::size_t i) {
        if (nodes[i + 1]->online()) nodes[i + 1]->leave();
      });
  churn.set_shard_router([&](std::size_t i) -> sim::Simulator& {
    return netw.simulator_for(addrs[i + 1]);
  });
  churn.start();

  sim::Simulator& origin_sim = netw.simulator_for(addrs[0]);
  std::vector<sim::SimTime> sent_at(kRumors);
  for (std::size_t r = 0; r < kRumors; ++r) {
    const auto at = sim::seconds(2) + sim::seconds(3) * r;
    origin_sim.post(at, [&, r] {
      sent_at[r] = origin_sim.now();
      const SpanScope span(SpanKind::kGossipBroadcast);
      nodes[0]->broadcast(static_cast<overlay::RumorId>(r),
                          gcfg.message_bytes);
    });
  }

  std::optional<TelemetryProbe> tel;
  if (opt.tracer != nullptr) {
    tel.emplace(opt.series_path);
    world.instrument(*tel, tally.maxima);
  }
  tally.setup_s += setup.seconds();

  const auto horizon =
      sim::seconds(2) + sim::seconds(3) * kRumors + sim::seconds(20);
  tally.run_s += timed_run(opt.tracer,
                           [&] { world.kernel.run_until(horizon, threads); });
  churn.stop();
  world.kernel.merge_metrics_into(registry);

  for (std::size_t r = 0; r < kRumors; ++r) {
    std::vector<sim::SimTime> times;
    for (std::size_t sh = 0; sh < kOverlayShards; ++sh) {
      times.insert(times.end(), deliv[sh][r].begin(), deliv[sh][r].end());
    }
    std::sort(times.begin(), times.end());
    tally.delivered += times.size();
    if (times.size() > n) {
      rep.violations.push_back("overlay_churn: rumor " + std::to_string(r) +
                               " delivered more often than there are nodes");
    }
    tally.digest.u64(times.size()).u64(static_cast<std::uint64_t>(sent_at[r]));
    for (const sim::SimTime t : times) {
      tally.digest.u64(static_cast<std::uint64_t>(t));
    }
  }
  for (const auto& node : nodes) tally.duplicates += node->duplicates_received();
  tally.digest.u64(tally.duplicates).u64(churn.online_count());
  tally.totals.add(netw, world.kernel.total_events_processed());
  tally.totals.windows += world.kernel.windows_run();
}

Report run_overlay_churn(const RunOptions& opt) {
  const std::size_t threads = opt.threads == 0 ? kOverlayThreads : opt.threads;
  Report rep;
  sim::MetricRegistry registry;
  OverlayTally tally;
  kademlia_phase(opt, threads, registry, rep, tally);
  gossip_phase(opt, threads, registry, rep, tally);
  rep.setup_s = tally.setup_s;
  rep.run_s = tally.run_s;
  // A lookup fails when its initiator was offline when it fell due, when it
  // came back empty, or when it had not finished by the horizon.
  rep.ops_failed = rep.ops - std::min(rep.ops, tally.lookups_ok);
  tally.digest.u64(rep.ops).u64(rep.ops_failed);
  rep.digest = tally.digest.sha256().prefix64();

  add_common_layers(rep, opt.tracer, registry, tally.totals, tally.maxima);
  auto& l = rep.layer;
  l.emplace_back("overlay.warmup_s", tally.warmup_s);
  l.emplace_back("overlay.rpcs_per_lookup",
                 ratio(static_cast<double>(tally.rpcs),
                       static_cast<double>(tally.lookups_completed)));
  l.emplace_back("overlay.lookup_ok_ratio",
                 ratio(static_cast<double>(tally.lookups_ok),
                       static_cast<double>(rep.ops)));
  l.emplace_back("overlay.rpc_timeouts",
                 static_cast<double>(tally.rpc_timeouts));
  l.emplace_back("overlay.dupes_per_delivery",
                 ratio(static_cast<double>(tally.duplicates),
                       static_cast<double>(tally.delivered)));
  return rep;
}

}  // namespace

core::PowScenarioConfig pow_mesh_config(std::uint64_t seed) {
  core::PowScenarioConfig cfg;
  cfg.params.retarget_window = 0;
  cfg.params.initial_difficulty = 1e6;
  cfg.params.target_block_interval = sim::seconds(30);
  cfg.params.max_block_bytes = 100'000;
  cfg.total_hashrate = 1e6 / 30.0;
  cfg.nodes = 24;
  cfg.degree = 6;
  cfg.miners = 8;
  cfg.wallets = 32;
  cfg.tx_rate_per_sec = 12;
  cfg.common.seed = seed;
  cfg.common.latency = sim::millis(150);
  cfg.common.transport.mode = net::TransportMode::Bandwidth;
  cfg.common.transport.link.up_bps = 2e6 / 8;
  cfg.common.transport.link.down_bps = 16e6 / 8;
  cfg.common.duration = sim::minutes(kPowMeshMinutes);
  cfg.compact_relay = false;
  return cfg;
}

core::PartitionedScenarioConfig raft_commit_config(std::uint64_t seed) {
  core::PartitionedScenarioConfig cfg;
  cfg.partitions = 48;
  cfg.replicas = 3;
  cfg.tx_rate_per_sec = 24000;
  cfg.common.seed = seed;
  cfg.common.latency = sim::millis(1);
  cfg.common.duration = sim::seconds(kRaftSeconds);
  return cfg;
}

std::size_t workload_shards(const std::string& name) {
  return name == "overlay_churn" ? kOverlayShards : 1;
}

Report run_workload(const std::string& name, const RunOptions& options) {
  if (name == "pow_mesh") return run_pow_mesh(options);
  if (name == "raft_commit") return run_raft_commit(options);
  if (name == "overlay_churn") return run_overlay_churn(options);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (pow_mesh, raft_commit, overlay_churn)");
}

}  // namespace perfbench
