// E21 — Deterministic chaos sweep across all protocol families (robustness).
// Where E19 scripts one hand-written fault per family, E21 samples whole
// fault plans from a declarative ChaosSpace — partitions composed with
// crashes, loss bursts, duplication, reordering and latency spikes — and
// judges every run with the safety invariants plus liveness oracles: Raft
// re-elects and recommits, PBFT resumes executing, Kademlia lookups succeed
// again (under churn), gossip coverage converges, chain tips re-converge.
// Every (protocol, seed) verdict is deterministic; a failing seed is shrunk
// to a minimal repro plan and written as a ChaosRepro JSON file that
// `--repro FILE` replays byte-identically.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bft/pbft.hpp"
#include "bft/raft.hpp"
#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "chain/wallet.hpp"
#include "net/churn.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "overlay/gossip.hpp"
#include "overlay/kademlia.hpp"
#include "sim/telemetry.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"

using namespace decentnet;

namespace {

// --trace/--profile/--telemetry wiring for the single-run --repro replay:
// main() points this at the harness before invoking the scenario, and every
// runner instruments its fresh Simulator and registers the network + fault
// series. Fuzz sweeps leave it null (hundreds of shrink replays would
// interleave), and the CLI rejects those flags without --repro.
bench::ExperimentHarness* g_repro_harness = nullptr;

void instrument_run(sim::Simulator& simu) {
  if (g_repro_harness != nullptr) g_repro_harness->instrument(simu);
}

void register_run_telemetry(net::Network& netw, net::FaultScheduler& faults) {
  sim::Telemetry* const tel =
      g_repro_harness != nullptr ? g_repro_harness->telemetry() : nullptr;
  if (tel == nullptr) return;
  netw.register_telemetry(*tel);
  faults.register_telemetry(*tel);
}

constexpr const char* kProtocols[] = {"pow", "raft", "pbft", "kademlia",
                                      "gossip"};

// Per-protocol recovery bound: the liveness oracles must be satisfied within
// this budget after the last fault heals.
sim::SimDuration recovery_bound(std::string_view protocol) {
  if (protocol == "pow") return sim::seconds(150);
  if (protocol == "gossip") return sim::seconds(60);
  return sim::seconds(90);
}

std::size_t world_size(std::string_view protocol) {
  if (protocol == "raft") return 5;
  if (protocol == "pbft") return 4;
  if (protocol == "pow") return 12;
  return 24;  // kademlia, gossip
}

// The sampled space: the CLI space (or defaults) with the population pinned
// to the protocol's world size so partition groups and crash indices target
// real nodes.
sim::ChaosSpace space_for(const sim::ChaosSpace& base,
                          std::string_view protocol) {
  sim::ChaosSpace space = base;
  space.nodes = world_size(protocol);
  if (protocol == "pbft") {
    // n = 3f+1 = 4: more than one simultaneous crash exceeds f and stalls
    // the protocol for the whole window by design, not by bug.
    space.crashes.hi = std::min<std::uint32_t>(space.crashes.hi, 1);
  }
  return space;
}

// Record the first violation (safety or liveness) as the outcome.
sim::ChaosOutcome verdict(const sim::InvariantChecker& checker, bool recovered,
                          double recovery_s) {
  sim::ChaosOutcome out;
  if (!checker.ok()) {
    const sim::InvariantViolation& v = checker.violations().front();
    out.ok = false;
    out.violation = v.invariant + ": " + v.detail + " (t=" +
                    std::to_string(v.at) + "us, event " +
                    std::to_string(v.events_processed) + ")";
  }
  if (recovered) out.recovery_s.push_back(recovery_s);
  return out;
}

// --- Raft: 5 nodes, periodic leader-driven proposals. Safety: single
// leader per term + commit-log agreement. Liveness: a post-quiesce command
// commits on a majority within the bound.
sim::ChaosOutcome run_raft(const net::FaultPlan& plan, std::uint64_t seed) {
  sim::Simulator simu(seed);
  instrument_run(simu);
  const std::size_t n = world_size("raft");
  sim::MetricRegistry metrics;
  net::Network netw(simu,
                    std::make_unique<net::ConstantLatency>(sim::millis(5)),
                    net::NetworkConfig{.expected_nodes = n}, &metrics);
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(netw.new_node_id());

  const sim::SimTime quiesce = sim::plan_quiesce_time(plan);
  const sim::SimTime deadline = quiesce + recovery_bound("raft");

  sim::InvariantChecker checker(simu, &metrics);
  sim::CommitLogInvariant commits("raft-commit-agreement");
  commits.bind(&checker);

  std::map<std::uint64_t, sim::SimTime> proposed_at;
  std::vector<std::uint64_t> post_quiesce_commits(n, 0);
  std::vector<std::unique_ptr<bft::RaftNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<bft::RaftNode>(netw, addrs[i], i,
                                                    bft::RaftConfig{}));
    nodes.back()->set_group(addrs);
    nodes.back()->set_commit_hook(
        [&, i](std::uint64_t seq, const bft::Command& cmd) {
          commits.record(i, seq, cmd.id);
          const auto it = proposed_at.find(cmd.id);
          if (it != proposed_at.end() && it->second >= quiesce) {
            ++post_quiesce_commits[i];
          }
        });
  }
  std::vector<bft::RaftNode*> raw;
  for (auto& nd : nodes) raw.push_back(nd.get());
  checker.add("raft-single-leader",
              sim::invariants::single_leader_per_term(raw));
  const auto majority_recommitted = [&] {
    std::size_t have = 0;
    for (const std::uint64_t c : post_quiesce_commits) have += c > 0;
    return have > n / 2;
  };
  simu.schedule_at(quiesce, [&] {
    checker.add("raft-leader-liveness",
                sim::invariants::leader_elected_by(simu, raw, deadline));
    checker.add("raft-commit-liveness",
                sim::invariants::eventually(simu, "post-quiesce majority commit",
                                            deadline, majority_recommitted));
  });
  checker.start(sim::millis(200));
  for (auto& nd : nodes) nd->start();

  net::FaultTargets targets;
  targets.nodes = addrs;
  targets.crash = [&](std::size_t i) { nodes[i]->crash(); };
  targets.restart = [&](std::size_t i) { nodes[i]->restart(); };
  net::FaultScheduler faults(netw, plan, std::move(targets));
  faults.start();
  register_run_telemetry(netw, faults);

  std::uint64_t next_id = 1;
  simu.schedule_periodic(sim::millis(500), sim::millis(500), [&] {
    for (auto& nd : nodes) {
      if (!nd->is_leader()) continue;
      bft::Command c;
      c.id = next_id;
      c.client = 1;
      c.op = "w";
      if (nd->propose(c)) proposed_at[next_id++] = simu.now();
      break;
    }
  });

  bool recovered = false;
  sim::SimTime recovered_at = 0;
  simu.schedule_periodic(quiesce + sim::millis(100), sim::millis(100), [&] {
    if (!recovered && majority_recommitted()) {
      recovered = true;
      recovered_at = simu.now();
    }
  });
  simu.run_until(deadline + sim::seconds(10));
  checker.check_now();
  checker.stop();
  return verdict(checker, recovered,
                 sim::to_seconds(recovered_at - quiesce));
}

// --- PBFT: f=1 (4 replicas) + one client submitting every 2 s. Safety:
// commit agreement. Liveness: 2f+1 replicas execute a post-quiesce request
// within the bound (view changes + state transfer included).
sim::ChaosOutcome run_pbft(const net::FaultPlan& plan, std::uint64_t seed) {
  sim::Simulator simu(seed);
  instrument_run(simu);
  bft::PbftConfig cfg;
  cfg.f = 1;
  const std::size_t n = 3 * cfg.f + 1;
  sim::MetricRegistry metrics;
  net::Network netw(simu,
                    std::make_unique<net::ConstantLatency>(sim::millis(5)),
                    net::NetworkConfig{.expected_nodes = n + 1}, &metrics);
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(netw.new_node_id());

  const sim::SimTime quiesce = sim::plan_quiesce_time(plan);
  const sim::SimTime deadline = quiesce + recovery_bound("pbft");

  sim::InvariantChecker checker(simu, &metrics);
  sim::CommitLogInvariant commits("pbft-commit-agreement");
  commits.bind(&checker);

  std::vector<sim::SimTime> submit_times;
  std::vector<std::uint64_t> post_quiesce_exec(n, 0);
  std::vector<std::unique_ptr<bft::PbftReplica>> replicas;
  for (std::size_t i = 0; i < n; ++i) {
    replicas.push_back(
        std::make_unique<bft::PbftReplica>(netw, addrs[i], i, cfg));
    replicas.back()->set_group(addrs);
    replicas.back()->set_commit_hook(
        [&, i](std::uint64_t seq, const bft::Command& cmd) {
          commits.record(i, seq, cmd.id);
          if (cmd.id <= submit_times.size() &&
              submit_times[cmd.id - 1] >= quiesce) {
            ++post_quiesce_exec[i];
          }
        });
  }
  bft::PbftClient client(netw, netw.new_node_id(), 1, cfg);
  client.set_group(addrs);

  const auto quorum_executing = [&] {
    std::size_t have = 0;
    for (const std::uint64_t c : post_quiesce_exec) have += c > 0;
    return have >= 2 * cfg.f + 1;
  };
  simu.schedule_at(quiesce, [&] {
    checker.add("pbft-commit-liveness",
                sim::invariants::eventually(simu,
                                            "post-quiesce quorum execution",
                                            deadline, quorum_executing));
  });
  checker.start(sim::millis(200));

  net::FaultTargets targets;
  targets.nodes = addrs;
  targets.crash = [&](std::size_t i) { replicas[i]->crash(); };
  targets.restart = [&](std::size_t i) { replicas[i]->recover(); };
  net::FaultScheduler faults(netw, plan, std::move(targets));
  faults.start();
  register_run_telemetry(netw, faults);

  simu.schedule_periodic(sim::seconds(1), sim::seconds(2), [&] {
    submit_times.push_back(simu.now());
    client.submit("w");
  });

  bool recovered = false;
  sim::SimTime recovered_at = 0;
  simu.schedule_periodic(quiesce + sim::millis(100), sim::millis(100), [&] {
    if (!recovered && quorum_executing()) {
      recovered = true;
      recovered_at = simu.now();
    }
  });
  simu.run_until(deadline + sim::seconds(10));
  checker.check_now();
  checker.stop();
  return verdict(checker, recovered,
                 sim::to_seconds(recovered_at - quiesce));
}

// --- PoW: 12 nodes / 4 miners on a random graph. Crash = unreachable at
// the network layer. Liveness: tips converge to within 2 blocks after
// quiesce. (No mid-fault safety predicate: forks during a partition are the
// protocol working as designed.)
sim::ChaosOutcome run_pow(const net::FaultPlan& plan, std::uint64_t seed) {
  sim::Simulator simu(seed);
  instrument_run(simu);
  const std::size_t n = world_size("pow");
  sim::MetricRegistry metrics;
  net::Network netw(simu,
                    std::make_unique<net::ConstantLatency>(sim::millis(50)),
                    net::NetworkConfig{.expected_nodes = n}, &metrics);
  chain::ChainParams params;
  params.target_block_interval = sim::seconds(15);
  params.retarget_window = 0;
  params.initial_difficulty = 1e6;
  chain::Wallet payout = chain::Wallet::from_seed(0xE21);
  const chain::BlockPtr genesis =
      chain::make_genesis(payout.address(), 10000, params.initial_difficulty);

  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(netw.new_node_id());
  sim::Rng topo_rng(seed ^ 0x70B0);
  const auto adj = net::random_graph(n, 4, topo_rng);
  std::vector<std::unique_ptr<chain::FullNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<chain::FullNode>(netw, addrs[i], params, genesis));
    std::vector<net::NodeId> nbrs;
    for (std::size_t j : adj[i]) nbrs.push_back(addrs[j]);
    nodes.back()->connect(std::move(nbrs));
  }
  const double total_rate =
      params.initial_difficulty / sim::to_seconds(params.target_block_interval);
  std::vector<std::unique_ptr<chain::Miner>> miners;
  for (std::size_t i : {0ul, 3ul, 6ul, 9ul}) {
    miners.push_back(std::make_unique<chain::Miner>(
        *nodes[i], payout.address(), total_rate / 4));
    miners.back()->start();
  }

  const sim::SimTime quiesce = sim::plan_quiesce_time(plan);
  const sim::SimTime deadline = quiesce + recovery_bound("pow");

  sim::InvariantChecker checker(simu, &metrics);
  std::vector<chain::FullNode*> raw;
  for (auto& nd : nodes) raw.push_back(nd.get());
  simu.schedule_at(quiesce, [&] {
    checker.add("pow-tip-liveness",
                sim::invariants::tips_converge_by(simu, raw, 2, deadline));
  });
  checker.start(sim::seconds(1));

  net::FaultTargets targets;
  targets.nodes = addrs;
  targets.crash = [&](std::size_t i) { netw.set_unreachable(addrs[i], true); };
  targets.restart = [&](std::size_t i) {
    netw.set_unreachable(addrs[i], false);
  };
  net::FaultScheduler faults(netw, plan, std::move(targets));
  faults.start();
  register_run_telemetry(netw, faults);

  bool recovered = false;
  sim::SimTime recovered_at = 0;
  simu.schedule_periodic(quiesce + sim::millis(100), sim::millis(100), [&] {
    if (recovered) return;
    std::uint64_t lo = ~0ull, hi = 0;
    for (const auto& nd : nodes) {
      const std::uint64_t h = nd->tree().best_height();
      lo = std::min(lo, h);
      hi = std::max(hi, h);
    }
    if (hi - lo <= 2) {
      recovered = true;
      recovered_at = simu.now();
    }
  });
  simu.run_until(deadline + sim::seconds(10));
  checker.check_now();
  checker.stop();
  for (auto& m : miners) m->stop();
  return verdict(checker, recovered,
                 sim::to_seconds(recovered_at - quiesce));
}

// --- Kademlia: 24 nodes with heavy-tailed churn COMPOSED with the sampled
// fault plan (the FaultScheduler holds a crashed node's churn so churn can
// never revive it early). Workload: stored values republished every 20 s,
// find_value lookups every 2 s. Liveness: 3 post-quiesce lookups succeed
// within the bound.
sim::ChaosOutcome run_kademlia(const net::FaultPlan& plan,
                               std::uint64_t seed) {
  sim::Simulator simu(seed);
  instrument_run(simu);
  const std::size_t n = world_size("kademlia");
  sim::MetricRegistry metrics;
  net::Network netw(simu,
                    std::make_unique<net::ConstantLatency>(sim::millis(20)),
                    net::NetworkConfig{.expected_nodes = n}, &metrics);
  overlay::KademliaConfig cfg;
  cfg.rpc_retries = 1;  // ride out sampled loss bursts (see README)
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(netw.new_node_id());
  std::vector<std::unique_ptr<overlay::KademliaNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::KademliaNode>(netw, addrs[i], cfg));
  }
  std::vector<overlay::Contact> all_contacts;
  for (const auto& nd : nodes) {
    all_contacts.push_back({nd->id(), nd->addr()});
  }
  const auto bootstrap_for = [&](std::size_t i) {
    std::vector<overlay::Contact> bs;
    for (std::size_t d = 1; d <= 3; ++d) {
      bs.push_back(all_contacts[(i + d) % n]);
    }
    return bs;
  };
  for (std::size_t i = 0; i < n; ++i) nodes[i]->join(bootstrap_for(i));

  const sim::SimTime quiesce = sim::plan_quiesce_time(plan);
  const sim::SimTime deadline = quiesce + recovery_bound("kademlia");

  net::ChurnConfig churn_cfg;
  churn_cfg.session = net::DurationDist::weibull(240, 0.8);
  churn_cfg.downtime = net::DurationDist::exponential_mean(20);
  churn_cfg.initially_online = 1.0;
  net::ChurnDriver churn(
      simu, n, churn_cfg,
      [&](std::size_t i) { nodes[i]->join(bootstrap_for(i)); },
      [&](std::size_t i) { nodes[i]->leave(); });
  churn.start();

  net::FaultTargets targets;
  targets.nodes = addrs;
  targets.crash = [&](std::size_t i) { nodes[i]->leave(); };
  targets.restart = [&](std::size_t i) { nodes[i]->join(bootstrap_for(i)); };
  targets.churn = &churn;
  net::FaultScheduler faults(netw, plan, std::move(targets));
  faults.start();
  register_run_telemetry(netw, faults);

  // Keys stored once the overlay settles and republished every 20 s from the
  // lowest online node (real DHTs republish; churn evicts replicas).
  std::vector<overlay::Key> keys;
  for (std::uint64_t k = 0; k < 8; ++k) {
    keys.push_back(crypto::sha256("chaos-key-" + std::to_string(k)));
  }
  simu.schedule_periodic(sim::seconds(2), sim::seconds(20), [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (!nodes[i]->online()) continue;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        nodes[i]->store(keys[k], "v" + std::to_string(k));
      }
      break;
    }
  });

  std::uint64_t post_quiesce_hits = 0;
  std::uint64_t issued = 0;
  simu.schedule_periodic(sim::seconds(4), sim::seconds(2), [&] {
    const std::size_t who = issued % n;
    const overlay::Key& key = keys[issued % keys.size()];
    ++issued;
    if (!nodes[who]->online()) return;
    const sim::SimTime at = simu.now();
    nodes[who]->find_value(key, [&, at](overlay::LookupResult res) {
      if (res.found_value && at >= quiesce) ++post_quiesce_hits;
    });
  });

  sim::InvariantChecker checker(simu, &metrics);
  simu.schedule_at(quiesce, [&] {
    checker.add("kademlia-lookup-liveness",
                sim::invariants::count_reaches(
                    simu, "post-quiesce lookup successes",
                    [&] { return post_quiesce_hits; }, 3, deadline));
  });
  checker.start(sim::millis(500));

  bool recovered = false;
  sim::SimTime recovered_at = 0;
  simu.schedule_periodic(quiesce + sim::millis(100), sim::millis(100), [&] {
    if (!recovered && post_quiesce_hits >= 3) {
      recovered = true;
      recovered_at = simu.now();
    }
  });
  simu.run_until(deadline + sim::seconds(10));
  checker.check_now();
  checker.stop();
  churn.stop();
  return verdict(checker, recovered,
                 sim::to_seconds(recovered_at - quiesce));
}

// --- Gossip: 24 nodes, Cyclon shuffling, a rumor broadcast every 5 s
// throughout plus one probe rumor right after quiesce. Liveness: the probe
// rumor reaches every online node within the bound.
sim::ChaosOutcome run_gossip(const net::FaultPlan& plan, std::uint64_t seed) {
  sim::Simulator simu(seed);
  instrument_run(simu);
  const std::size_t n = world_size("gossip");
  sim::MetricRegistry metrics;
  net::Network netw(simu,
                    std::make_unique<net::ConstantLatency>(sim::millis(20)),
                    net::NetworkConfig{.expected_nodes = n}, &metrics);
  overlay::GossipConfig cfg;
  cfg.view_size = 8;
  cfg.shuffle_size = 4;
  cfg.shuffle_interval = sim::seconds(5);
  cfg.fanout = 4;
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(netw.new_node_id());
  std::vector<std::unique_ptr<overlay::GossipNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::GossipNode>(netw, addrs[i], cfg));
  }
  const auto bootstrap_for = [&](std::size_t i) {
    std::vector<net::NodeId> view;
    for (std::size_t d = 1; d <= 4; ++d) view.push_back(addrs[(i + d) % n]);
    return view;
  };
  for (std::size_t i = 0; i < n; ++i) nodes[i]->join(bootstrap_for(i));

  const sim::SimTime quiesce = sim::plan_quiesce_time(plan);
  const sim::SimTime deadline = quiesce + recovery_bound("gossip");

  net::FaultTargets targets;
  targets.nodes = addrs;
  targets.crash = [&](std::size_t i) { nodes[i]->leave(); };
  targets.restart = [&](std::size_t i) { nodes[i]->join(bootstrap_for(i)); };
  net::FaultScheduler faults(netw, plan, std::move(targets));
  faults.start();
  register_run_telemetry(netw, faults);

  std::uint64_t next_rumor = 1;
  simu.schedule_periodic(sim::seconds(3), sim::seconds(5), [&] {
    const std::size_t who = next_rumor % n;
    if (nodes[who]->online()) nodes[who]->broadcast(next_rumor, 64);
    ++next_rumor;
  });

  // The probe rumor: originated just after quiesce by the lowest online
  // node, watched by the coverage oracle.
  const overlay::RumorId probe_id = 1'000'000;
  std::vector<overlay::GossipNode*> raw;
  for (auto& nd : nodes) raw.push_back(nd.get());
  sim::InvariantChecker checker(simu, &metrics);
  simu.schedule_at(quiesce + sim::seconds(1), [&] {
    for (auto& nd : nodes) {
      if (nd->online()) {
        nd->broadcast(probe_id, 64);
        break;
      }
    }
    checker.add("gossip-coverage-liveness",
                sim::invariants::coverage_converges_by(simu, raw, probe_id,
                                                       deadline));
  });
  checker.start(sim::millis(500));

  bool recovered = false;
  sim::SimTime recovered_at = 0;
  simu.schedule_periodic(quiesce + sim::seconds(2), sim::millis(100), [&] {
    if (recovered) return;
    for (const auto& nd : nodes) {
      if (nd->online() && !nd->has_seen(probe_id)) return;
    }
    recovered = true;
    recovered_at = simu.now();
  });
  simu.run_until(deadline + sim::seconds(10));
  checker.check_now();
  checker.stop();
  return verdict(checker, recovered,
                 sim::to_seconds(recovered_at - quiesce));
}

sim::ChaosScenario scenario_for(std::string_view protocol) {
  if (protocol == "pow") return run_pow;
  if (protocol == "raft") return run_raft;
  if (protocol == "pbft") return run_pbft;
  if (protocol == "kademlia") return run_kademlia;
  return run_gossip;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E21_chaos", argc, argv,
                              {.seed = 21, .chaos_aware = true});
  ex.describe(
      "E21: deterministic chaos sweep across protocol families",
      "randomized-but-seeded composed faults (partitions + crashes + loss + "
      "duplication + reordering + latency spikes, and churn for the DHT) "
      "never break safety, and every family recovers within its liveness "
      "bound once the faults heal",
      "sample N fault plans per protocol from a declarative ChaosSpace; run "
      "each under safety invariants + liveness oracles; shrink any failure "
      "to a minimal JSON repro (replay with --repro FILE)");

  sim::ChaosSpace base;
  if (!ex.chaos_space_path().empty()) {
    try {
      base = sim::ChaosSpace::from_json(read_file(ex.chaos_space_path()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--chaos-space %s: %s\n",
                   ex.chaos_space_path().c_str(), e.what());
      return 2;
    }
  }

  // --repro FILE: replay one shrunk failure byte-identically and report
  // whether it still fails. Exit 0 = reproduced, 3 = did not reproduce.
  if (!ex.repro_path().empty()) {
    sim::ChaosRepro repro;
    try {
      repro = sim::ChaosRepro::from_json(read_file(ex.repro_path()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--repro %s: %s\n", ex.repro_path().c_str(),
                   e.what());
      return 2;
    }
    g_repro_harness = &ex;  // see instrument_run
    const sim::ChaosOutcome out =
        scenario_for(repro.protocol)(repro.plan, repro.seed);
    g_repro_harness = nullptr;
    ex.add_row({{"protocol", repro.protocol},
                {"seed", std::uint64_t(repro.seed)},
                {"reproduced", !out.ok},
                {"violation", out.ok ? "-" : out.violation}});
    const int rc = ex.finish();
    if (rc != 0) return rc;
    if (!out.ok) {
      std::printf("\nreproduced: %s\n", out.violation.c_str());
      return 0;
    }
    std::printf("\nNOT reproduced (recorded violation was: %s)\n",
                repro.violation.c_str());
    return 3;
  }

  const std::size_t seeds = ex.chaos_seeds(64);
  ex.set_param("chaos_seeds", std::uint64_t(seeds));
  ex.set_param("horizon_s", sim::Value(sim::to_seconds(base.horizon), 0));

  std::atomic<std::uint64_t> total_violations{0};
  ex.run_points(std::size(kProtocols), [&](sim::PointScope& scope) {
    const std::string protocol = kProtocols[scope.index()];
    const sim::ChaosSpace space = space_for(base, protocol);
    const sim::ChaosEngine engine(space);
    const sim::ChaosScenario scenario = scenario_for(protocol);

    std::vector<double> recovery;
    std::uint64_t violations = 0;
    std::uint64_t recovered_runs = 0;
    // Chaos seed stream: a splitmix chain over (root seed, protocol index),
    // independent of --jobs and of the other protocols. The extra splitmix
    // hashes the start out of the shared step-G arithmetic progression —
    // plain `root ^ G*(index+1)` starts would make protocol streams mere
    // shifts of each other (pow and pbft would fuzz overlapping seed lists).
    std::uint64_t stream =
        scope.root_seed() ^ (0x9E3779B97F4A7C15ull * (scope.index() + 1));
    stream = sim::splitmix64(stream);
    for (std::size_t s = 0; s < seeds; ++s) {
      const std::uint64_t chaos_seed = sim::splitmix64(stream);
      const net::FaultPlan plan = engine.sample_plan(chaos_seed);
      const sim::ChaosOutcome out = scenario(plan, chaos_seed);
      if (!out.ok) {
        ++violations;
        const sim::ShrinkResult shrunk =
            engine.shrink(plan, chaos_seed, scenario);
        sim::ChaosRepro repro;
        repro.protocol = protocol;
        repro.seed = chaos_seed;
        repro.violation = shrunk.violation;
        repro.plan = shrunk.plan;
        const std::string path = "REPRO_E21_" + protocol + "_" +
                                 std::to_string(chaos_seed) + ".json";
        std::ofstream outf(path);
        outf << repro.to_json();
        std::fprintf(stderr,
                     "[E21] %s seed %llu VIOLATION: %s\n"
                     "[E21]   shrunk %zu -> %zu clauses (%zu runs); repro: "
                     "%s\n",
                     protocol.c_str(),
                     static_cast<unsigned long long>(chaos_seed),
                     out.violation.c_str(), shrunk.stats.initial_clauses,
                     shrunk.stats.final_clauses, shrunk.stats.runs,
                     path.c_str());
      } else if (!out.recovery_s.empty()) {
        ++recovered_runs;
        recovery.push_back(out.recovery_s.front());
      }
    }
    total_violations.fetch_add(violations, std::memory_order_relaxed);

    double mean = 0;
    for (const double r : recovery) mean += r;
    if (!recovery.empty()) mean /= static_cast<double>(recovery.size());
    scope.add_row({{"protocol", protocol},
                   {"seeds", std::uint64_t(seeds)},
                   {"violations", violations},
                   {"recovered", recovered_runs},
                   {"recovery_mean_s", sim::Value(mean, 2)},
                   {"recovery_p50_s", sim::Value(percentile(recovery, 0.5), 2)},
                   {"recovery_p95_s", sim::Value(percentile(recovery, 0.95), 2)},
                   {"recovery_max_s",
                    sim::Value(recovery.empty()
                                   ? 0
                                   : *std::max_element(recovery.begin(),
                                                       recovery.end()),
                               2)}});
  });

  const int rc = ex.finish();
  if (total_violations.load() > 0) {
    std::fprintf(stderr,
                 "\n[E21] %llu violation(s); shrunk repro files written "
                 "(replay with --repro FILE)\n",
                 static_cast<unsigned long long>(total_violations.load()));
    return 1;
  }
  std::printf(
      "\nComposed random adversity costs liveness windows, never safety:\n"
      "every sampled plan heals and every family recovers within its bound\n"
      "— the DHT even with churn running throughout. Any future violation\n"
      "arrives as a minimal replayable JSON repro, not a flaky red build.\n");
  return rc;
}
