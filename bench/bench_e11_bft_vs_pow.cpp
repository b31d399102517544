// E11 — Permissioned BFT consensus vs permissionless PoW (§IV).
// "The advent of permissioned blockchains has given new life to research on
// practical solutions to problems like consensus ... [Fabric] avoids costly
// proof-of-work by using different consensus algorithms such as CFT or BFT
// protocols" — BFT commits in milliseconds among tens of known nodes; PoW
// takes minutes among thousands of anonymous ones, and BFT's quadratic
// message cost is why it stays small.
#include <iterator>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "bft/pbft.hpp"
#include "bft/raft.hpp"
#include "core/scenarios.hpp"
#include "net/network.hpp"
#include "sim/metrics.hpp"

using namespace decentnet;

namespace {

struct BftRun {
  double tps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double msgs_per_commit = 0;
};

BftRun run_pbft(std::size_t f, double offered_tps, sim::SimDuration dur,
                sim::PointScope& scope) {
  sim::Simulator simu(scope.root_seed());
  scope.instrument(simu);
  const std::size_t n = 3 * f + 1;
  net::NetworkConfig net_cfg;
  net_cfg.expected_nodes = n + 1;  // replicas + client
  net::Network netw(simu,
                    std::make_unique<net::ConstantLatency>(sim::millis(5)),
                    net_cfg, &scope.metrics());
  bft::PbftConfig cfg;
  cfg.f = f;
  cfg.batch_size = 16;
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(netw.new_node_id());
  std::vector<std::unique_ptr<bft::PbftReplica>> replicas;
  for (std::size_t i = 0; i < n; ++i) {
    replicas.push_back(
        std::make_unique<bft::PbftReplica>(netw, addrs[i], i, cfg));
    replicas.back()->set_group(addrs);
  }
  bft::PbftClient client(netw, netw.new_node_id(), 1, cfg);
  client.set_group(addrs);
  sim::Histogram lat;
  client.set_done_hook([&](const bft::Command&, sim::SimDuration l) {
    lat.record(sim::to_millis(l));
  });
  sim::Rng rng(3);
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [&, weak] {
    auto strong = weak.lock();
    client.submit("op", 128);
    if (strong) {
      simu.schedule(sim::seconds(rng.exponential(offered_tps)),
                    [strong] { (*strong)(); });
    }
  };
  simu.schedule(sim::millis(10), [tick] { (*tick)(); });
  const auto msgs_before = netw.messages_sent();
  simu.run_until(dur);
  BftRun out;
  out.tps = static_cast<double>(client.completed()) / sim::to_seconds(dur);
  out.p50_ms = lat.percentile(50);
  out.p99_ms = lat.percentile(99);
  out.msgs_per_commit =
      client.completed() == 0
          ? 0
          : static_cast<double>(netw.messages_sent() - msgs_before) /
                static_cast<double>(client.completed());
  return out;
}

BftRun run_raft(std::size_t n, double offered_tps, sim::SimDuration dur,
                sim::PointScope& scope) {
  sim::Simulator simu(scope.root_seed() + 1);
  scope.instrument(simu);
  net::NetworkConfig net_cfg;
  net_cfg.expected_nodes = n;
  net::Network netw(simu,
                    std::make_unique<net::ConstantLatency>(sim::millis(5)),
                    net_cfg, &scope.metrics());
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(netw.new_node_id());
  std::vector<std::unique_ptr<bft::RaftNode>> nodes;
  sim::Histogram lat;
  std::unordered_map<std::uint64_t, sim::SimTime> inflight;
  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<bft::RaftNode>(netw, addrs[i], i, bft::RaftConfig{}));
    nodes.back()->set_group(addrs);
  }
  nodes.front()->set_commit_hook(
      [&](std::uint64_t, const bft::Command& cmd) {
        const auto it = inflight.find(cmd.id);
        if (it == inflight.end()) return;
        lat.record(sim::to_millis(simu.now() - it->second));
        inflight.erase(it);
        ++committed;
      });
  for (auto& nd : nodes) nd->start();
  simu.run_until(sim::seconds(2));
  sim::Rng rng(5);
  std::uint64_t next_id = 1;
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [&, weak] {
    auto strong = weak.lock();
    for (auto& nd : nodes) {
      if (nd->is_leader()) {
        bft::Command cmd;
        cmd.id = next_id++;
        cmd.wire_bytes = 128;
        inflight.emplace(cmd.id, simu.now());
        nd->propose(std::move(cmd));
        break;
      }
    }
    if (strong) {
      simu.schedule(sim::seconds(rng.exponential(offered_tps)),
                    [strong] { (*strong)(); });
    }
  };
  simu.schedule(sim::millis(10), [tick] { (*tick)(); });
  const auto msgs_before = netw.messages_sent();
  const sim::SimTime start = simu.now();
  simu.run_until(start + dur);
  BftRun out;
  out.tps = static_cast<double>(committed) / sim::to_seconds(dur);
  out.p50_ms = lat.percentile(50);
  out.p99_ms = lat.percentile(99);
  out.msgs_per_commit = committed == 0 ? 0
                                       : static_cast<double>(
                                             netw.messages_sent() -
                                             msgs_before) /
                                             static_cast<double>(committed);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E11_bft_vs_pow", argc, argv, {.seed = 7});
  ex.describe(
      "E11: permissioned consensus (PBFT/Raft) vs permissionless PoW",
      "BFT among a limited set of authenticated nodes commits in "
      "network-RTT time at thousands of tps; PoW needs minutes and caps at "
      "single-digit tps — but BFT's all-to-all messaging is why "
      "'the number of entities participating in the protocol is limited'",
      "offered load 500 tps, 5 ms LAN; sweep replica count; PoW row "
      "reproduced from E5's Bitcoin-like configuration");

  // 10 independent sweep points (5 PBFT sizes, 4 Raft sizes, 1 PoW); each
  // builds its own Simulator from the root seed, so with --jobs N they run
  // on worker threads and merge in index order — artifact bytes are
  // independent of N.
  const std::size_t kPbftF[] = {1, 2, 3, 5, 8};
  const std::size_t kRaftN[] = {3, 5, 7, 11};
  ex.run_points(std::size(kPbftF) + std::size(kRaftN) + 1,
                [&](sim::PointScope& scope) {
    const std::size_t i = scope.index();
    if (i < std::size(kPbftF)) {
      const std::size_t f = kPbftF[i];
      const auto r = run_pbft(f, 500, sim::seconds(30), scope);
      scope.add_row({{"system", "PBFT f=" + std::to_string(f)},
                     {"replicas", std::uint64_t{3 * f + 1}},
                     {"tps", bench::Value(r.tps, 0)},
                     {"p50_ms", bench::Value(r.p50_ms, 1)},
                     {"p99_ms", bench::Value(r.p99_ms, 1)},
                     {"msgs_per_commit", bench::Value(r.msgs_per_commit, 1)}});
    } else if (i < std::size(kPbftF) + std::size(kRaftN)) {
      const std::size_t n = kRaftN[i - std::size(kPbftF)];
      const auto r = run_raft(n, 500, sim::seconds(30), scope);
      scope.add_row({{"system", "Raft n=" + std::to_string(n)},
                     {"replicas", std::uint64_t{n}},
                     {"tps", bench::Value(r.tps, 0)},
                     {"p50_ms", bench::Value(r.p50_ms, 1)},
                     {"p99_ms", bench::Value(r.p99_ms, 1)},
                     {"msgs_per_commit", bench::Value(r.msgs_per_commit, 1)}});
    } else {
      core::PowScenarioConfig cfg;
      cfg.params.retarget_window = 0;
      cfg.params.initial_difficulty = 1e9;
      cfg.total_hashrate = 1e9 / 600.0;
      cfg.nodes = 24;
      cfg.miners = 8;
      cfg.wallets = 32;
      cfg.tx_rate_per_sec = 10;
      cfg.common.duration = sim::hours(1);
      cfg.common.seed = scope.root_seed();
      const auto r = core::run_pow_scenario(cfg, core::ScenarioEnv::of(scope));
      scope.add_row({{"system", "PoW (Bitcoin-like)"},
                     {"replicas", 24},
                     {"tps", bench::Value(r.throughput_tps, 1)},
                     {"p50_ms", "~600000"},
                     {"p99_ms", "~3600000"}});
    }
  });
  const int rc = ex.finish();
  std::printf(
      "\nPBFT latency stays at a few RTTs but msgs/commit grows with n^2 —\n"
      "the structural reason permissioned consensus runs among consortium\n"
      "members, not the open Internet. Raft (CFT) is cheaper still when\n"
      "byzantine behaviour is handled by identity/legal trust (the MSP).\n"
      "PoW 'latency' is confirmation depth: ~10 min for one block, ~1 h for\n"
      "the customary six.\n");
  return rc;
}
