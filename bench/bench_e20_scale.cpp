// E20: the million-node scale path.
//
// The paper's core argument is quantitative at scale: permissionless overlays
// pay for open membership with lookup latency, redundant dissemination
// traffic, and churn-induced failures, and those costs grow with N. E20
// measures the two overlay primitives everything else rides on — Kademlia
// iterative lookups and push-epidemic gossip — at N ∈ {1k, 10k, 100k, 1M}
// under heavy-tailed churn, and doubles as the memory/throughput regression
// gate for the SoA peer-table + streaming-trace work: the whole sweep must
// fit in a few GB (the 1M point in < 4 GB) and the 100k points must finish
// in minutes, not hours. tools/perf_gate.py compares this bench's 100k
// events_per_sec / peak_rss_mb cells against bench/baselines.json in CI.
//
// Sweep shape: for each N, one Kademlia point (hops, lookup latency, RPC
// timeouts over 2000 lookups while peers churn) and one gossip point
// (dissemination time to 99% of final coverage, duplicate factor, for 10
// rumors while peers churn). Kademlia routing tables are warmed via
// observe() — sorted-id neighbors for near buckets plus random contacts for
// far ones — instead of 100k staggered join lookups, which would dominate
// the wall-clock without changing steady-state lookup behavior.
//
// Knobs (repeatable `--param K=V`):
//   max_n=N            drop sweep points above N (CI smoke uses max_n=1000;
//                      the default keeps the 1M point opt-in —
//                      max_n=1000000 enables it)
//   lookups=K          Kademlia lookups per point        (default 2000)
//   rumors=K           gossip broadcasts per point       (default 10)
//   timings_in_json=0  demote wall-clock/events-per-sec/peak-RSS cells to
//                      table-only so BENCH_E20_scale.json is byte-identical
//                      across runs and --jobs values (the determinism CI
//                      check); the default 1 records them in the JSON.
//
// Every point runs on a sim::ShardedKernel of --sim-shards S shards (S = 1
// by default, which is the plain kernel bit for bit): hosts spread over S
// shards, cross-shard messages through deterministic mailboxes. With S > 1
// the latency floor rises to 20 ms (the kernel's lookahead) and churn draws
// per-peer streams, so results depend on S (a different, equally valid
// universe than the S = 1 run) but NEVER on --sim-threads, which is the
// determinism contract CI byte-checks.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "crypto/hash.hpp"
#include "net/churn.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "overlay/gossip.hpp"
#include "overlay/kademlia.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/sharding.hpp"
#include "sim/simulator.hpp"

namespace net = decentnet::net;
namespace overlay = decentnet::overlay;
namespace sim = decentnet::sim;
namespace crypto = decentnet::crypto;

namespace bench = decentnet::bench;

namespace {

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

/// Session/downtime mix tuned so a meaningful fraction of the population
/// flaps inside the ~40 s measurement window even at N=1k.
net::ChurnConfig scale_churn() {
  net::ChurnConfig churn;
  churn.session = net::DurationDist::weibull(120, 0.6);
  churn.downtime = net::DurationDist::exponential_mean(60);
  churn.initially_online = 1.0;
  return churn;
}

/// Latency floor with S > 1 shards: the kernel's lookahead, so it sets the
/// window width; 20 ms clamps ~0.03% of the 80 ms-median lognormal draws.
constexpr sim::SimDuration kShardedMinLatency = sim::millis(20);

/// Everything the two points share: the point's clock and scope, a
/// sim::ShardedKernel of `shards` shards (1 = the plain kernel), the network
/// over it, and the registered population.
struct ShardedNet {
  const bench::WallClock wall;
  sim::PointScope& scope;
  sim::ShardedKernel kernel;
  net::Network netw;
  std::vector<net::NodeId> addrs;

  ShardedNet(std::size_t n, std::size_t shards, sim::PointScope& point)
      : scope(point),
        kernel(scope.seed(), shards),
        netw(kernel.shard(0),
             shards > 1 ? std::make_unique<net::LogNormalLatency>(
                              sim::millis(80), 0.4, kShardedMinLatency)
                        : std::make_unique<net::LogNormalLatency>(
                              sim::millis(80), 0.4),
             net::NetworkConfig{.expected_nodes = n}, &scope.metrics()),
        addrs(n) {
    scope.instrument(kernel);
    netw.enable_sharding(kernel);
    if (sim::Telemetry* const tel = scope.telemetry()) {
      netw.register_telemetry(*tel);
    }
    for (std::size_t i = 0; i < n; ++i) addrs[i] = netw.new_node_id();
    // The peer table is find-only during parallel windows, so the whole
    // population registers before the first event.
    for (std::size_t i = 0; i < n; ++i) netw.register_node(addrs[i]);
  }

  bool sharded() const { return kernel.shard_count() > 1; }
  std::size_t shard_of(std::size_t i) const {
    return kernel.shard_of(addrs[i].value);
  }

  /// With S > 1, peer p's transitions execute on the shard that owns node
  /// p + `first` and draw from a per-peer stream. S = 1 keeps one stream
  /// shared by all peers, whose draw order a per-peer router would change.
  void route_churn(net::ChurnDriver& churn, std::size_t first) {
    if (!sharded()) return;
    churn.set_shard_router([this, first](std::size_t p) -> sim::Simulator& {
      return netw.simulator_for(addrs[p + first]);
    });
  }

  /// Close a point's row with the cells both overlays report. With S > 1
  /// it also records the decomposition: `shards` after `n` and `windows`
  /// after `events`.
  void add_row(std::vector<std::pair<std::string, sim::Value>> row,
               bool json_timings) const {
    const std::uint64_t events = kernel.total_events_processed();
    if (sharded()) {
      row.insert(row.begin() + 2,
                 {"shards", static_cast<std::uint64_t>(kernel.shard_count())});
    }
    row.emplace_back("msgs", netw.messages_sent());
    row.emplace_back("events", events);
    if (sharded()) row.emplace_back("windows", kernel.windows_run());
    bench::append_timing_cells(row, wall, events, json_timings);
    scope.add_row(std::move(row));
  }
};

void run_kademlia_point(std::size_t n, std::size_t lookups, bool json_timings,
                        std::size_t shards, std::size_t threads,
                        sim::PointScope& scope) {
  ShardedNet net(n, shards, scope);
  sim::ShardedKernel& kernel = net.kernel;
  net::Network& netw = net.netw;
  std::vector<net::NodeId>& addrs = net.addrs;

  overlay::KademliaConfig kcfg;
  // Bucket refreshes would add an O(N·buckets) lookup storm mid-window;
  // churn already exercises table repair, so push refreshes out of frame.
  kcfg.refresh_interval = sim::hours(6);

  // Result buffers, one per initiator shard (single writer each; merged in
  // shard order after the run). Declared before the nodes: ~KademliaNode
  // fails any still-pending lookup, and that callback writes here.
  std::vector<std::vector<overlay::LookupResult>> results(shards);
  std::vector<std::size_t> skipped(shards, 0);

  std::vector<std::unique_ptr<overlay::KademliaNode>> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::KademliaNode>(netw, addrs[i], kcfg));
  }

  // Warm routing tables without N join lookups: every node learns its
  // neighbors in sorted-id order (sorted adjacency = long shared prefixes =
  // the near buckets iterative lookups terminate through) plus a spread of
  // random contacts for the far buckets.
  std::vector<std::size_t> by_id(n);
  for (std::size_t i = 0; i < n; ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return nodes[a]->id() < nodes[b]->id();
  });
  sim::Rng rng(scope.seed() ^ 0xE20);
  const std::size_t kNeighbors = 8;   // each side, in sorted-id order
  const std::size_t kRandom = 16;
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

  // Churn: rejoining peers bootstrap through a surviving sorted-id neighbor
  // (their table persists across the offline gap, as in real clients).
  net::ChurnDriver churn(
      kernel.shard(0), n, scale_churn(),
      [&](std::size_t i) {
        if (nodes[i]->online()) return;
        nodes[i]->join(nodes[i]->routing_table().empty()
                           ? std::vector<overlay::Contact>{}
                           : std::vector<overlay::Contact>{
                                 nodes[i]->routing_table().front()});
      },
      [&](std::size_t i) {
        if (nodes[i]->online()) nodes[i]->leave();
      });
  net.route_churn(churn, 0);
  churn.start();

  // Initiators are pre-drawn, in lookup order: a draw at event time would
  // depend on the order shards run. `rng` serves nothing else after the
  // warm-up, and the lookups fire in that order, so each gets the same draw
  // either way.
  for (std::size_t q = 0; q < lookups; ++q) {
    const std::size_t who = rng.uniform_int(n);
    const std::size_t sh = net.shard_of(who);
    const auto at = sim::seconds(5) + sim::millis(15) * q;
    netw.simulator_for(addrs[who]).post_at(at, [&, q, who, sh] {
      if (!nodes[who]->online()) {
        ++skipped[sh];
        return;
      }
      const overlay::Key target =
          crypto::sha256("e20-target-" + std::to_string(q));
      nodes[who]->lookup(target, [&results, sh](overlay::LookupResult r) {
        results[sh].push_back(std::move(r));
      });
    });
  }
  const auto horizon =
      sim::seconds(10) + sim::millis(15) * lookups + sim::seconds(5);
  kernel.run_until(horizon, threads);
  churn.stop();
  kernel.merge_metrics_into(scope.metrics());

  double hops_sum = 0, rpcs_sum = 0;
  std::size_t timeouts = 0, successes = 0, completed_n = 0, skipped_offline = 0;
  std::vector<double> latencies_ms;
  for (std::size_t sh = 0; sh < shards; ++sh) {
    skipped_offline += skipped[sh];
    for (const auto& r : results[sh]) {
      ++completed_n;
      hops_sum += static_cast<double>(r.hops);
      rpcs_sum += static_cast<double>(r.rpcs_sent);
      timeouts += r.timeouts;
      if (!r.closest.empty()) ++successes;
      latencies_ms.push_back(sim::to_millis(r.elapsed));
    }
  }
  const double completed = std::max<double>(1, completed_n);
  net.add_row(
      {{"overlay", "kademlia"},
       {"n", static_cast<std::uint64_t>(n)},
       {"online_end", static_cast<std::uint64_t>(churn.online_count())},
       {"lookups", static_cast<std::uint64_t>(completed_n)},
       {"skipped_offline", static_cast<std::uint64_t>(skipped_offline)},
       {"success_pct", sim::Value(100.0 * successes / completed, 2)},
       {"mean_hops", sim::Value(hops_sum / completed, 2)},
       {"p50_ms", sim::Value(percentile(latencies_ms, 0.50), 1)},
       {"p99_ms", sim::Value(percentile(latencies_ms, 0.99), 1)},
       {"mean_rpcs", sim::Value(rpcs_sum / completed, 1)},
       {"rpc_timeouts", static_cast<std::uint64_t>(timeouts)}},
      json_timings);
}

void run_gossip_point(std::size_t n, std::size_t rumors, bool json_timings,
                      std::size_t shards, std::size_t threads,
                      sim::PointScope& scope) {
  ShardedNet net(n, shards, scope);
  sim::ShardedKernel& kernel = net.kernel;
  net::Network& netw = net.netw;
  std::vector<net::NodeId>& addrs = net.addrs;

  overlay::GossipConfig gcfg;
  gcfg.view_size = 16;
  gcfg.shuffle_size = 8;
  gcfg.shuffle_interval = sim::seconds(30);
  gcfg.fanout = 6;
  gcfg.message_bytes = 256;

  // First delivery times per rumor by receiving node's shard (single
  // writer each), merged in shard order for t99. Declared before the nodes
  // so the deliver hooks never outlive their buffer.
  std::vector<std::vector<std::vector<sim::SimTime>>> deliv(
      shards, std::vector<std::vector<sim::SimTime>>(rumors));
  std::vector<std::unique_ptr<overlay::GossipNode>> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::GossipNode>(netw, addrs[i], gcfg));
    // Two pointers fit std::function's local buffer: no heap box per node.
    auto* const mine = &deliv[net.shard_of(i)];
    sim::Simulator* nsim = &netw.simulator_for(addrs[i]);
    nodes.back()->set_deliver_hook(
        [mine, nsim](overlay::RumorId rumor, std::size_t) {
          (*mine)[rumor].push_back(nsim->now());
        });
  }

  // Half-ring, half-random views: the ring guarantees connectivity, the
  // random links keep the epidemic's diameter logarithmic.
  sim::Rng rng(scope.seed() ^ 0xE20);
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

  // Node 0 originates every rumor, so keep it out of the churn population.
  net::ChurnDriver churn(
      kernel.shard(0), n - 1, scale_churn(),
      [&](std::size_t i) {
        if (nodes[i + 1]->online()) return;
        std::vector<net::NodeId> view;
        for (std::size_t d = 1; d <= gcfg.view_size / 2; ++d) {
          view.push_back(addrs[(i + 1 + d) % n]);
        }
        nodes[i + 1]->join(view);
      },
      [&](std::size_t i) {
        if (nodes[i + 1]->online()) nodes[i + 1]->leave();
      });
  net.route_churn(churn, 1);
  churn.start();

  // Node 0 originates every rumor on its own shard; sent_at is written only
  // by that shard's worker.
  sim::Simulator& origin_sim = netw.simulator_for(addrs[0]);
  std::vector<sim::SimTime> sent_at(rumors);
  for (std::size_t r = 0; r < rumors; ++r) {
    const auto at = sim::seconds(2) + sim::seconds(3) * r;
    origin_sim.post_at(at, [&, r] {
      sent_at[r] = origin_sim.now();
      nodes[0]->broadcast(static_cast<overlay::RumorId>(r),
                          gcfg.message_bytes);
    });
  }
  kernel.run_until(sim::seconds(2) + sim::seconds(3) * rumors +
                       sim::seconds(20),
                   threads);
  churn.stop();
  kernel.merge_metrics_into(scope.metrics());

  double coverage_sum = 0, t99_sum = 0;
  std::uint64_t delivered = 0;
  for (std::size_t r = 0; r < rumors; ++r) {
    std::vector<sim::SimTime> times = std::move(deliv[0][r]);
    for (std::size_t sh = 1; sh < shards; ++sh) {
      times.insert(times.end(), deliv[sh][r].begin(), deliv[sh][r].end());
    }
    delivered += times.size();
    coverage_sum += static_cast<double>(times.size()) / n;
    if (!times.empty()) {
      std::sort(times.begin(), times.end());
      const auto idx = static_cast<std::size_t>(0.99 * (times.size() - 1));
      t99_sum += sim::to_millis(times[idx] - sent_at[r]);
    }
  }
  std::uint64_t duplicates = 0;
  for (const auto& node : nodes) duplicates += node->duplicates_received();

  net.add_row(
      {{"overlay", "gossip"},
       {"n", static_cast<std::uint64_t>(n)},
       {"online_end", static_cast<std::uint64_t>(churn.online_count() + 1)},
       {"rumors", static_cast<std::uint64_t>(rumors)},
       {"coverage_pct", sim::Value(100.0 * coverage_sum / rumors, 2)},
       {"t99_ms", sim::Value(t99_sum / rumors, 1)},
       {"dupes_per_delivery",
        sim::Value(static_cast<double>(duplicates) /
                       std::max<std::uint64_t>(1, delivered),
                   2)}},
      json_timings);
}

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentHarness ex("E20_scale", argc, argv,
                            {.seed = 20,
                             .shard_aware = true,
                             .params = {{"max_n", "100000"},
                                        {"lookups", "2000"},
                                        {"rumors", "10"},
                                        {"timings_in_json", "1"}}});
  ex.describe(
      "E20: overlay primitives at 1k/10k/100k/1M nodes under churn",
      "Open-membership overlays pay for decentralization with multi-hop "
      "lookups, redundant dissemination and churn-induced timeouts, and the "
      "costs grow with N (paper SS II-III)",
      "Per N in {1k,10k,100k,1M (opt-in via max_n)}: 2000 Kademlia lookups "
      "and 10 gossip broadcasts while peers churn (Weibull sessions, exp "
      "downtime); reports hops/latency/coverage plus events/sec and peak "
      "RSS");

  const std::uint64_t max_n = ex.cli_param_u64("max_n");
  const std::size_t lookups =
      static_cast<std::size_t>(ex.cli_param_u64("lookups"));
  const std::size_t rumors =
      static_cast<std::size_t>(ex.cli_param_u64("rumors"));
  const bool json_timings = ex.cli_param_u64("timings_in_json") != 0;
  const std::size_t shards = ex.sim_shards();
  const std::size_t threads = ex.sim_threads();

  // The 1M point is opt-in (max_n=1000000): it needs ~3 GB and minutes of
  // wall-clock, which would dominate every default run of the sweep.
  std::vector<std::size_t> sizes;
  for (const std::size_t n : {1000u, 10000u, 100000u, 1000000u}) {
    if (n <= max_n) sizes.push_back(n);
  }
  if (sizes.empty()) sizes.push_back(static_cast<std::size_t>(max_n));

  ex.set_param("max_n", max_n);
  ex.set_param("lookups", static_cast<std::uint64_t>(lookups));
  ex.set_param("rumors", static_cast<std::uint64_t>(rumors));
  if (shards > 1) {
    // Results depend on the decomposition, so it is a recorded parameter.
    // --sim-threads deliberately is not: artifacts are byte-identical at
    // any thread count.
    ex.set_param("sim_shards", static_cast<std::uint64_t>(shards));
    ex.set_param("min_lat_ms", static_cast<std::uint64_t>(
                                   sim::to_millis(kShardedMinLatency)));
  }

  ex.run_points(sizes.size() * 2, [&](sim::PointScope& scope) {
    const std::size_t n = sizes[scope.index() / 2];
    if (scope.index() % 2 == 0) {
      run_kademlia_point(n, lookups, json_timings, shards, threads, scope);
    } else {
      run_gossip_point(n, rumors, json_timings, shards, threads, scope);
    }
  });

  std::printf(
      "\nScale path: one Shared<T> allocation per rumor/request regardless "
      "of fan-out;\nSoA peer arrays + dense node indices + sparse routing "
      "tables keep the untraced\n1M point under 4 GB.\n");
  return ex.finish();
}
