// E16 — Epidemic dissemination (§II, §IV).
// "Peer-to-peer research sprouted with very interesting contributions, e.g.
// gossip based protocols for scalable group communication" — the same
// primitive that floods blocks in Bitcoin and disseminates state in Fabric.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "net/network.hpp"
#include "overlay/gossip.hpp"
#include "sim/metrics.hpp"
#include "sim/sharding.hpp"
#include "sim/telemetry.hpp"

using namespace decentnet;

namespace {

struct Row {
  double coverage;
  double mean_hops;
  double duplicates_per_node;
  double bytes_per_node;
  std::uint64_t t90_us;  // time to 90% of reached nodes, from broadcast
  std::uint64_t events;  // kernel events fired, for the events/sec cell
};

/// Latency floor with S > 1 shards: the kernel's lookahead window (clamps
/// well under 0.1% of the 60 ms-median lognormal draws).
constexpr sim::SimDuration kShardedMinLatency = sim::millis(10);

/// One point on a sim::ShardedKernel of --sim-shards S shards (a 1-shard
/// kernel is the plain kernel). The broadcast is posted as an event
/// on the origin's shard at exactly t=3min (the driver thread cannot inject
/// mid-window), and per-delivery samples land in per-shard buffers merged in
/// shard order, so the artifact is byte-identical at any --sim-threads.
Row run(std::size_t n, std::size_t fanout, std::uint64_t seed,
        sim::ExperimentHarness& ex) {
  const std::size_t shards = ex.sim_shards();
  const std::size_t threads = ex.sim_threads();
  sim::ShardedKernel kernel(seed, shards);
  ex.instrument(kernel);
  net::Network netw(
      kernel.shard(0),
      shards > 1 ? std::make_unique<net::LogNormalLatency>(
                       sim::millis(60), 0.4, kShardedMinLatency)
                 : std::make_unique<net::LogNormalLatency>(sim::millis(60),
                                                           0.4),
      net::NetworkConfig{.expected_nodes = n, .track_spans = true},
      &ex.metrics());
  netw.enable_sharding(kernel);
  overlay::GossipConfig cfg;
  cfg.fanout = fanout;
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(netw.new_node_id());
  for (std::size_t i = 0; i < n; ++i) netw.register_node(addrs[i]);
  // (hop count, delivery time) per receiving shard — single writer each.
  // Declared before the nodes so the hooks never outlive their buffer.
  struct Delivery {
    std::size_t hops;
    sim::SimTime at;
  };
  std::vector<std::vector<Delivery>> deliv(shards);
  std::vector<std::unique_ptr<overlay::GossipNode>> nodes;
  sim::Rng rng(seed ^ 0xF0);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::GossipNode>(netw, addrs[i], cfg));
    std::vector<net::NodeId> view;
    for (std::size_t k = 0; k < cfg.view_size / 2; ++k) {
      view.push_back(addrs[rng.uniform_int(n)]);
    }
    nodes.back()->join(view);
    auto* const mine = &deliv[kernel.shard_of(addrs[i].value)];
    sim::Simulator* nsim = &netw.simulator_for(addrs[i]);
    nodes.back()->set_deliver_hook(
        [mine, nsim](overlay::RumorId, std::size_t h) {
          mine->push_back({h, nsim->now()});
        });
  }
  // --telemetry: network rates plus per-shard coverage gauges (nodes the
  // rumor has reached). Registered after instrument() (attach resets them).
  if (sim::Telemetry* const tel = ex.telemetry()) {
    netw.register_telemetry(*tel);
    for (std::size_t sh = 0; sh < shards; ++sh) {
      const std::vector<Delivery>* const cov = &deliv[sh];
      tel->add_gauge("e16/covered", static_cast<std::uint32_t>(sh),
                     [cov](sim::SimTime) {
                       return static_cast<double>(cov->size());
                     });
    }
  }
  kernel.run_until(sim::minutes(3), threads);  // let peer sampling mix views
  const auto bytes_before = netw.bytes_sent();
  const sim::SimTime t0 = sim::minutes(3);
  netw.simulator_for(addrs[0])
      .post_at(t0, [&] { nodes[0]->broadcast(/*rumor=*/1, /*payload=*/512); });
  kernel.run_until(t0 + sim::minutes(2), threads);
  kernel.merge_metrics_into(ex.metrics());

  sim::Histogram hops;
  std::vector<sim::SimTime> cover_times;
  for (std::size_t sh = 0; sh < shards; ++sh) {
    for (const Delivery& d : deliv[sh]) {
      hops.record(static_cast<double>(d.hops));
      cover_times.push_back(d.at);
    }
  }
  Row row;
  std::size_t reached = 0;
  std::uint64_t dups = 0;
  for (const auto& node : nodes) {
    if (node->has_seen(1)) ++reached;
    dups += node->duplicates_received();
  }
  row.coverage = static_cast<double>(reached) / static_cast<double>(n);
  row.mean_hops = hops.mean();
  row.duplicates_per_node =
      static_cast<double>(dups) / static_cast<double>(n);
  row.bytes_per_node = static_cast<double>(netw.bytes_sent() - bytes_before) /
                       static_cast<double>(n);
  // Time to 90% coverage of the nodes actually reached, measured from the
  // broadcast instant. decentnet-trace derives the same number from the
  // rumor's span tree, so for a given seed the two must agree exactly.
  row.t90_us = 0;
  if (!cover_times.empty()) {
    std::sort(cover_times.begin(), cover_times.end());
    const std::size_t pop = cover_times.size();
    const std::size_t k = (pop * 9 + 9) / 10;  // ceil(0.9 * pop)
    row.t90_us = static_cast<std::uint64_t>(cover_times[k - 1] - t0);
  }
  ex.metrics().histogram("overlay/gossip_t90_us")
      .record(static_cast<double>(row.t90_us));
  row.events = kernel.total_events_processed();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E16_gossip", argc, argv, {.seed = 21, .shard_aware = true});
  ex.describe(
      "E16: epidemic broadcast coverage vs fanout and size",
      "push gossip reaches (almost) everyone in O(log n) hops once fanout "
      "clears the epidemic threshold; below it, a rumor spreads slowly "
      "(t90 falls steeply as fanout grows) — redundancy is the price of "
      "probabilistic reliability",
      "Cyclon peer sampling + infect-and-die push; every Cyclon shuffle "
      "also carries up to 32 recent rumors (anti-entropy), so rumors never "
      "die out and the threshold shows in t90, not coverage; sweep fanout "
      "at n=500 and network size at fanout=4");

  const std::size_t shards = ex.sim_shards();
  if (shards > 1) ex.set_param("sim_shards", std::uint64_t{shards});

  // The throughput triplet rides along as table-only timing cells (the
  // default append_timing_cells mode), so BENCH_E16_gossip.json stays
  // byte-identical across runs, --jobs and --sim-threads.
  for (const std::size_t fanout : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const bench::WallClock wall;
    const Row r = run(500, fanout, ex.seed(), ex);
    std::vector<std::pair<std::string, bench::Value>> row{
        {"sweep", "fanout"},
        {"n", std::uint64_t{500}},
        {"fanout", std::uint64_t{fanout}},
        {"coverage", bench::Value(r.coverage, 3)},
        {"mean_hops", bench::Value(r.mean_hops, 1)},
        {"dups_per_node", bench::Value(r.duplicates_per_node, 2)},
        {"bytes_per_node", bench::Value(r.bytes_per_node, 0)},
        {"t90_us", r.t90_us}};
    bench::append_timing_cells(row, wall, r.events);
    ex.add_row(std::move(row));
  }
  for (const std::size_t n : {100u, 300u, 1000u, 3000u}) {
    const bench::WallClock wall;
    const Row r = run(n, 4, ex.seed() + 1, ex);
    std::vector<std::pair<std::string, bench::Value>> row{
        {"sweep", "size"},
        {"n", std::uint64_t{n}},
        {"fanout", std::uint64_t{4}},
        {"coverage", bench::Value(r.coverage, 3)},
        {"mean_hops", bench::Value(r.mean_hops, 1)},
        {"dups_per_node", bench::Value(r.duplicates_per_node, 2)},
        {"t90_us", r.t90_us}};
    bench::append_timing_cells(row, wall, r.events);
    ex.add_row(std::move(row));
  }
  const int rc = ex.finish();
  std::printf(
      "\nHop counts grow logarithmically with n while coverage holds — the\n"
      "scalable-dissemination result that cloud systems (Dynamo, Cassandra)\n"
      "and every blockchain mesh inherited from P2P research.\n");
  return rc;
}
