// Network substrate tests: message delivery and latency, loss, partitions,
// bandwidth serialization, churn processes, topology generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/churn.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/trace.hpp"

namespace dn = decentnet::net;
namespace ds = decentnet::sim;

namespace {

struct Probe : dn::Host {
  std::vector<ds::SimTime> arrivals;
  std::vector<int> values;
  ds::Simulator* sim = nullptr;
  void handle_message(const dn::Message& msg) override {
    arrivals.push_back(sim->now());
    values.push_back(dn::payload_as<int>(msg));
  }
};

/// Captures (kind, tag) pairs so tests can pin the exact drop reasons.
struct RecordingSink final : ds::TraceSink {
  std::vector<std::pair<std::string, std::string>> recs;
  void record(const ds::TraceRecord& r) override {
    recs.emplace_back(r.kind, r.tag);
  }
  std::size_t count(const std::string& kind, const std::string& tag) const {
    std::size_t c = 0;
    for (const auto& [k, t] : recs) {
      if (k == kind && t == tag) ++c;
    }
    return c;
  }
};

}  // namespace

TEST(Network, DeliversAfterConstantLatency) {
  ds::Simulator sim;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(25)));
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  net.send(ida, idb, 42, 100);
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0], ds::millis(25));
  EXPECT_EQ(b.values[0], 42);
}

TEST(Network, DropsToOfflineNodes) {
  ds::Simulator sim;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)));
  Probe a;
  a.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.send(ida, idb, 1, 10);  // b never attached
  sim.run_all();
  EXPECT_EQ(net.metrics().counter("net/dropped_offline").value(), 1u);
}

TEST(Network, AttachAfterSendBeforeArrivalIsDelivered) {
  // Unsharded sends intern the receiver, so the in-flight delivery holds
  // its host slot: a node attached after the send but before arrival gets
  // the message.
  ds::Simulator sim;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(10)));
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.send(ida, idb, 7, 10);  // b is not attached (nor registered) yet
  sim.post(ds::millis(5), [&] { net.attach(idb, &b); });
  sim.run_all();
  ASSERT_EQ(b.values.size(), 1u);
  EXPECT_EQ(b.values[0], 7);
  EXPECT_EQ(b.arrivals[0], ds::millis(10));
  EXPECT_EQ(net.metrics().counter("net/dropped_offline").value(), 0u);
}

TEST(Network, DetachStopsDelivery) {
  ds::Simulator sim;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(10)));
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  net.send(ida, idb, 1, 10);
  net.detach(idb);  // detached before delivery
  sim.run_all();
  EXPECT_TRUE(b.values.empty());
}

TEST(Network, UniformLossDropsRoughlyHalf) {
  ds::Simulator sim;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)));
  net.set_drop_probability(0.5);
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  for (int i = 0; i < 2000; ++i) net.send(ida, idb, i, 10);
  sim.run_all();
  EXPECT_NEAR(static_cast<double>(b.values.size()), 1000.0, 100.0);
}

TEST(Network, PartitionBlocksCrossTraffic) {
  ds::Simulator sim;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)));
  Probe a, b, c;
  a.sim = b.sim = c.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  const auto idc = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  net.attach(idc, &c);
  net.add_partition("ab", {{ida.value, idb.value}});  // c: the other side
  net.send(ida, idb, 1, 10);  // same side: delivered
  net.send(ida, idc, 2, 10);  // cross: dropped
  sim.run_all();
  EXPECT_EQ(b.values.size(), 1u);
  EXPECT_TRUE(c.values.empty());
  net.clear_partition();
  net.send(ida, idc, 3, 10);
  sim.run_all();
  EXPECT_EQ(c.values.size(), 1u);
}

TEST(Network, OverlappingNamedPartitionsComposeAsIntersection) {
  ds::Simulator sim;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)));
  Probe a, b, c, d;
  a.sim = b.sim = c.sim = d.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  const auto idc = net.new_node_id();
  const auto idd = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  net.attach(idc, &c);
  net.attach(idd, &d);

  // P1: {a,b} | {c,d}.
  net.add_partition("p1", {{ida.value, idb.value}, {idc.value, idd.value}});
  EXPECT_TRUE(net.partition_active("p1"));
  EXPECT_EQ(net.partition_count(), 1u);
  net.send(ida, idb, 1, 10);  // same P1 group: delivered
  net.send(ida, idc, 2, 10);  // crosses P1: dropped
  sim.run_all();
  EXPECT_EQ(b.values.size(), 1u);
  EXPECT_TRUE(c.values.empty());

  // P2 overlaps P1: {a,c} | {b,d}. A message must now stay within one group
  // of EVERY active partition, so a can reach nobody: a-b crosses P2 and
  // a-c crosses P1.
  net.add_partition("p2", {{ida.value, idc.value}, {idb.value, idd.value}});
  EXPECT_EQ(net.partition_count(), 2u);
  net.send(ida, idb, 3, 10);  // allowed by P1, crosses P2: dropped
  net.send(ida, idc, 4, 10);  // allowed by P2, crosses P1: dropped
  sim.run_all();
  EXPECT_EQ(b.values.size(), 1u);
  EXPECT_TRUE(c.values.empty());

  // Heal P1 only: a-c (same P2 group) flows again, a-b still crosses P2.
  net.remove_partition("p1");
  EXPECT_FALSE(net.partition_active("p1"));
  net.send(ida, idc, 5, 10);
  net.send(ida, idb, 6, 10);
  sim.run_all();
  ASSERT_EQ(c.values.size(), 1u);
  EXPECT_EQ(c.values[0], 5);
  EXPECT_EQ(b.values.size(), 1u);

  // Heal P2: everything flows.
  net.remove_partition("p2");
  EXPECT_EQ(net.partition_count(), 0u);
  net.send(ida, idb, 7, 10);
  sim.run_all();
  ASSERT_EQ(b.values.size(), 2u);
  EXPECT_EQ(b.values[1], 7);
}

TEST(Network, UnlistedNodesShareTheImplicitRestGroup) {
  ds::Simulator sim;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)));
  Probe a, b, c;
  a.sim = b.sim = c.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  const auto idc = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  net.attach(idc, &c);
  // Only a is named; b and c fall into the implicit rest group together.
  net.add_partition("isolate-a", {{ida.value}});
  net.send(idb, idc, 1, 10);  // rest <-> rest: delivered
  net.send(ida, idb, 2, 10);  // named <-> rest: dropped
  net.send(idb, ida, 3, 10);  // symmetric
  sim.run_all();
  EXPECT_EQ(c.values.size(), 1u);
  EXPECT_TRUE(a.values.empty());
  EXPECT_TRUE(b.values.empty());
  EXPECT_EQ(net.metrics().counter("net/dropped_partition").value(), 2u);
}

TEST(Network, DropCountersAndTraceTagsMatchExactly) {
  ds::Simulator sim;
  RecordingSink sink;
  sim.set_trace(&sink);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)));
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  const auto idc = net.new_node_id();  // never attached: offline
  net.attach(ida, &a);
  net.attach(idb, &b);

  net.add_partition("split", {{ida.value}});
  net.send(ida, idb, 1, 10);
  net.send(ida, idb, 2, 10);
  net.remove_partition("split");

  net.set_unreachable(idb, true);
  net.send(ida, idb, 3, 10);
  net.set_unreachable(idb, false);

  net.set_drop_probability(1.0);
  net.send(ida, idb, 4, 10);
  net.set_drop_probability(0.0);

  net.send(ida, idc, 5, 10);  // offline

  net.send(ida, idb, 6, 10);  // finally: one clean delivery
  sim.run_all();

  EXPECT_EQ(net.metrics().counter("net/dropped_partition").value(), 2u);
  EXPECT_EQ(net.metrics().counter("net/dropped_unreachable").value(), 1u);
  EXPECT_EQ(net.metrics().counter("net/dropped_loss").value(), 1u);
  EXPECT_EQ(net.metrics().counter("net/dropped_offline").value(), 1u);
  EXPECT_EQ(sink.count("drop", "partition"), 2u);
  EXPECT_EQ(sink.count("drop", "unreachable"), 1u);
  EXPECT_EQ(sink.count("drop", "loss"), 1u);
  EXPECT_EQ(sink.count("drop", "offline"), 1u);
  ASSERT_EQ(b.values.size(), 1u);
  EXPECT_EQ(b.values[0], 6);
}

TEST(Network, DuplicateWindowRedeliversAndCounts) {
  ds::Simulator sim;
  RecordingSink sink;
  sim.set_trace(&sink);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)));
  net.set_duplicate_probability(1.0);  // every message arrives twice
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  for (int i = 0; i < 10; ++i) net.send(ida, idb, i, 10);
  sim.run_all();
  EXPECT_EQ(b.values.size(), 20u);
  EXPECT_EQ(net.metrics().counter("net/duplicated").value(), 10u);
  EXPECT_EQ(sink.count("dup", ""), 10u);
  net.set_duplicate_probability(0.0);
  net.send(ida, idb, 99, 10);
  sim.run_all();
  EXPECT_EQ(b.values.size(), 21u);
}

TEST(Network, ReorderJitterBreaksFifoDelivery) {
  ds::Simulator sim(7);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)));
  net.set_reorder_jitter(ds::millis(50));
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  for (int i = 0; i < 50; ++i) net.send(ida, idb, i, 10);
  sim.run_all();
  ASSERT_EQ(b.values.size(), 50u);
  EXPECT_FALSE(std::is_sorted(b.values.begin(), b.values.end()));
  EXPECT_GT(net.metrics().counter("net/reordered").value(), 0u);
}

TEST(Network, BandwidthSerializesLargeMessages) {
  ds::Simulator sim;
  dn::NetworkConfig cfg;
  cfg.transport.mode = dn::TransportMode::Bandwidth;
  cfg.transport.link.up_bps = 1e6;    // 1 MB/s
  cfg.transport.link.down_bps = 1e9;  // negligible
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                  cfg);
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  // 1 MB at 1 MB/s = 1 s serialization + 10 ms propagation.
  net.send(ida, idb, 0, 1'000'000);
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_NEAR(ds::to_seconds(b.arrivals[0]), 1.01, 0.01);
}

TEST(Network, SenderQueueIsFifo) {
  ds::Simulator sim;
  dn::NetworkConfig cfg;
  cfg.transport.mode = dn::TransportMode::Bandwidth;
  cfg.transport.link.up_bps = 1e6;
  cfg.transport.link.down_bps = 1e9;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)),
                  cfg);
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  net.send(ida, idb, 1, 500'000);  // 0.5 s
  net.send(ida, idb, 2, 500'000);  // queued behind: arrives ~1 s
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_NEAR(ds::to_seconds(b.arrivals[1] - b.arrivals[0]), 0.5, 0.05);
}

TEST(GeoLatency, IntraRegionIsFasterThanInterRegion) {
  ds::Simulator sim;
  auto geo = std::make_unique<dn::GeoLatency>(0.0);  // no jitter
  dn::GeoLatency* geo_ptr = geo.get();
  dn::Network net(sim, std::move(geo));
  const auto a = net.new_node_id();
  const auto b = net.new_node_id();
  const auto c = net.new_node_id();
  geo_ptr->assign(a, 0);
  geo_ptr->assign(b, 0);
  geo_ptr->assign(c, 2);
  ds::Rng rng(1);
  EXPECT_LT(geo_ptr->sample(a, b, rng), geo_ptr->sample(a, c, rng));
}

TEST(ChurnDriver, AlternatesOnlineOffline) {
  ds::Simulator sim;
  int ons = 0, offs = 0;
  dn::ChurnConfig cfg;
  cfg.session = dn::DurationDist::constant(100);
  cfg.downtime = dn::DurationDist::constant(100);
  cfg.initially_online = 1.0;
  dn::ChurnDriver churn(
      sim, 10, cfg, [&](std::size_t) { ++ons; }, [&](std::size_t) { ++offs; });
  churn.start();
  EXPECT_EQ(ons, 10);
  EXPECT_EQ(churn.online_count(), 10u);
  sim.run_until(ds::seconds(150));
  EXPECT_EQ(offs, 10);  // all went offline at t=100
  EXPECT_EQ(churn.online_count(), 0u);
  sim.run_until(ds::seconds(250));
  EXPECT_EQ(ons, 20);  // and back online at t=200
}

TEST(ChurnDriver, StopCancelsPendingTransitions) {
  ds::Simulator sim;
  int ons = 0, offs = 0;
  dn::ChurnConfig cfg;
  cfg.session = dn::DurationDist::constant(100);
  cfg.downtime = dn::DurationDist::constant(100);
  cfg.initially_online = 1.0;
  dn::ChurnDriver churn(
      sim, 8, cfg, [&](std::size_t) { ++ons; }, [&](std::size_t) { ++offs; });
  churn.start();
  sim.run_until(ds::seconds(50));
  churn.stop();
  EXPECT_TRUE(churn.stopped());
  // The t=100 transitions were scheduled but must not fire: stop() cancels
  // them rather than letting them no-op, so the queue drains completely.
  sim.run_all();
  EXPECT_EQ(offs, 0);
  EXPECT_EQ(churn.online_count(), 8u);
  EXPECT_EQ(ons, 8);  // only the initial onlining
}

TEST(ChurnDriver, RestartResumesFromCurrentStates) {
  ds::Simulator sim;
  int ons = 0, offs = 0;
  dn::ChurnConfig cfg;
  cfg.session = dn::DurationDist::constant(100);
  cfg.downtime = dn::DurationDist::constant(100);
  cfg.initially_online = 1.0;
  dn::ChurnDriver churn(
      sim, 8, cfg, [&](std::size_t) { ++ons; }, [&](std::size_t) { ++offs; });
  churn.start();
  sim.run_until(ds::seconds(150));  // everyone went offline at t=100
  EXPECT_EQ(offs, 8);
  churn.stop();
  sim.run_until(ds::seconds(400));  // frozen: no transitions while stopped
  EXPECT_EQ(ons, 8);
  churn.restart();
  EXPECT_FALSE(churn.stopped());
  // Fresh downtime draws start from the restart instant: back at t=500.
  sim.run_until(ds::seconds(550));
  EXPECT_EQ(ons, 16);
  EXPECT_EQ(churn.online_count(), 8u);
}

TEST(ChurnDriver, InitiallyOfflineFractionRespected) {
  ds::Simulator sim;
  dn::ChurnConfig cfg;
  cfg.initially_online = 0.0;
  int ons = 0;
  dn::ChurnDriver churn(
      sim, 50, cfg, [&](std::size_t) { ++ons; }, [](std::size_t) {});
  churn.start();
  EXPECT_EQ(ons, 0);
  EXPECT_EQ(churn.online_count(), 0u);
}

namespace {

double sample_mean_s(const dn::DurationDist& dist, int n, std::uint64_t seed) {
  ds::Rng rng(seed);
  double total = 0;
  for (int i = 0; i < n; ++i) total += ds::to_seconds(dist.sample(rng));
  return total / n;
}

std::vector<double> sample_sorted_s(const dn::DurationDist& dist, int n,
                                    std::uint64_t seed) {
  ds::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(ds::to_seconds(dist.sample(rng)));
  std::sort(xs.begin(), xs.end());
  return xs;
}

}  // namespace

TEST(DurationDist, SampleMeansMatchAnalyticValues) {
  const int kN = 40000;
  // Constant(10): mean 10, exactly.
  EXPECT_DOUBLE_EQ(sample_mean_s(dn::DurationDist::constant(10), 100, 1), 10);
  // Exponential(mean 10): mean 10.
  EXPECT_NEAR(sample_mean_s(dn::DurationDist::exponential_mean(10), kN, 2),
              10.0, 0.5);
  // Pareto(x_m=2, alpha=3): mean = alpha*x_m/(alpha-1) = 3.
  EXPECT_NEAR(sample_mean_s(dn::DurationDist::pareto(2, 3), kN, 3), 3.0, 0.15);
  // Weibull(scale=10, shape=2): mean = scale * Gamma(1 + 1/2) ~ 8.862.
  EXPECT_NEAR(sample_mean_s(dn::DurationDist::weibull(10, 2), kN, 4), 8.862,
              0.4);
  // LogNormal(median=10, sigma=0.5): mean = median * exp(sigma^2/2) ~ 11.33.
  EXPECT_NEAR(sample_mean_s(dn::DurationDist::lognormal(10, 0.5), kN, 5),
              11.33, 0.6);
}

TEST(DurationDist, ParetoAndWeibullAreHeavyTailed) {
  const int kN = 40000;
  auto tail_ratio = [&](const dn::DurationDist& dist, std::uint64_t seed) {
    const auto xs = sample_sorted_s(dist, kN, seed);
    return xs[kN * 99 / 100] / xs[kN / 2];  // p99 / p50
  };
  // Analytic p99/p50: exponential ~6.64; Pareto(alpha=1.5) ~13.6;
  // Weibull(shape=0.5) ~44. The heavy tails should be far above the
  // light-tailed exponential baseline.
  const double expo = tail_ratio(dn::DurationDist::exponential_mean(10), 11);
  const double pareto = tail_ratio(dn::DurationDist::pareto(2, 1.5), 12);
  const double weibull = tail_ratio(dn::DurationDist::weibull(10, 0.5), 13);
  EXPECT_LT(expo, 8.0);
  EXPECT_GT(pareto, 10.0);
  EXPECT_GT(weibull, 25.0);
  EXPECT_GT(pareto, expo * 1.5);
  EXPECT_GT(weibull, expo * 3.0);
}

TEST(DurationDist, SameSeedYieldsIdenticalSequences) {
  for (const auto& dist :
       {dn::DurationDist::constant(10), dn::DurationDist::exponential_mean(10),
        dn::DurationDist::pareto(2, 1.5), dn::DurationDist::weibull(10, 0.6),
        dn::DurationDist::lognormal(10, 1.0)}) {
    ds::Rng r1(99), r2(99);
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(dist.sample(r1), dist.sample(r2));
    }
  }
}

TEST(DurationDist, SamplesArePositive) {
  ds::Rng rng(3);
  for (const auto& dist :
       {dn::DurationDist::constant(10), dn::DurationDist::exponential_mean(10),
        dn::DurationDist::pareto(2, 1.5), dn::DurationDist::weibull(10, 0.6),
        dn::DurationDist::lognormal(10, 1.0)}) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_GT(dist.sample(rng), 0);
    }
  }
}

// --- Topologies -------------------------------------------------------------

TEST(Topology, RandomGraphIsConnectedAtModestDegree) {
  ds::Rng rng(5);
  const auto adj = dn::random_graph(500, 6, rng);
  EXPECT_TRUE(dn::is_connected(adj));
  for (const auto& nbrs : adj) EXPECT_GE(nbrs.size(), 6u);
}

TEST(Topology, ErdosRenyiEdgeCountMatchesP) {
  ds::Rng rng(6);
  const auto adj = dn::erdos_renyi(200, 0.1, rng);
  std::size_t edges = 0;
  for (const auto& nbrs : adj) edges += nbrs.size();
  edges /= 2;
  const double expected = 0.1 * 200 * 199 / 2;
  EXPECT_NEAR(static_cast<double>(edges), expected, expected * 0.15);
}

TEST(Topology, WattsStrogatzKeepsDegreeSum) {
  ds::Rng rng(7);
  const auto adj = dn::watts_strogatz(100, 3, 0.2, rng);
  std::size_t edges = 0;
  for (const auto& nbrs : adj) edges += nbrs.size();
  EXPECT_EQ(edges / 2, 300u);  // n*k edges total
}

TEST(Topology, SmallWorldShortensPaths) {
  ds::Rng rng(8);
  const auto ring = dn::watts_strogatz(200, 2, 0.0, rng);
  const auto small_world = dn::watts_strogatz(200, 2, 0.3, rng);
  const double ring_path = dn::mean_path_length(ring, 200, rng);
  const double sw_path = dn::mean_path_length(small_world, 200, rng);
  EXPECT_LT(sw_path, ring_path * 0.6);
}

TEST(Topology, BarabasiAlbertIsSkewed) {
  ds::Rng rng(9);
  const auto adj = dn::barabasi_albert(500, 2, rng);
  EXPECT_TRUE(dn::is_connected(adj));
  std::size_t max_degree = 0;
  std::size_t total = 0;
  for (const auto& nbrs : adj) {
    max_degree = std::max(max_degree, nbrs.size());
    total += nbrs.size();
  }
  const double mean_degree = static_cast<double>(total) / 500.0;
  // Hubs: the max degree should far exceed the mean.
  EXPECT_GT(static_cast<double>(max_degree), mean_degree * 5);
}

TEST(Topology, SingleNodeGraphIsConnected) {
  ds::Rng rng(10);
  EXPECT_TRUE(dn::is_connected(dn::random_graph(1, 3, rng)));
  EXPECT_TRUE(dn::is_connected(dn::AdjacencyList{}));
}
