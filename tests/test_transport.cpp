// Transport-layer tests: FIFO queue ordering under same-time sends, bounded
// queue overflow accounting, the TCP-like cwnd growth/halving trace,
// LinkSpec round-trips through FaultPlan::bandwidth_degrade, the
// TopologySpec factory, and the sharded bandwidth byte-identity contract.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/faults.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "overlay/gossip.hpp"
#include "sim/sharding.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace dn = decentnet::net;
namespace ds = decentnet::sim;
namespace ov = decentnet::overlay;

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

/// Collects whole records so tests can assert queue_us and drop reasons.
struct VecSink final : ds::TraceSink {
  std::vector<ds::TraceRecord> records;
  void record(const ds::TraceRecord& r) override { records.push_back(r); }
  std::size_t count(const std::string& kind, const std::string& tag) const {
    std::size_t c = 0;
    for (const auto& r : records) {
      if (kind == r.kind && tag == r.tag) ++c;
    }
    return c;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// FIFO serialization
// ---------------------------------------------------------------------------

TEST(Transport, QueueIsFifoForSameTimeSends) {
  ds::Simulator sim;
  dn::NetworkConfig cfg;
  cfg.transport.mode = dn::TransportMode::Bandwidth;
  cfg.transport.link.up_bps = 1e6;    // 1 MB/s
  cfg.transport.link.down_bps = 1e9;  // negligible
  cfg.track_spans = true;
  VecSink sink;
  sim.set_trace(&sink);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                  cfg);
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  // Three 100 KB messages posted at the same instant: each serializes for
  // 100 ms behind the previous one, and arrival order matches send order.
  sim.post_at(0, [&] {
    net.send(ida, idb, 1, 100'000);
    net.send(ida, idb, 2, 100'000);
    net.send(ida, idb, 3, 100'000);
  });
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(b.values, (std::vector<int>{1, 2, 3}));
  // 100 ms uplink serialization each + 10 ms propagation + 100 us downlink
  // serialization (100 KB at 1 GB/s).
  EXPECT_EQ(b.arrivals[0], ds::millis(110) + 100);
  EXPECT_EQ(b.arrivals[1], ds::millis(210) + 100);
  EXPECT_EQ(b.arrivals[2], ds::millis(310) + 100);

  // The span records carry each hop's queue wait: 0, 100ms, 200ms.
  std::vector<std::uint64_t> queue_us;
  for (const auto& r : sink.records) {
    if (std::string(r.kind) == "span") queue_us.push_back(r.queue_us);
  }
  ASSERT_EQ(queue_us.size(), 3u);
  EXPECT_EQ(queue_us[0], 0u);
  EXPECT_EQ(queue_us[1], static_cast<std::uint64_t>(ds::millis(100)));
  EXPECT_EQ(queue_us[2], static_cast<std::uint64_t>(ds::millis(200)));
}

TEST(Transport, DownlinkSerializationIsAdditive) {
  ds::Simulator sim;
  dn::NetworkConfig cfg;
  cfg.transport.mode = dn::TransportMode::Bandwidth;
  cfg.transport.link.up_bps = 1e9;  // negligible
  cfg.transport.link.down_bps = 1e6;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                  cfg);
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  // 1 MB through a 1 MB/s downlink: ~1 s receive serialization.
  net.send(ida, idb, 7, 1'000'000);
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_NEAR(ds::to_seconds(b.arrivals[0]), 1.011, 0.01);
}

// ---------------------------------------------------------------------------
// Bounded queue overflow
// ---------------------------------------------------------------------------

TEST(Transport, OverflowDropsAreCountedAndTraced) {
  ds::Simulator sim;
  dn::NetworkConfig cfg;
  cfg.transport.mode = dn::TransportMode::Bandwidth;
  cfg.transport.link.up_bps = 1e6;
  cfg.transport.link.down_bps = 1e9;
  cfg.transport.link.queue_bytes = 300'000;  // room for 3 committed msgs
  VecSink sink;
  sim.set_trace(&sink);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                  cfg);
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  // Six same-instant 100 KB sends. The bound covers committed bytes
  // including the incoming message: #1-#3 fill the 300 KB queue exactly,
  // #4-#6 overflow it while the first is still on the wire.
  sim.post_at(0, [&] {
    for (int i = 1; i <= 6; ++i) net.send(ida, idb, i, 100'000);
  });
  sim.run_all();
  EXPECT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(net.metrics().counter("net/queue_dropped").value(), 3u);
  EXPECT_EQ(sink.count("drop", "queue"), 3u);
}

// ---------------------------------------------------------------------------
// TCP-like flow model
// ---------------------------------------------------------------------------

TEST(Transport, TcpSlowStartGrowsAndLossHalvesCwnd) {
  ds::Simulator sim;
  dn::NetworkConfig cfg;
  cfg.transport.mode = dn::TransportMode::Tcp;
  cfg.transport.link.up_bps = 125'000;  // 1 Mbit/s
  cfg.transport.link.down_bps = 1e9;
  cfg.transport.link.queue_bytes = 60'000;
  cfg.transport.mss_bytes = 1460;
  cfg.transport.initial_cwnd_mss = 10;
  cfg.transport.rtt = ds::millis(100);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                  cfg);
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  const std::uint32_t idx = net.node_index(ida);

  // Golden cwnd trace through slow start: cwnd starts at 10 * 1460 = 14600
  // and each admitted burst adds its own size.
  std::vector<double> cwnd_after;
  for (int i = 0; i < 4; ++i) {
    net.send(ida, idb, i, 10'000);
    cwnd_after.push_back(net.transport().cwnd_bytes(idx));
  }
  EXPECT_DOUBLE_EQ(cwnd_after[0], 24'600.0);
  EXPECT_DOUBLE_EQ(cwnd_after[1], 34'600.0);
  EXPECT_DOUBLE_EQ(cwnd_after[2], 44'600.0);
  EXPECT_DOUBLE_EQ(cwnd_after[3], 54'600.0);

  // Flood until the bounded queue overflows: the loss reaction halves the
  // window (floor 2 MSS) and moves ssthresh down with it.
  const double before_loss = net.transport().cwnd_bytes(idx);
  for (int i = 0; i < 12; ++i) net.send(ida, idb, 100 + i, 10'000);
  ASSERT_GT(net.metrics().counter("net/queue_dropped").value(), 0u);
  const double after_loss_thresh = net.transport().ssthresh_bytes(idx);
  EXPECT_LT(after_loss_thresh, before_loss + 120'001);  // came down from +inf
  EXPECT_GE(after_loss_thresh, 2.0 * 1460);

  // Post-loss sends grow additively (congestion avoidance): cwnd ends at
  // most one MSS per send above ssthresh-at-loss, far below doubling.
  sim.run_all();
  const double cwnd_end = net.transport().cwnd_bytes(idx);
  EXPECT_GE(cwnd_end, net.transport().ssthresh_bytes(idx));
}

TEST(Transport, TcpCwndLimitsEffectiveRate) {
  ds::Simulator sim;
  dn::NetworkConfig cfg;
  cfg.transport.mode = dn::TransportMode::Tcp;
  cfg.transport.link.up_bps = 1e9;    // link is not the bottleneck
  cfg.transport.link.down_bps = 1e9;
  cfg.transport.mss_bytes = 1460;
  cfg.transport.initial_cwnd_mss = 10;
  cfg.transport.rtt = ds::millis(100);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                  cfg);
  Probe a, b;
  a.sim = b.sim = &sim;
  const auto ida = net.new_node_id();
  const auto idb = net.new_node_id();
  net.attach(ida, &a);
  net.attach(idb, &b);
  // First send: cwnd = 14600 bytes over a 100 ms RTT = 146 KB/s effective.
  // 146 KB then serializes for ~1 s regardless of the 1 GB/s link.
  net.send(ida, idb, 1, 146'000);
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_NEAR(ds::to_seconds(b.arrivals[0]), 1.01, 0.02);
}

// ---------------------------------------------------------------------------
// LinkSpec round-trip through fault injection
// ---------------------------------------------------------------------------

TEST(Transport, LinkSpecRoundTripsThroughBandwidthDegrade) {
  ds::Simulator sim;
  dn::NetworkConfig cfg;
  cfg.transport.mode = dn::TransportMode::Bandwidth;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)),
                  cfg);
  const auto ida = net.new_node_id();
  Probe a;
  net.attach(ida, &a);
  // Custom spec with a bounded queue: the degrade scales capacities only
  // and heal must restore the spec verbatim, queue depth included.
  const dn::LinkSpec custom{2e6 / 8, 16e6 / 8, 64 * 1024};
  net.set_link(ida, custom);

  dn::FaultPlan plan;
  plan.bandwidth_degrade(ds::seconds(1), 0, 0.25, ds::seconds(2));
  dn::FaultTargets targets;
  targets.nodes = {ida};
  dn::FaultScheduler faults(net, plan, std::move(targets));
  faults.start();

  sim.run_until(ds::millis(1500));
  EXPECT_DOUBLE_EQ(net.link(ida).up_bps, custom.up_bps * 0.25);
  EXPECT_DOUBLE_EQ(net.link(ida).down_bps, custom.down_bps * 0.25);
  EXPECT_EQ(net.link(ida).queue_bytes, custom.queue_bytes);
  sim.run_until(ds::millis(2500));
  EXPECT_TRUE(net.link(ida) == custom);
}

// ---------------------------------------------------------------------------
// Sharded bandwidth byte-identity (the enable_sharding fix)
// ---------------------------------------------------------------------------

namespace {

/// A gossip mesh with Bandwidth transport over a sharded kernel; returns the
/// serialized trace. Identical across thread counts — the regression test
/// for enable_sharding's old rejection of bandwidth-modeled networks.
std::string bandwidth_workload_trace(std::size_t shards, std::size_t threads,
                                     dn::TransportMode mode) {
  std::ostringstream out;
  {
    ds::JsonlTraceSink sink(out);
    ds::ShardedKernel kernel(/*seed=*/11, shards);
    kernel.set_trace(&sink);
    const std::size_t n = 24;
    dn::NetworkConfig cfg;
    cfg.transport.mode = mode;
    cfg.transport.link.up_bps = 1e6;
    cfg.transport.link.down_bps = 8e6;
    cfg.expected_nodes = n;
    cfg.track_spans = true;
    dn::Network netw(kernel.shard(0),
                     std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                     cfg, nullptr);
    netw.enable_sharding(kernel);

    std::vector<dn::NodeId> addrs(n);
    for (std::size_t i = 0; i < n; ++i) addrs[i] = netw.new_node_id();
    for (std::size_t i = 0; i < n; ++i) netw.register_node(addrs[i]);
    ov::GossipConfig gcfg;
    gcfg.fanout = 3;
    std::vector<std::unique_ptr<ov::GossipNode>> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<ov::GossipNode>(netw, addrs[i], gcfg));
      std::vector<dn::NodeId> view;
      for (std::size_t d = 1; d <= 4; ++d) view.push_back(addrs[(i + d) % n]);
      nodes.back()->join(view);
    }
    netw.simulator_for(addrs[0]).post(ds::millis(1), [&] {
      nodes[0]->broadcast(/*rumor=*/1, /*payload_bytes=*/20'000);
    });
    kernel.run_until(ds::seconds(30), threads);
  }
  return out.str();
}

}  // namespace

TEST(Transport, ShardedBandwidthRunsAreByteIdenticalAcrossThreads) {
  const std::string t1 =
      bandwidth_workload_trace(4, 1, dn::TransportMode::Bandwidth);
  const std::string t2 =
      bandwidth_workload_trace(4, 2, dn::TransportMode::Bandwidth);
  const std::string t4 =
      bandwidth_workload_trace(4, 4, dn::TransportMode::Bandwidth);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
  // Bandwidth runs actually queue: at least one span must report a nonzero
  // queue_us (the 20 KB payloads serialize for 20 ms each at 1 MB/s).
  EXPECT_NE(t1.find("\"queue_us\":"), std::string::npos);
}

TEST(Transport, ShardedTcpRunsAreByteIdenticalAcrossThreads) {
  const std::string t1 = bandwidth_workload_trace(4, 1, dn::TransportMode::Tcp);
  const std::string t4 = bandwidth_workload_trace(4, 4, dn::TransportMode::Tcp);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t4);
}

TEST(Transport, ShardedMatchesUnshardedSingleShard) {
  // shards=1 runs on the unsharded context 0; shards=4 on one context per
  // shard. Same seed, same message total is the cheap sanity check that
  // the decompositions share transport arithmetic (RNG streams and msg_seq
  // encoding differ, so compare totals, not bytes).
  const std::string a =
      bandwidth_workload_trace(1, 1, dn::TransportMode::Bandwidth);
  const std::string b =
      bandwidth_workload_trace(4, 1, dn::TransportMode::Bandwidth);
  const auto count = [](const std::string& s, const char* needle) {
    std::size_t c = 0, pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
      ++c;
      pos += 1;
    }
    return c;
  };
  EXPECT_EQ(count(a, "\"kind\":\"send\""), count(b, "\"kind\":\"send\""));
}

// ---------------------------------------------------------------------------
// TopologySpec factory
// ---------------------------------------------------------------------------

TEST(TopologySpec, ValidatesAndNamesTheOffendingField) {
  dn::TopologySpec spec;
  spec.nodes = 0;
  auto err = spec.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("nodes"), std::string::npos);

  spec = dn::TopologySpec{.nodes = 50, .degree = 0};
  err = spec.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("degree"), std::string::npos);

  spec = dn::TopologySpec{.kind = dn::TopologySpec::Kind::ErdosRenyi,
                          .nodes = 50,
                          .p = 1.5};
  err = spec.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("p must be"), std::string::npos);

  EXPECT_THROW(spec.build(/*seed=*/1), std::invalid_argument);
}

TEST(TopologySpec, BuildIsSeedDeterministicAndMatchesFreeFunctions) {
  const dn::TopologySpec spec{.kind = dn::TopologySpec::Kind::Random,
                              .nodes = 60,
                              .degree = 5};
  const dn::AdjacencyList g1 = spec.build(/*seed=*/123);
  const dn::AdjacencyList g2 = spec.build(/*seed=*/123);
  EXPECT_EQ(g1, g2);
  // The factory is a veneer over the free functions: same Rng state, same
  // graph.
  ds::Rng rng(123);
  EXPECT_EQ(g1, dn::random_graph(60, 5, rng));
  EXPECT_TRUE(dn::is_connected(g1));
}

TEST(TopologySpec, EveryKindBuildsAConnectedModestGraph) {
  const std::vector<dn::TopologySpec> specs = {
      {.kind = dn::TopologySpec::Kind::Random, .nodes = 80, .degree = 5},
      {.kind = dn::TopologySpec::Kind::ErdosRenyi, .nodes = 80, .p = 0.15},
      {.kind = dn::TopologySpec::Kind::WattsStrogatz,
       .nodes = 80,
       .degree = 3,
       .p = 0.1},
      {.kind = dn::TopologySpec::Kind::BarabasiAlbert, .nodes = 80,
       .degree = 3},
  };
  for (const auto& spec : specs) {
    EXPECT_FALSE(spec.validate().has_value()) << topology_kind_name(spec.kind);
    const dn::AdjacencyList g = spec.build(/*seed=*/7);
    EXPECT_EQ(g.size(), 80u);
    EXPECT_TRUE(dn::is_connected(g)) << dn::topology_kind_name(spec.kind);
  }
}

TEST(TopologySpec, KindNamesRoundTrip) {
  using Kind = dn::TopologySpec::Kind;
  for (const Kind k : {Kind::Random, Kind::ErdosRenyi, Kind::WattsStrogatz,
                       Kind::BarabasiAlbert}) {
    const auto parsed = dn::topology_kind_from_name(dn::topology_kind_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(dn::topology_kind_from_name("ring_of_fire").has_value());
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(Transport, ConfigValidateNamesTheOffendingField) {
  dn::TransportConfig cfg;
  cfg.link.down_bps = -1;
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("down_bps"), std::string::npos);

  cfg = dn::TransportConfig{};
  cfg.mode = dn::TransportMode::Tcp;
  cfg.rtt = 0;
  err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("rtt"), std::string::npos);

  cfg = dn::TransportConfig{};
  cfg.mode = dn::TransportMode::Tcp;
  cfg.initial_cwnd_mss = 0;
  err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("initial_cwnd_mss"), std::string::npos);

  EXPECT_FALSE(dn::TransportConfig{}.validate().has_value());
}

TEST(Transport, ModeNamesRoundTrip) {
  using Mode = dn::TransportMode;
  for (const Mode m : {Mode::Latency, Mode::Bandwidth, Mode::Tcp}) {
    const auto parsed = dn::transport_mode_from_name(dn::transport_mode_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(dn::transport_mode_from_name("carrier_pigeon").has_value());
}
