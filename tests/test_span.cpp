// Causal span tracing tests: hop allocation, depth bookkeeping and the span
// table's bound in the Network, propagation through relaying hosts, the
// off-by-default contract (golden traces stay byte-stable), same-seed
// span-trace determinism, and --jobs invariance of a span-instrumented sweep.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "overlay/gossip.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ds = decentnet::sim;
namespace dn = decentnet::net;
namespace ov = decentnet::overlay;

namespace {

struct Ping {};

/// Collects records in memory for structural assertions.
class VecSink final : public ds::TraceSink {
 public:
  struct Rec {
    ds::SimTime t;
    std::string kind;
    std::string tag;
    std::uint64_t id, a, b, bytes;
  };
  void record(const ds::TraceRecord& r) override {
    recs.push_back(
        {r.t, r.kind, r.tag ? r.tag : "", r.id, r.a, r.b, r.bytes});
  }
  std::size_t count(const std::string& kind) const {
    std::size_t n = 0;
    for (const auto& r : recs) {
      if (r.kind == kind) ++n;
    }
    return n;
  }
  std::vector<Rec> recs;
};

/// Relays every incoming message to `next` (if set), inheriting its span —
/// the pattern every protocol relay path follows.
struct Relay final : dn::Host {
  dn::Network* net = nullptr;
  dn::NodeId self, next;
  std::vector<dn::Span> seen;
  void handle_message(const dn::Message& msg) override {
    seen.push_back(msg.span);
    if (next != dn::NodeId{}) net->send(self, next, Ping{}, 10, 0, msg.span);
  }
};

}  // namespace

TEST(Span, OffByDefaultAndRootIsZero) {
  ds::Simulator sim(1);
  VecSink sink;
  sim.set_trace(&sink);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(5)),
                  {}, nullptr);
  EXPECT_FALSE(net.span_tracking());
  const dn::Span root = net.new_span_root();
  EXPECT_EQ(root.root, 0u);
  EXPECT_EQ(root.hop, 0u);

  Relay a;
  a.net = &net;
  a.self = net.new_node_id();
  net.attach(a.self, &a);
  net.send(a.self, a.self, Ping{}, 10);
  sim.run_all();
  EXPECT_EQ(sink.count("span"), 0u);
  ASSERT_EQ(a.seen.size(), 1u);
  EXPECT_EQ(a.seen[0].hop, 0u);
}

TEST(Span, HopsChainThroughRelaysWithIncreasingDepth) {
  ds::Simulator sim(7);
  VecSink sink;
  sim.set_trace(&sink);
  dn::NetworkConfig cfg;
  cfg.track_spans = true;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(5)),
                  cfg, nullptr);

  Relay a, b, c;
  for (Relay* r : {&a, &b, &c}) {
    r->net = &net;
    r->self = net.new_node_id();
    net.attach(r->self, r);
  }
  a.next = b.self;
  b.next = c.self;

  // Virtual root -> a -> b -> c.
  const dn::Span root = net.new_span_root();
  EXPECT_NE(root.root, 0u);
  EXPECT_EQ(root.root, root.hop);
  net.send(c.self, a.self, Ping{}, 10, 0, root);
  sim.run_all();

  // One "root" span plus one per delivered message.
  ASSERT_EQ(sink.count("span"), 4u);
  std::vector<VecSink::Rec> spans;
  for (const auto& r : sink.recs) {
    if (r.kind == "span") spans.push_back(r);
  }
  EXPECT_EQ(spans[0].tag, "root");
  EXPECT_EQ(spans[0].bytes, 0u);  // depth 0
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].tag, "");
    EXPECT_EQ(spans[i].a, root.root);       // same tree
    EXPECT_EQ(spans[i].b, spans[i - 1].id); // parent = previous hop
    EXPECT_EQ(spans[i].bytes, i);           // depth grows by one per relay
  }
  EXPECT_EQ(net.span_hops(), 4u);

  // Receivers observed the rewritten hop id (the one their relays chained
  // under), not the parent they were sent with.
  ASSERT_EQ(a.seen.size(), 1u);
  EXPECT_EQ(a.seen[0].hop, static_cast<std::uint32_t>(spans[1].id));
  ASSERT_EQ(b.seen.size(), 1u);
  EXPECT_EQ(b.seen[0].hop, static_cast<std::uint32_t>(spans[2].id));
  EXPECT_EQ(net.span_depth(b.seen[0].hop), 2u);
}

TEST(Span, FreshSendWithoutRootStartsItsOwnTree) {
  ds::Simulator sim(7);
  dn::NetworkConfig cfg;
  cfg.track_spans = true;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(5)),
                  cfg, nullptr);
  Relay a;
  a.net = &net;
  a.self = net.new_node_id();
  net.attach(a.self, &a);
  net.send(a.self, a.self, Ping{}, 10);  // default span {0,0}
  sim.run_all();
  ASSERT_EQ(a.seen.size(), 1u);
  EXPECT_NE(a.seen[0].hop, 0u);
  EXPECT_EQ(a.seen[0].root, a.seen[0].hop);  // it is its own root
  EXPECT_EQ(net.span_depth(a.seen[0].hop), 0u);
}

TEST(Span, TableThrowsPastItsCapAndKeepsItsCount) {
  // Hop ids carry 26 local bits, so one shard's table holds 2^26 - 1 hops;
  // the next allocation must throw before touching the table.
  ds::Simulator sim(3);
  dn::NetworkConfig cfg;
  cfg.track_spans = true;
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(5)),
                  cfg, nullptr);
  constexpr std::uint64_t kCap = (std::uint64_t{1} << 26) - 1;
  for (std::uint64_t i = 0; i < kCap; ++i) (void)net.new_span_root();
  EXPECT_EQ(net.span_hops(), kCap);
  try {
    (void)net.new_span_root();
    ADD_FAILURE() << "expected std::length_error";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("67108863"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(net.span_hops(), kCap);
  EXPECT_EQ(net.metrics().counter("net/span_hops").value(), kCap);
}

namespace {

/// A small gossip broadcast with spans on, traced to `os`.
void run_traced_gossip(std::ostream& os, std::uint64_t seed) {
  ds::JsonlTraceSink sink(os);
  ds::Simulator sim(seed);
  sim.set_trace(&sink);
  dn::NetworkConfig net_cfg;
  net_cfg.expected_nodes = 24;
  net_cfg.track_spans = true;
  dn::Network net(sim,
                  std::make_unique<dn::LogNormalLatency>(ds::millis(20), 0.3),
                  net_cfg, nullptr);
  ov::GossipConfig cfg;
  cfg.fanout = 3;
  std::vector<dn::NodeId> addrs;
  for (int i = 0; i < 24; ++i) addrs.push_back(net.new_node_id());
  std::vector<std::unique_ptr<ov::GossipNode>> nodes;
  for (int i = 0; i < 24; ++i) {
    nodes.push_back(std::make_unique<ov::GossipNode>(net, addrs[i], cfg));
    std::vector<dn::NodeId> view;
    for (int k = 1; k <= 4; ++k) view.push_back(addrs[(i + k) % 24]);
    nodes.back()->join(view);
  }
  sim.run_until(ds::seconds(30));
  nodes[0]->broadcast(1, 256);
  sim.run_until(sim.now() + ds::seconds(30));
}

}  // namespace

TEST(Span, SameSeedSpanTracesAreByteIdentical) {
  std::ostringstream t1, t2, t3;
  run_traced_gossip(t1, 99);
  run_traced_gossip(t2, 99);
  run_traced_gossip(t3, 100);
  EXPECT_FALSE(t1.str().empty());
  EXPECT_EQ(t1.str(), t2.str());
  EXPECT_NE(t1.str(), t3.str());  // the seed actually reaches the trace
  EXPECT_NE(t1.str().find("\"kind\":\"span\",\"tag\":\"root\""),
            std::string::npos);
}

namespace {

std::string run_span_sweep(std::size_t jobs) {
  ds::ExperimentOptions opts;
  opts.seed = 17;
  opts.jobs = jobs;
  opts.quiet = true;
  opts.emit_json = false;
  ds::ExperimentHarness ex("unit_span_points", opts);
  ex.run_points(3, [](ds::PointScope& scope) {
    ds::Simulator sim(scope.root_seed() + scope.index());
    scope.instrument(sim);
    dn::NetworkConfig net_cfg;
    net_cfg.expected_nodes = 12;
    net_cfg.track_spans = true;
    dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                    net_cfg, &scope.metrics());
    ov::GossipConfig cfg;
    cfg.fanout = 2 + scope.index();
    std::vector<dn::NodeId> addrs;
    for (int i = 0; i < 12; ++i) addrs.push_back(net.new_node_id());
    std::vector<std::unique_ptr<ov::GossipNode>> nodes;
    for (int i = 0; i < 12; ++i) {
      nodes.push_back(std::make_unique<ov::GossipNode>(net, addrs[i], cfg));
      nodes.back()->join({addrs[(i + 1) % 12], addrs[(i + 5) % 12]});
    }
    sim.run_until(ds::seconds(10));
    nodes[0]->broadcast(1, 128);
    sim.run_until(sim.now() + ds::seconds(10));
    scope.add_row({{"point", std::uint64_t{scope.index()}},
                   {"span_hops", std::uint64_t{net.span_hops()}}});
  });
  return ex.to_json();
}

}  // namespace

TEST(Span, RunPointsArtifactIsJobsInvariant) {
  const std::string sequential = run_span_sweep(1);
  const std::string parallel = run_span_sweep(4);
  EXPECT_EQ(sequential, parallel);
  // The span-derived histogram made it into the merged registry.
  EXPECT_NE(sequential.find("overlay/gossip_tree_depth"), std::string::npos);
  EXPECT_NE(sequential.find("net/span_hops"), std::string::npos);
}
