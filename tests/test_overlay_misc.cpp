// Gossip, Gnutella flooding and one-hop overlay tests.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "overlay/flood.hpp"
#include "overlay/gossip.hpp"
#include "overlay/onehop.hpp"

namespace dn = decentnet::net;
namespace ds = decentnet::sim;
namespace ov = decentnet::overlay;

// --- Gossip -----------------------------------------------------------------

namespace {

struct GossipNet {
  ds::Simulator sim{31337};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(15))};
  std::vector<std::unique_ptr<ov::GossipNode>> nodes;

  GossipNet(std::size_t n, ov::GossipConfig cfg) {
    std::vector<dn::NodeId> addrs;
    for (std::size_t i = 0; i < n; ++i) addrs.push_back(net.new_node_id());
    ds::Rng rng(1);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<ov::GossipNode>(net, addrs[i], cfg));
      // Bootstrap view: a few random peers.
      std::vector<dn::NodeId> view;
      for (std::size_t k = 0; k < cfg.view_size / 2; ++k) {
        view.push_back(addrs[rng.uniform_int(n)]);
      }
      nodes.back()->join(view);
    }
  }
};

}  // namespace

TEST(Gossip, BroadcastReachesAlmostEveryone) {
  ov::GossipConfig cfg;
  cfg.fanout = 4;
  GossipNet g(100, cfg);
  // Let shuffles mix the views first.
  g.sim.run_until(ds::minutes(2));
  g.nodes[0]->broadcast(/*rumor=*/1, /*payload_bytes=*/256);
  g.sim.run_until(g.sim.now() + ds::minutes(1));
  std::size_t reached = 0;
  for (const auto& n : g.nodes) {
    if (n->has_seen(1)) ++reached;
  }
  EXPECT_GE(reached, 95u);
}

TEST(Gossip, LowFanoutReachesFewer) {
  ov::GossipConfig low;
  low.fanout = 1;
  // Shuffle-piggybacked anti-entropy would resurrect a died-out rumor; this
  // test isolates the push path, where fanout is the epidemic's only knob.
  low.anti_entropy_rumors = 0;
  GossipNet g(100, low);
  g.sim.run_until(ds::minutes(2));
  g.nodes[0]->broadcast(1, 256);
  g.sim.run_until(g.sim.now() + ds::minutes(1));
  std::size_t reached = 0;
  for (const auto& n : g.nodes) {
    if (n->has_seen(1)) ++reached;
  }
  // Fanout 1 infect-and-die dies out quickly.
  EXPECT_LT(reached, 60u);
}

TEST(Gossip, ViewsStayBoundedAndFresh) {
  ov::GossipConfig cfg;
  GossipNet g(50, cfg);
  g.sim.run_until(ds::minutes(5));
  for (const auto& n : g.nodes) {
    EXPECT_LE(n->view().size(), cfg.view_size);
    EXPECT_GE(n->view().size(), 2u);
  }
}

TEST(Gossip, DeliverHookFiresOncePerRumor) {
  ov::GossipConfig cfg;
  GossipNet g(30, cfg);
  g.sim.run_until(ds::minutes(1));
  int delivered = 0;
  g.nodes[5]->set_deliver_hook(
      [&](ov::RumorId, std::size_t) { ++delivered; });
  g.nodes[0]->broadcast(7, 64);
  g.nodes[1]->broadcast(7, 64);  // same rumor from elsewhere
  g.sim.run_until(g.sim.now() + ds::minutes(1));
  EXPECT_LE(delivered, 1);
}

// --- Gnutella flooding ------------------------------------------------------

namespace {

struct FloodNet {
  ds::Simulator sim{99};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(20))};
  std::vector<std::unique_ptr<ov::GnutellaNode>> nodes;

  FloodNet(std::size_t n, std::size_t degree, ov::FloodConfig cfg = {}) {
    std::vector<dn::NodeId> addrs;
    for (std::size_t i = 0; i < n; ++i) addrs.push_back(net.new_node_id());
    ds::Rng rng(2);
    const auto adj = dn::random_graph(n, degree, rng);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<ov::GnutellaNode>(net, addrs[i], cfg));
      std::vector<dn::NodeId> nbrs;
      for (std::size_t j : adj[i]) nbrs.push_back(addrs[j]);
      nodes.back()->join(std::move(nbrs));
    }
  }
};

}  // namespace

TEST(Gnutella, FindsContentWithinTtl) {
  FloodNet g(60, 4);
  g.nodes[42]->add_content(1234);
  bool done = false;
  ov::QueryOutcome out;
  g.nodes[0]->query(1234, [&](ov::QueryOutcome o) {
    done = true;
    out = o;
  });
  g.sim.run_until(ds::minutes(1));
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.provider, g.nodes[42]->addr());
  EXPECT_GT(out.hops, 0u);
}

TEST(Gnutella, MissesContentBeyondTtl) {
  ov::FloodConfig cfg;
  cfg.default_ttl = 1;  // only direct neighbors reachable
  FloodNet g(100, 3, cfg);
  g.nodes[99]->add_content(555);  // far away with high probability
  bool done = false;
  ov::QueryOutcome out;
  g.nodes[0]->query(555, [&](ov::QueryOutcome o) {
    done = true;
    out = o;
  });
  g.sim.run_until(ds::minutes(2));
  ASSERT_TRUE(done);
  // Node 99 is almost surely not adjacent to node 0 in a 3-regular graph.
  EXPECT_FALSE(out.found);
}

TEST(Gnutella, LocalContentAnswersInstantly) {
  FloodNet g(10, 3);
  g.nodes[3]->add_content(77);
  bool done = false;
  g.nodes[3]->query(77, [&](ov::QueryOutcome o) {
    done = true;
    EXPECT_TRUE(o.found);
    EXPECT_EQ(o.provider, g.nodes[3]->addr());
  });
  EXPECT_TRUE(done);  // synchronous local hit
}

TEST(Gnutella, QueryCostScalesWithTtl) {
  FloodNet shallow(80, 4);
  shallow.nodes[0]->query(424242, [](ov::QueryOutcome) {});
  shallow.sim.run_until(ds::minutes(1));
  const auto few = shallow.net.messages_sent();

  ov::FloodConfig deep_cfg;
  deep_cfg.default_ttl = 2;
  FloodNet deep(80, 4, deep_cfg);
  deep.nodes[0]->query(424242, [](ov::QueryOutcome) {});
  deep.sim.run_until(ds::minutes(1));
  EXPECT_GT(few, deep.net.messages_sent());
}

// --- One-hop ----------------------------------------------------------------

namespace {

struct OneHopNet {
  ds::Simulator sim{6};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(10))};
  std::vector<std::unique_ptr<ov::OneHopNode>> nodes;

  explicit OneHopNet(std::size_t n, ov::OneHopConfig cfg = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<ov::OneHopNode>(net, net.new_node_id(), cfg));
    }
    nodes[0]->create();
    for (std::size_t i = 1; i < n; ++i) {
      nodes[i]->join(nodes[0]->self());
      sim.run_until(sim.now() + ds::seconds(1));
    }
    sim.run_until(sim.now() + ds::minutes(3));
  }
};

}  // namespace

TEST(OneHop, MembershipConvergesToFullView) {
  OneHopNet oh(30);
  for (const auto& n : oh.nodes) {
    EXPECT_EQ(n->membership_size(), 30u)
        << "node is missing members after gossip";
  }
}

TEST(OneHop, LookupIsSingleAttemptWhenFresh) {
  OneHopNet oh(25);
  ds::Rng rng(3);
  for (int q = 0; q < 10; ++q) {
    bool done = false;
    oh.nodes[rng.uniform_int(oh.nodes.size())]->lookup(
        rng.next(), [&](ov::OneHopLookupResult r) {
          done = true;
          EXPECT_TRUE(r.ok);
          EXPECT_EQ(r.attempts, 1u);
        });
    oh.sim.run_until(oh.sim.now() + ds::seconds(30));
    EXPECT_TRUE(done);
  }
}

TEST(OneHop, GracefulLeaveSpreadsDeparture) {
  OneHopNet oh(20);
  oh.nodes[5]->leave();
  oh.sim.run_until(oh.sim.now() + ds::minutes(3));
  std::size_t knowing = 0;
  for (const auto& n : oh.nodes) {
    if (!n->online()) continue;
    if (!n->knows(oh.nodes[5]->addr())) ++knowing;
  }
  EXPECT_GE(knowing, 15u) << "departure should spread to most members";
}

TEST(OneHop, CrashDetectedOnLookupAndRetried) {
  OneHopNet oh(15);
  // Crash a node silently; a lookup routed to it must retry and succeed.
  oh.nodes[7]->crash();
  ds::Rng rng(8);
  int ok_count = 0;
  for (int q = 0; q < 20; ++q) {
    bool done = false;
    ov::OneHopNode* src = oh.nodes[q % 15].get();
    if (!src->online()) src = oh.nodes[0].get();
    src->lookup(rng.next(), [&](ov::OneHopLookupResult r) {
      done = true;
      if (r.ok) ++ok_count;
    });
    oh.sim.run_until(oh.sim.now() + ds::seconds(30));
    EXPECT_TRUE(done);
  }
  EXPECT_GE(ok_count, 18);
}
