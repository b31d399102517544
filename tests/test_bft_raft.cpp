// Raft tests: leader election, log replication, majority commit, leader
// crash/failover, restart recovery, log-consistency invariants, the group
// size bound, and the kernel queue size under steady load.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bft/raft.hpp"
#include "net/network.hpp"

namespace db = decentnet::bft;
namespace dn = decentnet::net;
namespace ds = decentnet::sim;

namespace {

struct RaftCluster {
  ds::Simulator sim{52};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(5))};
  std::vector<std::unique_ptr<db::RaftNode>> nodes;
  std::vector<std::vector<db::Command>> applied;

  explicit RaftCluster(std::size_t n) {
    std::vector<dn::NodeId> addrs;
    for (std::size_t i = 0; i < n; ++i) addrs.push_back(net.new_node_id());
    applied.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<db::RaftNode>(net, addrs[i], i,
                                                     db::RaftConfig{}));
      nodes.back()->set_group(addrs);
      nodes.back()->set_commit_hook(
          [this, i](std::uint64_t, const db::Command& cmd) {
            applied[i].push_back(cmd);
          });
    }
    for (auto& node : nodes) node->start();
    sim.run_until(ds::seconds(2));  // elect
  }

  db::RaftNode* leader() {
    for (auto& n : nodes) {
      if (n->is_leader()) return n.get();
    }
    return nullptr;
  }

  std::size_t leader_count() const {
    std::size_t c = 0;
    std::uint64_t max_term = 0;
    for (const auto& n : nodes) max_term = std::max(max_term, n->term());
    for (const auto& n : nodes) {
      if (n->role() == db::RaftNode::Role::Leader && n->term() == max_term &&
          !n->crashed()) {
        ++c;
      }
    }
    return c;
  }

  db::Command cmd(std::uint64_t id, std::string op = "op") {
    db::Command c;
    c.id = id;
    c.client = 1;
    c.op = std::move(op);
    return c;
  }
};

}  // namespace

TEST(Raft, ElectsExactlyOneLeader) {
  RaftCluster rc(5);
  ASSERT_NE(rc.leader(), nullptr);
  EXPECT_EQ(rc.leader_count(), 1u);
}

TEST(Raft, ReplicatesAndCommitsOnAllNodes) {
  RaftCluster rc(5);
  auto* leader = rc.leader();
  ASSERT_NE(leader, nullptr);
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(leader->propose(rc.cmd(static_cast<std::uint64_t>(i))));
  }
  rc.sim.run_until(rc.sim.now() + ds::seconds(2));
  for (std::size_t n = 0; n < rc.nodes.size(); ++n) {
    ASSERT_EQ(rc.applied[n].size(), 20u) << "node " << n;
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(rc.applied[n][static_cast<std::size_t>(i)].id,
                static_cast<std::uint64_t>(i + 1));
    }
  }
}

TEST(Raft, FollowerRejectsProposals) {
  RaftCluster rc(3);
  auto* leader = rc.leader();
  ASSERT_NE(leader, nullptr);
  for (auto& n : rc.nodes) {
    if (n.get() != leader) {
      EXPECT_FALSE(n->propose(rc.cmd(1)));
    }
  }
}

TEST(Raft, SurvivesLeaderCrash) {
  RaftCluster rc(5);
  auto* old_leader = rc.leader();
  ASSERT_NE(old_leader, nullptr);
  for (int i = 1; i <= 5; ++i) old_leader->propose(rc.cmd(static_cast<std::uint64_t>(i)));
  rc.sim.run_until(rc.sim.now() + ds::seconds(1));
  old_leader->crash();
  rc.sim.run_until(rc.sim.now() + ds::seconds(3));
  auto* new_leader = rc.leader();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader, old_leader);
  // New proposals still commit on the surviving majority.
  for (int i = 6; i <= 10; ++i) new_leader->propose(rc.cmd(static_cast<std::uint64_t>(i)));
  rc.sim.run_until(rc.sim.now() + ds::seconds(2));
  for (std::size_t n = 0; n < rc.nodes.size(); ++n) {
    if (rc.nodes[n]->crashed()) continue;
    EXPECT_EQ(rc.applied[n].size(), 10u) << "node " << n;
  }
}

TEST(Raft, MinorityCannotCommit) {
  RaftCluster rc(5);
  auto* leader = rc.leader();
  ASSERT_NE(leader, nullptr);
  // Crash a majority (3 of 5), leaving the leader + one follower.
  std::size_t crashed = 0;
  for (auto& n : rc.nodes) {
    if (n.get() != leader && crashed < 3) {
      n->crash();
      ++crashed;
    }
  }
  const std::uint64_t before = leader->commit_index();
  leader->propose(rc.cmd(100));
  rc.sim.run_until(rc.sim.now() + ds::seconds(3));
  EXPECT_EQ(leader->commit_index(), before)
      << "a two-node minority of five must not commit";
}

TEST(Raft, RestartedNodeCatchesUp) {
  RaftCluster rc(5);
  auto* leader = rc.leader();
  ASSERT_NE(leader, nullptr);
  // Crash a follower, commit entries, restart it.
  db::RaftNode* victim = nullptr;
  for (auto& n : rc.nodes) {
    if (n.get() != leader) {
      victim = n.get();
      break;
    }
  }
  victim->crash();
  for (int i = 1; i <= 10; ++i) leader->propose(rc.cmd(static_cast<std::uint64_t>(i)));
  rc.sim.run_until(rc.sim.now() + ds::seconds(2));
  victim->restart();
  rc.sim.run_until(rc.sim.now() + ds::seconds(3));
  EXPECT_EQ(rc.applied[victim->index()].size(), 10u)
      << "restarted node must replay the committed log";
}

TEST(Raft, CommitOrderIdenticalOnAllNodes) {
  RaftCluster rc(5);
  // Interleave crashes and proposals, then verify prefix consistency.
  ds::Rng rng(4);
  std::uint64_t next = 1;
  for (int round = 0; round < 10; ++round) {
    auto* leader = rc.leader();
    if (leader != nullptr) {
      for (int i = 0; i < 5; ++i) leader->propose(rc.cmd(next++));
    }
    rc.sim.run_until(rc.sim.now() + ds::seconds(1));
  }
  rc.sim.run_until(rc.sim.now() + ds::seconds(2));
  // All logs must agree on the common applied prefix.
  for (std::size_t a = 1; a < rc.nodes.size(); ++a) {
    const std::size_t common =
        std::min(rc.applied[0].size(), rc.applied[a].size());
    for (std::size_t i = 0; i < common; ++i) {
      EXPECT_EQ(rc.applied[0][i].id, rc.applied[a][i].id)
          << "divergence at index " << i << " on node " << a;
    }
  }
  EXPECT_GT(rc.applied[0].size(), 0u);
}

TEST(Raft, SingleNodeClusterCommitsAlone) {
  RaftCluster rc(1);
  ASSERT_NE(rc.leader(), nullptr);
  rc.leader()->propose(rc.cmd(1));
  rc.sim.run_until(rc.sim.now() + ds::seconds(1));
  EXPECT_EQ(rc.applied[0].size(), 1u);
}

TEST(Raft, ClientProposeViaMessage) {
  RaftCluster rc(3);
  auto* leader = rc.leader();
  ASSERT_NE(leader, nullptr);
  // A bare host submits a ClientPropose to the leader.
  struct Client : dn::Host {
    bool committed = false;
    void handle_message(const dn::Message& msg) override {
      if (msg.is<db::raft_msg::ClientReply>()) {
        committed |= dn::payload_as<db::raft_msg::ClientReply>(msg).committed;
      }
    }
  } client;
  const auto caddr = rc.net.new_node_id();
  rc.net.attach(caddr, &client);
  db::Command c;
  c.id = 9;
  c.client = 77;
  c.op = "x";
  rc.net.send(caddr, leader->addr(), db::raft_msg::ClientPropose{c}, 64);
  rc.sim.run_until(rc.sim.now() + ds::seconds(2));
  EXPECT_TRUE(client.committed);
}

TEST(Raft, SetGroupRejectsGroupsPastTheVoteMask) {
  ds::Simulator sim(3);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(5)));
  std::vector<dn::NodeId> addrs;
  for (std::size_t i = 0; i < db::RaftNode::kMaxGroupSize + 1; ++i) {
    addrs.push_back(net.new_node_id());
  }
  db::RaftNode node(net, addrs[0], 0, db::RaftConfig{});
  try {
    node.set_group(addrs);  // 65 replicas: a vote bit past the mask
    FAIL() << "set_group accepted 65 replicas";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("64"), std::string::npos) << e.what();
  }
  addrs.pop_back();
  EXPECT_NO_THROW(node.set_group(addrs));

  // A node whose index is not a position in its group.
  db::RaftNode outsider(net, net.new_node_id(), 3, db::RaftConfig{});
  EXPECT_THROW(outsider.set_group({addrs[0], addrs[1], addrs[2]}),
               std::invalid_argument);
}

TEST(Raft, SteadyLoadKeepsTheKernelQueueSmall) {
  // Every AppendEntries resets a follower's election timer. The queue must
  // hold the live entries only, not one tombstone per reset.
  RaftCluster rc(3);
  auto* leader = rc.leader();
  ASSERT_NE(leader, nullptr);
  std::uint64_t next = 1;
  std::size_t max_depth = 0;
  auto driver = rc.sim.schedule_periodic(ds::millis(1), ds::millis(1), [&] {
    max_depth = std::max(max_depth, rc.sim.pending_events());
    ASSERT_TRUE(leader->propose(rc.cmd(next++)));
  });
  rc.sim.run_until(rc.sim.now() + ds::seconds(10));
  driver.cancel();
  ASSERT_GT(rc.applied[0].size(), 9000u);
  // Live entries: one election timer per node, the heartbeat series, this
  // driver, and per follower at most two appends (the stream's outstanding
  // one plus a heartbeat) and their two replies in flight.
  const std::size_t followers = rc.nodes.size() - 1;
  const std::size_t live = rc.nodes.size() + 1 + 1 + followers * 4;
  // A re-armed timer may also hold stale entries: one per arm that moved its
  // deadline earlier, each dropped when it surfaces. Allow as many again.
  EXPECT_LE(max_depth, 2 * live);
}
