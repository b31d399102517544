// Networked blockchain tests: a mesh of full nodes with miners converges on
// one chain, transactions travel gossip -> mempool -> block -> every ledger,
// partitions cause forks that heal by reorg, and light clients verify
// inclusion proofs.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "chain/light.hpp"
#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "chain/wallet.hpp"
#include "net/topology.hpp"

namespace dc = decentnet::chain;
namespace dn = decentnet::net;
namespace ds = decentnet::sim;

namespace {

struct ChainNet {
  ds::Simulator sim{2024};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(50))};
  dc::ChainParams params;
  dc::Wallet alice = dc::Wallet::from_seed(0xAA11);
  dc::Wallet bob = dc::Wallet::from_seed(0xBB22);
  dc::Wallet miner_payout = dc::Wallet::from_seed(0xCC33);
  dc::BlockPtr genesis;
  std::vector<std::unique_ptr<dc::FullNode>> nodes;
  std::vector<std::unique_ptr<dc::Miner>> miners;

  explicit ChainNet(std::size_t n, std::size_t n_miners,
                    ds::SimDuration block_interval = ds::seconds(30)) {
    params.target_block_interval = block_interval;
    params.retarget_window = 0;  // fixed difficulty for test determinism
    params.initial_difficulty = 1e6;
    std::vector<std::pair<decentnet::crypto::PublicKey, dc::Amount>> premine;
    for (int i = 0; i < 50; ++i) premine.emplace_back(alice.address(), 10000);
    genesis = dc::make_genesis_multi(premine, params.initial_difficulty);

    std::vector<dn::NodeId> addrs;
    for (std::size_t i = 0; i < n; ++i) addrs.push_back(net.new_node_id());
    ds::Rng rng(3);
    const auto adj = dn::random_graph(n, 4, rng);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<dc::FullNode>(net, addrs[i], params, genesis));
      std::vector<dn::NodeId> nbrs;
      for (std::size_t j : adj[i]) nbrs.push_back(addrs[j]);
      nodes.back()->connect(std::move(nbrs));
    }
    // Hashrate chosen so blocks appear every ~block_interval.
    const double total_rate =
        params.initial_difficulty / ds::to_seconds(block_interval);
    for (std::size_t i = 0; i < n_miners; ++i) {
      miners.push_back(std::make_unique<dc::Miner>(
          *nodes[i], miner_payout.address(),
          total_rate / static_cast<double>(n_miners)));
      miners.back()->start();
    }
  }

  bool all_same_tip() const {
    for (const auto& n : nodes) {
      if (!(n->tree().best_tip() == nodes[0]->tree().best_tip())) return false;
    }
    return true;
  }
};

}  // namespace

TEST(ChainNetwork, MinersProduceBlocksAtTargetRate) {
  ChainNet cn(10, 3, ds::seconds(20));
  cn.sim.run_until(ds::minutes(30));
  const auto height = cn.nodes[0]->tree().best_height();
  // 30 min at 20 s/block ~ 90 blocks; exponential variance is wide, accept
  // a broad band.
  EXPECT_GT(height, 50u);
  EXPECT_LT(height, 150u);
}

TEST(ChainNetwork, AllNodesConvergeOnOneChain) {
  ChainNet cn(15, 4);
  cn.sim.run_until(ds::minutes(20));
  for (auto& m : cn.miners) m->stop();
  cn.sim.run_until(cn.sim.now() + ds::minutes(1));  // drain in-flight blocks
  EXPECT_TRUE(cn.all_same_tip());
  EXPECT_GT(cn.nodes[0]->tree().best_height(), 10u);
}

TEST(ChainNetwork, TransactionReachesEveryLedger) {
  ChainNet cn(12, 3);
  cn.sim.run_until(ds::minutes(2));
  const auto tx =
      cn.alice.pay(cn.nodes[5]->utxo(), cn.bob.address(), 2500, 50);
  ASSERT_TRUE(tx.has_value());
  ASSERT_TRUE(cn.nodes[5]->submit_transaction(*tx));
  cn.sim.run_until(cn.sim.now() + ds::minutes(15));
  for (auto& m : cn.miners) m->stop();
  cn.sim.run_until(cn.sim.now() + ds::minutes(1));
  for (const auto& n : cn.nodes) {
    EXPECT_EQ(n->utxo().balance_of(cn.bob.address()), 2500);
  }
}

TEST(ChainNetwork, MinerCollectsRewardAndFees) {
  ChainNet cn(8, 2);
  cn.sim.run_until(ds::minutes(2));
  const auto tx =
      cn.alice.pay(cn.nodes[0]->utxo(), cn.bob.address(), 100, 77);
  ASSERT_TRUE(tx.has_value());
  cn.nodes[0]->submit_transaction(*tx);
  cn.sim.run_until(cn.sim.now() + ds::minutes(20));
  const dc::Amount payout =
      cn.nodes[0]->utxo().balance_of(cn.miner_payout.address());
  const auto height = cn.nodes[0]->tree().best_height();
  // At least height * reward (some blocks may be stale) plus the fee.
  EXPECT_GE(payout, static_cast<dc::Amount>(height) *
                        cn.params.block_reward);
}

TEST(ChainNetwork, PartitionForksThenHeals) {
  ChainNet cn(10, 4, ds::seconds(15));
  cn.sim.run_until(ds::minutes(5));
  // Split the network so each side keeps two of the four miners
  // (miners live on nodes 0-3).
  std::unordered_set<std::uint64_t> side_a;
  for (std::size_t i : {0u, 1u, 4u, 5u, 6u}) {
    side_a.insert(cn.nodes[i]->addr().value);
  }
  cn.net.add_partition("split", {side_a});
  cn.sim.run_until(cn.sim.now() + ds::minutes(15));
  // The two sides should have diverged.
  EXPECT_FALSE(cn.nodes[0]->tree().best_tip() == cn.nodes[9]->tree().best_tip());
  // Heal and let the longer chain win everywhere.
  cn.net.clear_partition();
  cn.sim.run_until(cn.sim.now() + ds::minutes(10));
  for (auto& m : cn.miners) m->stop();
  cn.sim.run_until(cn.sim.now() + ds::minutes(2));
  EXPECT_TRUE(cn.all_same_tip());
  // Someone must have reorged.
  std::uint64_t reorgs = 0;
  for (const auto& n : cn.nodes) reorgs += n->stats().reorgs;
  EXPECT_GT(reorgs, 0u);
}

TEST(ChainNetwork, DoubleSpendOnlyOneBranchSurvives) {
  ChainNet cn(10, 3);
  cn.sim.run_until(ds::minutes(2));
  // Two conflicting txs injected at opposite ends of the mesh.
  const auto tx1 =
      cn.alice.pay(cn.nodes[0]->utxo(), cn.bob.address(), 9000, 10);
  ASSERT_TRUE(tx1.has_value());
  dc::MutableTransaction tx2;
  tx2.inputs = tx1->inputs();
  tx2.outputs.push_back(
      dc::TxOutput{9000, dc::Wallet::from_seed(0xE411).address()});
  dc::sign_inputs(tx2, cn.alice.key());
  cn.nodes[0]->submit_transaction(*tx1);
  cn.nodes[9]->submit_transaction(dc::Transaction(std::move(tx2)));
  cn.sim.run_until(cn.sim.now() + ds::minutes(30));
  for (auto& m : cn.miners) m->stop();
  cn.sim.run_until(cn.sim.now() + ds::minutes(2));
  // Exactly one of the two destinations got funded, on every node.
  const dc::Amount bob = cn.nodes[3]->utxo().balance_of(cn.bob.address());
  const dc::Amount evil = cn.nodes[3]->utxo().balance_of(
      dc::Wallet::from_seed(0xE411).address());
  EXPECT_TRUE((bob == 9000) != (evil == 9000))
      << "bob=" << bob << " evil=" << evil;
}

TEST(ChainNetwork, InvalidBlockRejectedByPeers) {
  ChainNet cn(6, 0);
  // Hand-craft a block with a bogus coinbase (too large a reward).
  dc::BlockHeader header;
  header.prev = cn.genesis->id();
  header.difficulty = cn.params.initial_difficulty;
  header.timestamp = 0;
  dc::Block bad = dc::Block::assemble(
      header, {dc::make_coinbase(cn.bob.address(),
                                 cn.params.block_reward * 100, 1)});
  cn.nodes[0]->submit_block(std::make_shared<const dc::Block>(bad));
  cn.sim.run_until(ds::minutes(1));
  for (const auto& n : cn.nodes) {
    EXPECT_EQ(n->tree().best_height(), 0u)
        << "no node should extend onto the invalid block";
    EXPECT_EQ(n->utxo().balance_of(cn.bob.address()), 0);
  }
}

TEST(ChainNetwork, WrongDifficultyBlockRejected) {
  ChainNet cn(4, 0);
  dc::BlockHeader header;
  header.prev = cn.genesis->id();
  header.difficulty = 1.0;  // far below the required difficulty
  dc::Block bad = dc::Block::assemble(
      header, {dc::make_coinbase(cn.bob.address(), 10, 1)});
  EXPECT_FALSE(
      cn.nodes[0]->submit_block(std::make_shared<const dc::Block>(bad)));
  EXPECT_EQ(cn.nodes[0]->stats().blocks_rejected, 1u);
}

TEST(ChainNetwork, OrphanBlocksResolveOnParentArrival) {
  ChainNet cn(2, 0);
  // Build a 2-block chain locally and feed the child before the parent.
  dc::Block parent = cn.nodes[0]->make_block_template(cn.bob.address(), 1);
  auto parent_ptr = std::make_shared<const dc::Block>(parent);
  // Temporarily adopt the parent on node 0 to build the child template.
  ASSERT_TRUE(cn.nodes[0]->submit_block(parent_ptr));
  dc::Block child = cn.nodes[0]->make_block_template(cn.bob.address(), 2);
  auto child_ptr = std::make_shared<const dc::Block>(child);
  ASSERT_TRUE(cn.nodes[0]->submit_block(child_ptr));
  // Node 1 hears about them out of order (direct host access).
  auto& n1 = *cn.nodes[1];
  cn.sim.run_until(ds::seconds(1));
  // Drop any gossip that already arrived; build a fresh node instead.
  dc::FullNode fresh(cn.net, cn.net.new_node_id(), cn.params, cn.genesis);
  fresh.connect({cn.nodes[0]->addr()});
  (void)n1;
  fresh.handle_message(decentnet::net::make_message<dc::chain_msg::BlockMsg>(
      cn.nodes[0]->addr(), fresh.addr(), 100,
      dc::chain_msg::BlockMsg{child_ptr}));
  EXPECT_EQ(fresh.tree().best_height(), 0u);  // orphan held back
  fresh.handle_message(decentnet::net::make_message<dc::chain_msg::BlockMsg>(
      cn.nodes[0]->addr(), fresh.addr(), 100,
      dc::chain_msg::BlockMsg{parent_ptr}));
  EXPECT_EQ(fresh.tree().best_height(), 2u);  // both connected
}

TEST(ChainNetwork, LightClientVerifiesInclusion) {
  ChainNet cn(6, 2);
  // Light client follows node 0's headers.
  dc::LightNode light(cn.net, cn.net.new_node_id());
  light.set_server(cn.nodes[0]->addr());
  cn.nodes[0]->add_light_client(light.addr());
  cn.sim.run_until(ds::minutes(2));
  const auto tx =
      cn.alice.pay(cn.nodes[0]->utxo(), cn.bob.address(), 123, 10);
  ASSERT_TRUE(tx.has_value());
  cn.nodes[0]->submit_transaction(*tx);
  cn.sim.run_until(cn.sim.now() + ds::minutes(20));
  ASSERT_GT(light.headers_received(), 0u);
  for (auto& m : cn.miners) m->stop();
  cn.sim.run_until(cn.sim.now() + ds::minutes(1));
  const std::uint64_t bytes_before = cn.net.bytes_sent();
  bool verified = false;
  bool done = false;
  light.verify_inclusion(tx->id(), [&](bool ok) {
    done = true;
    verified = ok;
  });
  cn.sim.run_until(cn.sim.now() + ds::minutes(1));
  ASSERT_TRUE(done);
  EXPECT_TRUE(verified);

  // The only traffic was the 48-byte request and the proof reply, which
  // costs 80 bytes of header plus 33 per Merkle step.
  std::size_t proof_steps = 0;
  for (const dc::BlockPtr& b : cn.nodes[0]->tree().active_chain()) {
    std::vector<decentnet::crypto::Hash256> leaves;
    for (const dc::Transaction& t : b->txs()) leaves.push_back(t.id());
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i] == tx->id()) {
        proof_steps = decentnet::crypto::MerkleTree(leaves).prove(i).size();
      }
    }
  }
  ASSERT_GT(proof_steps, 0u);
  EXPECT_EQ(cn.net.bytes_sent() - bytes_before, 48 + 80 + 33 * proof_steps);
}

TEST(ChainNetwork, LightClientRejectsAbsentTransaction) {
  ChainNet cn(4, 1);
  dc::LightNode light(cn.net, cn.net.new_node_id());
  light.set_server(cn.nodes[0]->addr());
  cn.nodes[0]->add_light_client(light.addr());
  cn.sim.run_until(ds::minutes(5));
  bool done = false;
  light.verify_inclusion(decentnet::crypto::sha256("never happened"),
                         [&](bool ok) {
                           done = true;
                           EXPECT_FALSE(ok);
                         });
  cn.sim.run_until(cn.sim.now() + ds::minutes(1));
  EXPECT_TRUE(done);
}

TEST(ChainNetwork, StaleRateRisesWithFastBlocks) {
  // E10 in miniature: 2 s blocks on a 50 ms-latency mesh fork much more
  // than 60 s blocks.
  ChainNet fast(12, 4, ds::seconds(2));
  fast.sim.run_until(ds::minutes(20));
  const double fast_stale =
      static_cast<double>(fast.nodes[0]->tree().stale_count()) /
      static_cast<double>(fast.nodes[0]->tree().size());

  ChainNet slow(12, 4, ds::seconds(60));
  slow.sim.run_until(ds::minutes(20));
  const double slow_stale =
      static_cast<double>(slow.nodes[0]->tree().stale_count()) /
      static_cast<double>(slow.nodes[0]->tree().size());
  EXPECT_GT(fast_stale, slow_stale);
}

TEST(ChainNetwork, CompactRelayConvergesAndSavesBandwidth) {
  auto run = [](bool compact) {
    ChainNet cn(10, 3);
    for (auto& n : cn.nodes) n->set_compact_relay(compact);
    cn.sim.run_until(ds::minutes(2));
    // Generate enough traffic that blocks carry bodies worth compressing.
    for (int i = 0; i < 30; ++i) {
      const auto tx = cn.alice.pay(cn.nodes[0]->utxo(), cn.bob.address(),
                                   100 + i, 5);
      if (tx) cn.nodes[0]->submit_transaction(*tx);
      cn.sim.run_until(cn.sim.now() + ds::seconds(20));
    }
    cn.sim.run_until(cn.sim.now() + ds::minutes(20));
    for (auto& m : cn.miners) m->stop();
    cn.sim.run_until(cn.sim.now() + ds::minutes(2));
    EXPECT_TRUE(cn.all_same_tip()) << "compact=" << compact;
    EXPECT_GT(cn.nodes[9]->confirmed_tx_count(), 10u);
    return cn.net.bytes_sent();
  };
  const auto full_bytes = run(false);
  const auto compact_bytes = run(true);
  EXPECT_LT(compact_bytes, full_bytes)
      << "compact relay must reduce total traffic";
}

TEST(ChainNetwork, CompactRelayRecoversMissingBodies) {
  // A node that never saw the txs (empty mempool) must fetch the bodies
  // and still converge.
  ChainNet cn(4, 1);
  for (auto& n : cn.nodes) n->set_compact_relay(true);
  cn.sim.run_until(ds::minutes(1));
  // Submit txs only at the miner's node and immediately mine: the other
  // nodes may learn the tx and block in either order.
  const auto tx = cn.alice.pay(cn.nodes[0]->utxo(), cn.bob.address(), 777, 5);
  ASSERT_TRUE(tx.has_value());
  cn.nodes[0]->submit_transaction(*tx);
  cn.sim.run_until(cn.sim.now() + ds::minutes(30));
  for (auto& m : cn.miners) m->stop();
  cn.sim.run_until(cn.sim.now() + ds::minutes(2));
  for (const auto& n : cn.nodes) {
    EXPECT_EQ(n->utxo().balance_of(cn.bob.address()), 777);
  }
}
