// A permissionless cryptocurrency, end to end (§III).
//
// Runs the full open-network stack: a gossip mesh of full nodes, miners
// racing on proof-of-work with difficulty retargeting, wallets paying each
// other, a light (SPV) client verifying an inclusion proof, a deep fork that
// heals by reorg — and, for the paper's skeptical eye, a double-spend
// attempt against a merchant who accepts zero-confirmation payments.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/decentnet.hpp"
#include "sim/experiment.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  sim::ExperimentHarness ex("example_cryptocurrency", argc, argv,
                            {.seed = 404});
  ex.describe("permissionless cryptocurrency walkthrough",
              "the full open-network stack: mining, retargeting, SPV, a "
              "zero-conf double spend, and a partition-healing reorg",
              "14-node PoW mesh, 3 miners at 60/30/10% hash power");
  sim::Simulator simu(ex.seed());
  ex.instrument(simu);
  net::Network netw(simu,
                    std::make_unique<net::LogNormalLatency>(sim::millis(60),
                                                            0.4),
                    net::NetworkConfig{.expected_nodes = 16},
                    &ex.metrics());
  chain::ChainParams params;
  params.target_block_interval = sim::seconds(60);
  params.retarget_window = 32;  // retarget every 32 blocks
  params.initial_difficulty = 2e6;  // deliberately wrong: watch it adjust
  params.block_reward = 50 * 100;

  const chain::Wallet alice = chain::Wallet::from_seed(0xA);
  const chain::Wallet bob = chain::Wallet::from_seed(0xB);
  const chain::Wallet merchant = chain::Wallet::from_seed(0xC);
  std::vector<chain::Wallet> miners_wallets;
  for (int i = 0; i < 3; ++i) {
    miners_wallets.push_back(chain::Wallet::from_seed(0x100 + static_cast<std::uint64_t>(i)));
  }
  const auto genesis =
      chain::make_genesis_multi({{alice.address(), 1'000'00}}, params.initial_difficulty);

  // 14-node mesh, degree 4.
  sim::Rng rng(ex.seed() ^ 5);
  const auto adj = net::random_graph(14, 4, rng);
  std::vector<net::NodeId> addrs;
  for (int i = 0; i < 14; ++i) addrs.push_back(netw.new_node_id());
  std::vector<std::unique_ptr<chain::FullNode>> nodes;
  for (std::size_t i = 0; i < 14; ++i) {
    nodes.push_back(
        std::make_unique<chain::FullNode>(netw, addrs[i], params, genesis));
    std::vector<net::NodeId> nbrs;
    for (std::size_t j : adj[i]) nbrs.push_back(addrs[j]);
    nodes.back()->connect(std::move(nbrs));
  }
  // Miners: 60 / 30 / 10 % of the hash power — but total is 2x what the
  // initial difficulty assumes, so blocks come too fast until retarget.
  const double total_rate = 2.0 * params.initial_difficulty / 60.0;
  std::vector<std::unique_ptr<chain::Miner>> miners;
  const double split[3] = {0.6, 0.3, 0.1};
  const std::size_t miner_nodes[3] = {0, 1, 13};  // miner 2 far side of mesh
  for (int m = 0; m < 3; ++m) {
    miners.push_back(std::make_unique<chain::Miner>(
        *nodes[miner_nodes[static_cast<std::size_t>(m)]],
        miners_wallets[static_cast<std::size_t>(m)].address(),
        total_rate * split[m]));
    miners.back()->start();
  }

  // An SPV wallet follows headers from node 13.
  chain::LightNode phone(netw, netw.new_node_id());
  phone.set_server(nodes[13]->addr());
  nodes[13]->add_light_client(phone.addr());

  // --- Normal payments -------------------------------------------------------
  simu.run_until(sim::minutes(5));
  const auto pay_bob =
      alice.pay(nodes[4]->utxo(), bob.address(), 30'000, 50);
  nodes[4]->submit_transaction(*pay_bob);
  simu.run_until(simu.now() + sim::minutes(30));
  std::printf("after 35 min: height=%llu, bob=%lld\n",
              static_cast<unsigned long long>(nodes[9]->tree().best_height()),
              static_cast<long long>(nodes[9]->utxo().balance_of(bob.address())));

  // --- SPV proof --------------------------------------------------------------
  bool spv_ok = false;
  phone.verify_inclusion(pay_bob->id(), [&](bool ok) {
    spv_ok = ok;
    std::printf("SPV client verified alice->bob inclusion proof: %s\n",
                ok ? "valid" : "INVALID");
  });
  simu.run_until(simu.now() + sim::minutes(1));

  // --- Difficulty retarget ----------------------------------------------------
  simu.run_until(simu.now() + sim::hours(2));
  const auto tip = nodes[9]->tree().best_tip();
  std::printf("difficulty after retargets: %.2fx initial (miners were 2x "
              "over-provisioned)\n",
              nodes[9]->tree().entry(tip).block->header().difficulty /
                  params.initial_difficulty);

  // --- Zero-confirmation double spend ------------------------------------------
  std::printf("\nzero-confirmation double-spend attempt:\n");
  const auto honest_tx =
      alice.pay(nodes[4]->utxo(), merchant.address(), 20'000, 10);
  chain::MutableTransaction evil_tx;
  evil_tx.inputs = honest_tx->inputs();  // same coins...
  evil_tx.outputs.push_back(
      chain::TxOutput{20'000, alice.address()});  // ...back to alice
  chain::sign_inputs(evil_tx, alice.key());
  // The merchant's node hears the honest tx; the far side of the mesh hears
  // the conflicting one at the same instant.
  nodes[4]->submit_transaction(*honest_tx);
  nodes[11]->submit_transaction(chain::Transaction(std::move(evil_tx)));
  simu.run_until(simu.now() + sim::seconds(5));
  std::printf("  merchant's mempool sees the payment: %s -> ships goods?\n",
              nodes[4]->mempool().contains(honest_tx->id()) ? "yes" : "no");
  simu.run_until(simu.now() + sim::minutes(40));
  const auto merchant_balance =
      nodes[4]->utxo().balance_of(merchant.address());
  std::printf("  after confirmation: merchant balance=%lld (%s)\n",
              static_cast<long long>(merchant_balance),
              merchant_balance > 0 ? "attack failed this time"
                                   : "the mempool lied — paper's point about "
                                     "waiting for confirmations");

  // --- Fork + reorg -------------------------------------------------------------
  std::printf("\npartitioning the mesh for 45 minutes...\n");
  std::unordered_set<std::uint64_t> side;
  for (int i = 0; i < 7; ++i) side.insert(addrs[static_cast<std::size_t>(i)].value);
  netw.add_partition("fork", {side});
  simu.run_until(simu.now() + sim::minutes(45));
  const bool diverged =
      !(nodes[0]->tree().best_tip() == nodes[13]->tree().best_tip());
  netw.clear_partition();
  simu.run_until(simu.now() + sim::minutes(10));
  for (auto& m : miners) m->stop();
  simu.run_until(simu.now() + sim::minutes(2));
  std::uint64_t reorgs = 0, max_depth = 0;
  for (const auto& n : nodes) {
    reorgs += n->stats().reorgs;
    max_depth = std::max(max_depth, n->stats().reorg_depth_max);
  }
  std::printf("  chains diverged: %s; after healing: reorgs=%llu, deepest "
              "reorg=%llu blocks\n",
              diverged ? "yes" : "no",
              static_cast<unsigned long long>(reorgs),
              static_cast<unsigned long long>(max_depth));
  std::printf("  final tips agree: %s\n",
              nodes[0]->tree().best_tip() == nodes[13]->tree().best_tip()
                  ? "yes"
                  : "no");

  std::printf("\nmining revenue by hash share (expected 60/30/10):\n");
  for (int m = 0; m < 3; ++m) {
    std::printf("  miner%d: %llu blocks found\n", m,
                static_cast<unsigned long long>(miners[static_cast<std::size_t>(m)]->blocks_found()));
  }

  ex.add_row({{"check", "spv_inclusion_proof"}, {"ok", spv_ok}});
  ex.add_row({{"check", "bob_paid"},
              {"ok", nodes[9]->utxo().balance_of(bob.address()) == 30'000}});
  ex.add_row({{"check", "chains_diverged_under_partition"}, {"ok", diverged}});
  ex.add_row({{"check", "tips_agree_after_heal"},
              {"ok", nodes[0]->tree().best_tip() ==
                         nodes[13]->tree().best_tip()}});
  ex.add_row({{"check", "reorgs_observed"}, {"ok", reorgs > 0}});
  return ex.finish();
}
