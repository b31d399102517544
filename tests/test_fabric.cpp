// Fabric stack tests: MSP certificates, chaincode read/write sets and MVCC,
// the built-in contracts, and the full execute-order-validate pipeline over
// solo, Raft and PBFT orderers.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/channel.hpp"
#include "fabric/contracts.hpp"
#include "fabric/msp.hpp"
#include "net/network.hpp"

namespace df = decentnet::fabric;
namespace dn = decentnet::net;
namespace ds = decentnet::sim;

// --- MSP ----------------------------------------------------------------------

TEST(Msp, EnrollAndValidate) {
  df::MembershipService msp(1);
  const auto key = decentnet::crypto::KeyAuthority::global().issue(100);
  const auto cert = msp.enroll(key.public_key(), "org1", "peer");
  EXPECT_TRUE(msp.validate(cert));
  EXPECT_EQ(cert.org, "org1");
}

TEST(Msp, RevocationInvalidates) {
  df::MembershipService msp(2);
  const auto key = decentnet::crypto::KeyAuthority::global().issue(101);
  const auto cert = msp.enroll(key.public_key(), "org1", "peer");
  msp.revoke(key.public_key());
  EXPECT_FALSE(msp.validate(cert));
}

TEST(Msp, ForgedCertificateRejected) {
  df::MembershipService msp(3);
  df::MembershipService other_ca(4);
  const auto key = decentnet::crypto::KeyAuthority::global().issue(102);
  // Enrolled with a different CA: invalid under msp.
  const auto cert = other_ca.enroll(key.public_key(), "org1", "peer");
  EXPECT_FALSE(msp.validate(cert));
  // Tampered role breaks the signature.
  auto tampered = msp.enroll(key.public_key(), "org1", "peer");
  tampered.role = "admin";
  EXPECT_FALSE(msp.validate(tampered));
}

// --- Chaincode / MVCC ----------------------------------------------------------

TEST(Chaincode, StubRecordsReadAndWriteSets) {
  df::KvStore state;
  state.put("a", "1");
  df::ChaincodeStub stub(state);
  EXPECT_EQ(stub.get("a"), "1");
  EXPECT_FALSE(stub.get("missing").has_value());
  stub.put("b", "2");
  const auto& rw = stub.rwset();
  ASSERT_EQ(rw.reads.size(), 2u);
  EXPECT_EQ(rw.reads[0].key, "a");
  EXPECT_EQ(rw.reads[0].version, 1u);
  EXPECT_EQ(rw.reads[1].version, 0u);  // absent key read at version 0
  ASSERT_EQ(rw.writes.size(), 1u);
  EXPECT_EQ(rw.writes[0].key, "b");
}

TEST(Chaincode, ReadYourWrites) {
  df::KvStore state;
  df::ChaincodeStub stub(state);
  stub.put("x", "new");
  EXPECT_EQ(stub.get("x"), "new");
}

TEST(Chaincode, MvccDetectsStaleReads) {
  df::KvStore state;
  state.put("k", "v1");
  df::ChaincodeStub stub(state);
  stub.get("k");
  stub.put("k", "v2");
  const df::RwSet rw = stub.take_rwset();
  EXPECT_TRUE(df::mvcc_valid(state, rw));
  // A concurrent commit bumps the version.
  state.put("k", "concurrent");
  EXPECT_FALSE(df::mvcc_valid(state, rw));
}

TEST(Chaincode, ApplyWritesBumpsVersions) {
  df::KvStore state;
  df::ChaincodeStub stub(state);
  stub.put("k", "v");
  stub.del("gone");
  df::apply_writes(state, stub.rwset());
  EXPECT_EQ(state.get("k")->value, "v");
  EXPECT_EQ(state.get("k")->version, 1u);
  EXPECT_FALSE(state.get("gone").has_value());
}

TEST(Chaincode, PrefixScan) {
  df::KvStore state;
  state.put("sc/a", "1");
  state.put("sc/b", "2");
  state.put("zz/c", "3");
  df::ChaincodeStub stub(state);
  const auto items = stub.by_prefix("sc/");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first, "sc/a");
}

// --- Contracts -------------------------------------------------------------------

namespace {
df::ChaincodeResult call(df::Chaincode& cc, df::KvStore& state,
                         std::vector<std::string> args) {
  df::ChaincodeStub stub(state);
  auto result = cc.invoke(args, stub);
  if (result.ok) df::apply_writes(state, stub.rwset());
  return result;
}
}  // namespace

TEST(Contracts, AssetLifecycle) {
  df::AssetTransferContract asset;
  df::KvStore state;
  EXPECT_TRUE(call(asset, state, {"create", "car1", "alice", "5000"}).ok);
  EXPECT_FALSE(call(asset, state, {"create", "car1", "bob", "1"}).ok);
  EXPECT_TRUE(call(asset, state, {"transfer", "car1", "bob"}).ok);
  const auto read = call(asset, state, {"read", "car1"});
  ASSERT_TRUE(read.ok);
  EXPECT_EQ(read.payload, "bob,5000");
  EXPECT_FALSE(call(asset, state, {"transfer", "ghost", "bob"}).ok);
}

TEST(Contracts, SupplyChainTrace) {
  df::SupplyChainContract sc;
  df::KvStore state;
  EXPECT_TRUE(call(sc, state, {"register", "pallet9", "factory-A"}).ok);
  EXPECT_TRUE(call(sc, state, {"ship", "pallet9", "carrier-X"}).ok);
  EXPECT_TRUE(call(sc, state, {"receive", "pallet9", "warehouse-B"}).ok);
  const auto trace = call(sc, state, {"trace", "pallet9"});
  ASSERT_TRUE(trace.ok);
  EXPECT_EQ(trace.payload,
            "origin:factory-A;ship:carrier-X;recv:warehouse-B");
  EXPECT_FALSE(call(sc, state, {"ship", "unknown", "x"}).ok);
}

TEST(Contracts, HealthRecordsRequireConsent) {
  df::HealthRecordsContract hc;
  df::KvStore state;
  EXPECT_FALSE(call(hc, state, {"put", "pat1", "hosp1", "bloodwork"}).ok);
  EXPECT_TRUE(call(hc, state, {"grant", "pat1", "hosp1"}).ok);
  EXPECT_TRUE(call(hc, state, {"put", "pat1", "hosp1", "bloodwork"}).ok);
  const auto rec = call(hc, state, {"get", "pat1", "hosp1"});
  ASSERT_TRUE(rec.ok);
  EXPECT_EQ(rec.payload, "bloodwork");
  EXPECT_TRUE(call(hc, state, {"revoke", "pat1", "hosp1"}).ok);
  EXPECT_FALSE(call(hc, state, {"get", "pat1", "hosp1"}).ok);
  // Another provider never had access.
  EXPECT_FALSE(call(hc, state, {"get", "pat1", "hosp2"}).ok);
}

TEST(Contracts, EnergyTrading) {
  df::EnergyTradingContract en;
  df::KvStore state;
  EXPECT_TRUE(call(en, state, {"meter", "solarco", "100"}).ok);
  EXPECT_FALSE(call(en, state, {"offer", "o1", "solarco", "500", "10"}).ok)
      << "cannot offer more than generated";
  EXPECT_TRUE(call(en, state, {"offer", "o1", "solarco", "60", "10"}).ok);
  EXPECT_TRUE(call(en, state, {"buy", "o1", "factory"}).ok);
  EXPECT_EQ(call(en, state, {"balance", "solarco"}).payload, "40");
  EXPECT_EQ(call(en, state, {"balance", "factory"}).payload, "60");
  EXPECT_FALSE(call(en, state, {"buy", "o1", "factory"}).ok)
      << "offer consumed";
}

TEST(Contracts, KvRoundTrip) {
  df::KvContract kv;
  df::KvStore state;
  EXPECT_TRUE(call(kv, state, {"put", "k", "v"}).ok);
  EXPECT_EQ(call(kv, state, {"get", "k"}).payload, "v");
  EXPECT_TRUE(call(kv, state, {"del", "k"}).ok);
  EXPECT_FALSE(call(kv, state, {"get", "k"}).ok);
}

// --- Full pipeline --------------------------------------------------------------

namespace {

struct FabricNet {
  ds::Simulator sim{77};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(3))};
  df::MembershipService msp{7};
  df::EndorsementPolicy policy{2};
  std::vector<std::unique_ptr<df::FabricPeer>> peers;
  std::unique_ptr<df::FabricClient> client;

  explicit FabricNet(std::size_t orgs = 3) {
    auto asset = std::make_shared<df::AssetTransferContract>();
    auto kv = std::make_shared<df::KvContract>();
    for (std::size_t o = 0; o < orgs; ++o) {
      peers.push_back(std::make_unique<df::FabricPeer>(
          net, net.new_node_id(), "org" + std::to_string(o), msp, policy,
          1000 + o));
      peers.back()->install(asset);
      peers.back()->install(kv);
    }
    peers.front()->set_event_source(true);
    client = std::make_unique<df::FabricClient>(net, net.new_node_id(),
                                                policy);
    std::vector<df::FabricPeer*> endorsers;
    for (auto& p : peers) endorsers.push_back(p.get());
    client->set_endorsers(endorsers);
  }
};

}  // namespace

TEST(FabricPipeline, EndToEndCommitWithSoloOrderer) {
  FabricNet fx;
  df::SoloOrderer orderer(fx.net, fx.net.new_node_id(), df::OrdererConfig{});
  for (auto& p : fx.peers) orderer.register_peer(p->addr());
  fx.client->set_orderer(&orderer);
  bool done = false;
  fx.client->invoke("asset", {"create", "a1", "alice", "10"},
                    [&](bool ok, const std::string&, ds::SimDuration) {
                      done = true;
                      EXPECT_TRUE(ok);
                    });
  fx.sim.run_until(ds::seconds(10));
  ASSERT_TRUE(done);
  for (auto& p : fx.peers) {
    EXPECT_EQ(p->stats().txs_committed, 1u);
    EXPECT_TRUE(p->state().get("asset/a1").has_value());
  }
}

TEST(FabricPipeline, ChaincodeErrorReportedWithoutOrdering) {
  FabricNet fx;
  df::SoloOrderer orderer(fx.net, fx.net.new_node_id(), df::OrdererConfig{});
  for (auto& p : fx.peers) orderer.register_peer(p->addr());
  fx.client->set_orderer(&orderer);
  bool done = false;
  fx.client->invoke("asset", {"transfer", "nonexistent", "bob"},
                    [&](bool ok, const std::string& payload, ds::SimDuration) {
                      done = true;
                      EXPECT_FALSE(ok);
                      EXPECT_EQ(payload, "no such asset");
                    });
  fx.sim.run_until(ds::seconds(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(orderer.blocks_cut(), 0u);
}

TEST(FabricPipeline, MvccConflictOnHotKey) {
  FabricNet fx;
  df::OrdererConfig ocfg;
  ocfg.block_max_txs = 10;
  df::SoloOrderer orderer(fx.net, fx.net.new_node_id(), ocfg);
  for (auto& p : fx.peers) orderer.register_peer(p->addr());
  fx.client->set_orderer(&orderer);
  // Two concurrent writes to the same key endorsed against the same state:
  // the second to order must fail MVCC.
  int committed = 0, failed = 0;
  for (int i = 0; i < 2; ++i) {
    fx.client->invoke("kv", {"put", "hot", "v" + std::to_string(i)},
                      [&](bool ok, const std::string&, ds::SimDuration) {
                        if (ok) {
                          ++committed;
                        } else {
                          ++failed;
                        }
                      });
  }
  fx.sim.run_until(ds::seconds(10));
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(fx.peers[0]->stats().mvcc_conflicts, 1u);
}

TEST(FabricPipeline, EndorsementPolicyBlocksUnderSignedTx) {
  // A transaction with a single endorsement cannot satisfy a 2-org policy.
  FabricNet fx;
  df::SoloOrderer orderer(fx.net, fx.net.new_node_id(), df::OrdererConfig{});
  for (auto& p : fx.peers) orderer.register_peer(p->addr());
  // Craft an endorsed tx manually with only one endorsement, submit it.
  df::KvStore scratch;
  df::ChaincodeStub stub(scratch);
  df::KvContract kv;
  kv.invoke({"put", "k", "v"}, stub);
  df::EndorsedTx tx;
  tx.tx_id = 424242;
  tx.chaincode = "kv";
  tx.rwset = stub.take_rwset();
  // Sign with a key enrolled at the right CA but only one org.
  const auto key = decentnet::crypto::KeyAuthority::global().issue(5555);
  const auto cert = fx.msp.enroll(key.public_key(), "org0", "peer");
  tx.endorsements.push_back(df::Endorsement{cert, key.sign(tx.response_digest())});
  fx.net.send(fx.client->addr(), orderer.submit_address(),
              df::fabric_msg::SubmitMsg{tx}, tx.wire_size());
  fx.sim.run_until(ds::seconds(10));
  EXPECT_EQ(fx.peers[0]->stats().txs_committed, 0u);
  EXPECT_EQ(fx.peers[0]->stats().policy_failures, 1u);
}

TEST(FabricPipeline, RaftOrdererCommits) {
  FabricNet fx;
  df::RaftOrderer orderer(fx.net, 3, df::OrdererConfig{});
  for (auto& p : fx.peers) orderer.register_peer(p->addr());
  fx.client->set_orderer(&orderer);
  fx.sim.run_until(ds::seconds(2));  // elect
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    fx.client->invoke("kv", {"put", "k" + std::to_string(i), "v"},
                      [&](bool ok, const std::string&, ds::SimDuration) {
                        if (ok) ++committed;
                      });
  }
  fx.sim.run_until(ds::seconds(20));
  EXPECT_EQ(committed, 10);
  EXPECT_EQ(fx.peers[0]->stats().txs_committed, 10u);
}

TEST(FabricPipeline, RaftOrdererSurvivesLeaderCrash) {
  FabricNet fx;
  df::RaftOrderer orderer(fx.net, 3, df::OrdererConfig{});
  for (auto& p : fx.peers) orderer.register_peer(p->addr());
  fx.client->set_orderer(&orderer);
  fx.sim.run_until(ds::seconds(2));
  // Crash the current Raft leader mid-stream.
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    fx.client->invoke("kv", {"put", "pre" + std::to_string(i), "v"},
                      [&](bool ok, const std::string&, ds::SimDuration) {
                        if (ok) ++committed;
                      });
  }
  fx.sim.run_until(ds::seconds(5));
  for (auto* rn : orderer.raft_nodes()) {
    if (rn->is_leader()) {
      rn->crash();
      break;
    }
  }
  for (int i = 0; i < 5; ++i) {
    fx.client->invoke("kv", {"put", "post" + std::to_string(i), "v"},
                      [&](bool ok, const std::string&, ds::SimDuration) {
                        if (ok) ++committed;
                      });
  }
  fx.sim.run_until(ds::seconds(30));
  EXPECT_EQ(committed, 10);
}

TEST(FabricPipeline, PbftOrdererCommits) {
  FabricNet fx;
  df::PbftOrderer orderer(fx.net, /*f=*/1, df::OrdererConfig{});
  for (auto& p : fx.peers) orderer.register_peer(p->addr());
  fx.client->set_orderer(&orderer);
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    fx.client->invoke("kv", {"put", "k" + std::to_string(i), "v"},
                      [&](bool ok, const std::string&, ds::SimDuration) {
                        if (ok) ++committed;
                      });
  }
  fx.sim.run_until(ds::seconds(30));
  EXPECT_EQ(committed, 10);
}

TEST(FabricPipeline, StateConsistentAcrossPeers) {
  FabricNet fx;
  df::SoloOrderer orderer(fx.net, fx.net.new_node_id(), df::OrdererConfig{});
  for (auto& p : fx.peers) orderer.register_peer(p->addr());
  fx.client->set_orderer(&orderer);
  for (int i = 0; i < 20; ++i) {
    fx.client->invoke("kv", {"put", "key" + std::to_string(i), "v"},
                      [](bool, const std::string&, ds::SimDuration) {});
  }
  fx.sim.run_until(ds::seconds(30));
  for (auto& p : fx.peers) {
    EXPECT_EQ(p->state().size(), fx.peers[0]->state().size());
    EXPECT_EQ(p->stats().txs_committed, fx.peers[0]->stats().txs_committed);
  }
  EXPECT_EQ(fx.peers[0]->stats().txs_committed, 20u);
}
