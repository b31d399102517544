// Config validation: every *ScenarioConfig, KademliaConfig and NetworkConfig
// rejects unrunnable settings with an actionable message, and the scenario
// runners refuse invalid configs on entry instead of producing silent
// nonsense.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/scenarios.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "overlay/kademlia.hpp"
#include "sim/simulator.hpp"

namespace dc = decentnet::core;
namespace dn = decentnet::net;
namespace ds = decentnet::sim;
namespace dov = decentnet::overlay;

TEST(ConfigValidation, PowDefaultsAreValid) {
  EXPECT_FALSE(dc::PowScenarioConfig{}.validate().has_value());
  EXPECT_FALSE(dc::FabricScenarioConfig{}.validate().has_value());
  EXPECT_FALSE(dc::PartitionedScenarioConfig{}.validate().has_value());
  EXPECT_FALSE(dc::EdgeScenarioConfig{}.validate().has_value());
  EXPECT_FALSE(dn::NetworkConfig{}.validate().has_value());
  EXPECT_FALSE(dov::KademliaConfig{}.validate().has_value());
}

TEST(ConfigValidation, PowRejectsBadShapes) {
  dc::PowScenarioConfig cfg;
  cfg.miners = cfg.nodes + 1;
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("miners"), std::string::npos);

  cfg = dc::PowScenarioConfig{};
  cfg.degree = cfg.nodes;  // a mesh needs degree < nodes
  err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("degree"), std::string::npos);

  cfg = dc::PowScenarioConfig{};
  cfg.total_hashrate = 0;
  EXPECT_TRUE(cfg.validate().has_value());

  cfg = dc::PowScenarioConfig{};
  cfg.common.duration = 0;
  EXPECT_TRUE(cfg.validate().has_value());

  cfg = dc::PowScenarioConfig{};
  cfg.common.transport.mode = dn::TransportMode::Bandwidth;
  cfg.common.transport.link.up_bps = 0;
  EXPECT_TRUE(cfg.validate().has_value());
}

TEST(ConfigValidation, RunnersThrowOnInvalidConfig) {
  dc::PowScenarioConfig pow;
  pow.miners = pow.nodes + 1;
  EXPECT_THROW(dc::run_pow_scenario(pow), std::invalid_argument);

  dc::FabricScenarioConfig fab;
  fab.required_endorsements = fab.orgs * fab.peers_per_org + 1;
  EXPECT_THROW(dc::run_fabric_scenario(fab), std::invalid_argument);

  dc::PartitionedScenarioConfig part;
  part.replicas = 0;
  EXPECT_THROW(dc::run_partitioned_scenario(part), std::invalid_argument);

  dc::EdgeScenarioConfig edge;
  edge.requests = 0;
  EXPECT_THROW(dc::run_edge_scenario(edge), std::invalid_argument);
}

TEST(ConfigValidation, PartitionedRejectsGroupsPastTheRaftLimit) {
  dc::PartitionedScenarioConfig cfg;
  cfg.replicas = 65;  // a Raft group tallies votes in a 64-bit mask
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("replicas"), std::string::npos);
  EXPECT_NE(err->find("64"), std::string::npos);
  EXPECT_THROW(dc::run_partitioned_scenario(cfg), std::invalid_argument);

  cfg.replicas = 64;
  EXPECT_FALSE(cfg.validate().has_value());
}

TEST(ConfigValidation, FabricRejectsBadShapes) {
  dc::FabricScenarioConfig cfg;
  cfg.required_endorsements = 0;
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("required_endorsements"), std::string::npos);

  cfg = dc::FabricScenarioConfig{};
  cfg.orderer_nodes = 0;
  EXPECT_TRUE(cfg.validate().has_value());

  cfg = dc::FabricScenarioConfig{};
  cfg.tx_rate_per_sec = 0;
  EXPECT_TRUE(cfg.validate().has_value());

  cfg = dc::FabricScenarioConfig{};
  cfg.block_timeout = 0;
  EXPECT_TRUE(cfg.validate().has_value());
}

TEST(ConfigValidation, NetworkRejectsBadProbabilityAndCapacity) {
  dn::NetworkConfig cfg;
  cfg.drop_probability = 1.5;
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("drop_probability"), std::string::npos);

  cfg = dn::NetworkConfig{};
  cfg.transport.link.up_bps = 0;
  auto terr = cfg.validate();
  ASSERT_TRUE(terr.has_value());
  EXPECT_NE(terr->find("up_bps"), std::string::npos);

  dn::TransportConfig tcfg;
  tcfg.mode = dn::TransportMode::Tcp;
  tcfg.mss_bytes = 0;
  auto merr = tcfg.validate();
  ASSERT_TRUE(merr.has_value());
  EXPECT_NE(merr->find("mss_bytes"), std::string::npos);
}

TEST(ConfigValidation, KademliaNodeRejectsInvalidConfig) {
  dov::KademliaConfig cfg;
  cfg.k = 0;
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("k"), std::string::npos);

  ds::Simulator sim(1);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(1)));
  EXPECT_THROW(dov::KademliaNode(net, net.new_node_id(), cfg),
               std::invalid_argument);

  cfg = dov::KademliaConfig{};
  cfg.alpha = 0;
  EXPECT_TRUE(cfg.validate().has_value());
  cfg = dov::KademliaConfig{};
  cfg.rpc_timeout = 0;
  EXPECT_TRUE(cfg.validate().has_value());
}
