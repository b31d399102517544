// The execute-order-validate pipeline of a permissioned channel
// (Hyperledger-Fabric architecture, §IV):
//
//   client --(proposal)--> endorsing peers   [speculative execution, signed
//                                             read/write sets]
//   client --(endorsed tx)--> ordering service [solo / Raft / PBFT batching
//                                               into blocks]
//   orderer --(block)--> all peers            [endorsement-policy check,
//                                              MVCC validation, commit]
//
// Consensus runs among the channel's members only — the paper's key
// contrast with global-broadcast permissionless chains (E12).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bft/pbft.hpp"
#include "bft/raft.hpp"
#include "fabric/chaincode.hpp"
#include "fabric/msp.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace decentnet::fabric {

struct Endorsement {
  Certificate endorser;
  crypto::Signature signature;  // over the response digest
};

struct EndorsedTx {
  std::uint64_t tx_id = 0;
  std::string chaincode;
  RwSet rwset;
  std::string result_payload;
  std::vector<Endorsement> endorsements;
  net::NodeId client_addr;  // where the commit event goes

  crypto::Hash256 response_digest() const;
  std::size_t wire_size() const;
};

struct FabricBlock {
  std::uint64_t number = 0;
  std::vector<EndorsedTx> txs;

  std::size_t wire_size() const;
};

namespace fabric_msg {
struct ProposalMsg {
  std::uint64_t tx_id;
  std::string chaincode;
  std::vector<std::string> args;
};
struct ProposalResponseMsg {
  std::uint64_t tx_id;
  bool ok;
  RwSet rwset;
  std::string result_payload;
  Endorsement endorsement;
};
struct SubmitMsg {
  EndorsedTx tx;
};
struct BlockDeliverMsg {
  std::shared_ptr<const FabricBlock> block;
};
struct CommitEventMsg {
  std::uint64_t tx_id;
  bool valid;
  std::string reason;
};
}  // namespace fabric_msg

/// n-of-m organizations must endorse.
struct EndorsementPolicy {
  std::size_t required_orgs = 1;
};

struct FabricPeerStats {
  std::uint64_t endorsements = 0;
  std::uint64_t txs_committed = 0;
  std::uint64_t mvcc_conflicts = 0;
  std::uint64_t policy_failures = 0;
  std::uint64_t blocks_received = 0;
};

class FabricPeer final : public net::Host {
 public:
  FabricPeer(net::Network& net, net::NodeId addr, std::string org,
             MembershipService& msp, EndorsementPolicy policy,
             std::uint64_t key_seed);
  ~FabricPeer() override;

  FabricPeer(const FabricPeer&) = delete;
  FabricPeer& operator=(const FabricPeer&) = delete;

  net::NodeId addr() const { return addr_; }
  const std::string& org() const { return org_; }
  const Certificate& certificate() const { return cert_; }
  const KvStore& state() const { return state_; }
  const FabricPeerStats& stats() const { return stats_; }

  /// Install a chaincode (shared across peers; contracts are stateless).
  void install(std::shared_ptr<Chaincode> chaincode);

  /// This peer notifies clients when their transactions commit.
  void set_event_source(bool on) { event_source_ = on; }

  /// Hook fired on every validated-and-committed transaction.
  using CommitHook = std::function<void(const EndorsedTx&, bool valid)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  void handle_message(const net::Message& msg) override;

 private:
  void commit_block(const FabricBlock& block);

  net::Network& net_;
  net::NodeId addr_;
  std::string org_;
  MembershipService& msp_;
  EndorsementPolicy policy_;
  // Experiment-scoped metric handles (aggregated across all peers sharing
  // the network's registry); per-peer numbers stay in stats_.
  sim::Counter& m_endorsements_;
  sim::Counter& m_txs_committed_;
  sim::Counter& m_mvcc_conflicts_;
  sim::Counter& m_policy_failures_;
  sim::Counter& m_blocks_received_;
  crypto::PrivateKey key_;
  Certificate cert_;
  KvStore state_;
  std::unordered_map<std::string, std::shared_ptr<Chaincode>> chaincodes_;
  bool event_source_ = false;
  std::uint64_t last_block_ = 0;
  FabricPeerStats stats_;
  CommitHook commit_hook_;
};

// ---------------------------------------------------------------------------
// Ordering services
// ---------------------------------------------------------------------------

class OrderingService {
 public:
  virtual ~OrderingService() = default;
  /// Address clients submit endorsed transactions to.
  virtual net::NodeId submit_address() const = 0;
  /// Peer that should receive every cut block.
  virtual void register_peer(net::NodeId peer) = 0;
  virtual std::uint64_t blocks_cut() const = 0;
};

struct OrdererConfig {
  std::size_t block_max_txs = 10;
  sim::SimDuration block_timeout = sim::millis(500);
};

/// Single-node orderer (Fabric's "solo", for development and as a baseline).
class SoloOrderer final : public net::Host, public OrderingService {
 public:
  SoloOrderer(net::Network& net, net::NodeId addr, OrdererConfig config);
  ~SoloOrderer() override;

  net::NodeId submit_address() const override { return addr_; }
  void register_peer(net::NodeId peer) override { peers_.push_back(peer); }
  std::uint64_t blocks_cut() const override { return next_block_ - 1; }

  void handle_message(const net::Message& msg) override;

 private:
  void cut_block();

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  OrdererConfig config_;
  sim::Counter& m_blocks_cut_;
  std::vector<net::NodeId> peers_;
  std::deque<EndorsedTx> pending_;
  std::uint64_t next_block_ = 1;
  sim::EventHandle timer_;
};

/// Crash-fault-tolerant ordering on a Raft group. The frontend host accepts
/// submissions, proposes them through the current leader, and cuts blocks
/// from the committed log.
///
/// Simulation note: the Raft log carries a reference to the endorsed tx (its
/// wire size is accounted on the Raft messages); the payload itself lives in
/// the frontend's store, standing in for the orderer's disk.
class RaftOrderer final : public net::Host, public OrderingService {
 public:
  RaftOrderer(net::Network& net, std::size_t nodes, OrdererConfig config,
              bft::RaftConfig raft_config = {});
  ~RaftOrderer() override;

  net::NodeId submit_address() const override { return addr_; }
  void register_peer(net::NodeId peer) override { peers_.push_back(peer); }
  std::uint64_t blocks_cut() const override { return next_block_ - 1; }

  /// Expose the consensus group for fault injection in tests.
  std::vector<bft::RaftNode*> raft_nodes();

  void handle_message(const net::Message& msg) override;

 private:
  void on_ordered(std::uint64_t index, const bft::Command& cmd);
  void cut_block();
  void drive_proposals();

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  OrdererConfig config_;
  sim::Counter& m_blocks_cut_;
  std::vector<std::unique_ptr<bft::RaftNode>> nodes_;
  std::vector<net::NodeId> peers_;
  std::unordered_map<std::uint64_t, EndorsedTx> store_;  // tx_id -> payload
  std::deque<std::uint64_t> unproposed_;
  std::unordered_set<std::uint64_t> ordered_seen_;  // dedup across replicas
  std::deque<EndorsedTx> pending_block_;
  std::uint64_t next_block_ = 1;
  sim::EventHandle timer_;
  sim::EventHandle propose_timer_;
};

/// Byzantine-fault-tolerant ordering on a PBFT group (the BFT-SMaRt role).
class PbftOrderer final : public net::Host, public OrderingService {
 public:
  PbftOrderer(net::Network& net, std::size_t f, OrdererConfig config,
              bft::PbftConfig pbft_config = {});
  ~PbftOrderer() override;

  net::NodeId submit_address() const override { return addr_; }
  void register_peer(net::NodeId peer) override { peers_.push_back(peer); }
  std::uint64_t blocks_cut() const override { return next_block_ - 1; }

  void handle_message(const net::Message& msg) override;

 private:
  void on_ordered(std::uint64_t seq, const bft::Command& cmd);
  void cut_block();

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  OrdererConfig config_;
  sim::Counter& m_blocks_cut_;
  std::vector<std::unique_ptr<bft::PbftReplica>> replicas_;
  std::unique_ptr<bft::PbftClient> client_;
  std::vector<net::NodeId> peers_;
  std::unordered_map<std::uint64_t, EndorsedTx> store_;
  std::unordered_set<std::uint64_t> ordered_seen_;
  std::deque<EndorsedTx> pending_block_;
  std::uint64_t next_block_ = 1;
  sim::EventHandle timer_;
};

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

class FabricClient final : public net::Host {
 public:
  /// cb(valid, result_payload, end_to_end_latency)
  using InvokeCallback =
      std::function<void(bool, const std::string&, sim::SimDuration)>;

  FabricClient(net::Network& net, net::NodeId addr,
               EndorsementPolicy policy);
  ~FabricClient() override;

  net::NodeId addr() const { return addr_; }

  /// Endorsing peers, one (or more) per org; the client picks one per org.
  void set_endorsers(std::vector<FabricPeer*> peers);
  void set_orderer(OrderingService* orderer) { orderer_ = orderer; }

  /// Run a chaincode invocation through the full pipeline.
  void invoke(const std::string& chaincode, std::vector<std::string> args,
              InvokeCallback cb);

  std::uint64_t committed() const { return committed_; }
  std::uint64_t failed() const { return failed_; }

  void handle_message(const net::Message& msg) override;

 private:
  struct PendingTx {
    std::string chaincode;
    InvokeCallback cb;
    sim::SimTime started = 0;
    std::vector<fabric_msg::ProposalResponseMsg> responses;
    bool submitted = false;
  };

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  EndorsementPolicy policy_;
  std::vector<FabricPeer*> endorsers_;
  OrderingService* orderer_ = nullptr;
  std::unordered_map<std::uint64_t, PendingTx> pending_;
  std::uint64_t next_tx_ = 1;
  std::uint64_t committed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace decentnet::fabric
