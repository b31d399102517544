#include "fabric/channel.hpp"

#include <algorithm>
#include <cstdlib>

#include "crypto/buffer.hpp"

namespace decentnet::fabric {

namespace fm = fabric_msg;

crypto::Hash256 EndorsedTx::response_digest() const {
  crypto::ByteWriter w;
  w.str("fabric-response").u64(tx_id).str(chaincode).str(result_payload);
  w.u64(rwset.reads.size());
  for (const ReadItem& r : rwset.reads) w.str(r.key).u64(r.version);
  w.u64(rwset.writes.size());
  for (const WriteItem& wr : rwset.writes) {
    w.str(wr.key).str(wr.value).u8(wr.is_delete ? 1 : 0);
  }
  return w.sha256();
}

std::size_t EndorsedTx::wire_size() const {
  return 64 + rwset.wire_size() + result_payload.size() +
         endorsements.size() * 128;
}

std::size_t FabricBlock::wire_size() const {
  std::size_t total = 64;
  for (const EndorsedTx& tx : txs) total += tx.wire_size();
  return total;
}

namespace {
crypto::Hash256 proposal_response_digest(const fm::ProposalResponseMsg& r,
                                         const std::string& chaincode) {
  EndorsedTx tmp;
  tmp.tx_id = r.tx_id;
  tmp.chaincode = chaincode;
  tmp.rwset = r.rwset;
  tmp.result_payload = r.result_payload;
  return tmp.response_digest();
}
}  // namespace

// ---------------------------------------------------------------------------
// FabricPeer
// ---------------------------------------------------------------------------

FabricPeer::FabricPeer(net::Network& net, net::NodeId addr, std::string org,
                       MembershipService& msp, EndorsementPolicy policy,
                       std::uint64_t key_seed)
    : net_(net),
      addr_(addr),
      org_(std::move(org)),
      msp_(msp),
      policy_(policy),
      m_endorsements_(net.metrics().counter("fabric/endorsements")),
      m_txs_committed_(net.metrics().counter("fabric/txs_committed")),
      m_mvcc_conflicts_(net.metrics().counter("fabric/mvcc_conflicts")),
      m_policy_failures_(net.metrics().counter("fabric/policy_failures")),
      m_blocks_received_(net.metrics().counter("fabric/blocks_received")),
      key_(crypto::KeyAuthority::global().issue(key_seed)),
      cert_(msp.enroll(key_.public_key(), org_, "peer")) {
  net_.attach(addr_, this);
}

FabricPeer::~FabricPeer() { net_.detach(addr_); }

void FabricPeer::install(std::shared_ptr<Chaincode> chaincode) {
  chaincodes_[chaincode->name()] = std::move(chaincode);
}

void FabricPeer::handle_message(const net::Message& msg) {
  if (msg.is<fm::ProposalMsg>()) {
    const auto& p = net::payload_as<fm::ProposalMsg>(msg);
    fm::ProposalResponseMsg reply;
    reply.tx_id = p.tx_id;
    const auto cc = chaincodes_.find(p.chaincode);
    if (cc == chaincodes_.end()) {
      reply.ok = false;
      reply.result_payload = "chaincode not installed";
    } else {
      ChaincodeStub stub(state_);
      const ChaincodeResult result = cc->second->invoke(p.args, stub);
      reply.ok = result.ok;
      reply.result_payload = result.payload;
      if (result.ok) {
        reply.rwset = stub.take_rwset();
        ++stats_.endorsements;
        m_endorsements_.add();
        EndorsedTx tmp;
        tmp.tx_id = p.tx_id;
        tmp.chaincode = p.chaincode;
        tmp.rwset = reply.rwset;
        tmp.result_payload = reply.result_payload;
        reply.endorsement.endorser = cert_;
        reply.endorsement.signature = key_.sign(tmp.response_digest());
      }
    }
    const std::size_t bytes =
        96 + reply.rwset.wire_size() + reply.result_payload.size();
    net_.send(addr_, msg.from, std::move(reply), bytes);
    return;
  }
  if (msg.is<fm::BlockDeliverMsg>()) {
    const auto& block = *net::payload_as<fm::BlockDeliverMsg>(msg).block;
    if (block.number <= last_block_) return;  // duplicate delivery
    last_block_ = block.number;
    ++stats_.blocks_received;
    m_blocks_received_.add();
    commit_block(block);
    return;
  }
}

void FabricPeer::commit_block(const FabricBlock& block) {
  for (const EndorsedTx& tx : block.txs) {
    bool valid = true;
    std::string reason;

    // Endorsement policy: enough signatures from distinct orgs, each cert
    // valid under the MSP and each signature binding the same response.
    const crypto::Hash256 digest = tx.response_digest();
    std::unordered_set<std::string> orgs;
    for (const Endorsement& e : tx.endorsements) {
      if (!msp_.validate(e.endorser)) continue;
      if (e.endorser.role != "peer") continue;
      if (!crypto::KeyAuthority::global().verify(e.endorser.subject, digest,
                                                 e.signature)) {
        continue;
      }
      orgs.insert(e.endorser.org);
    }
    if (orgs.size() < policy_.required_orgs) {
      valid = false;
      reason = "endorsement policy not satisfied";
      ++stats_.policy_failures;
      m_policy_failures_.add();
    }

    // MVCC: reads must still be current.
    if (valid && !mvcc_valid(state_, tx.rwset)) {
      valid = false;
      reason = "mvcc conflict";
      ++stats_.mvcc_conflicts;
      m_mvcc_conflicts_.add();
    }

    if (valid) {
      apply_writes(state_, tx.rwset);
      ++stats_.txs_committed;
      m_txs_committed_.add();
    }
    if (commit_hook_) commit_hook_(tx, valid);
    if (event_source_ && tx.client_addr.valid()) {
      net_.send(addr_, tx.client_addr,
                fm::CommitEventMsg{tx.tx_id, valid, reason}, 64);
    }
  }
}

// ---------------------------------------------------------------------------
// SoloOrderer
// ---------------------------------------------------------------------------

SoloOrderer::SoloOrderer(net::Network& net, net::NodeId addr,
                         OrdererConfig config)
    : net_(net),
      sim_(net.simulator()),
      addr_(addr),
      config_(config),
      m_blocks_cut_(net.metrics().counter("fabric/blocks_cut")) {
  net_.attach(addr_, this);
}

SoloOrderer::~SoloOrderer() { net_.detach(addr_); }

void SoloOrderer::handle_message(const net::Message& msg) {
  if (!msg.is<fm::SubmitMsg>()) return;
  pending_.push_back(net::payload_as<fm::SubmitMsg>(msg).tx);
  if (pending_.size() >= config_.block_max_txs) {
    cut_block();
  } else if (!timer_.valid()) {
    timer_ = sim_.schedule(config_.block_timeout,
                           [this] { cut_block(); }, "fabric/block_cut");
  }
}

void SoloOrderer::cut_block() {
  timer_.cancel();
  while (!pending_.empty()) {
    auto block = std::make_shared<FabricBlock>();
    block->number = next_block_++;
    m_blocks_cut_.add();
    while (!pending_.empty() && block->txs.size() < config_.block_max_txs) {
      block->txs.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    const std::shared_ptr<const FabricBlock> frozen = block;
    for (net::NodeId peer : peers_) {
      net_.send(addr_, peer, fm::BlockDeliverMsg{frozen},
                frozen->wire_size());
    }
    if (pending_.size() < config_.block_max_txs) break;
  }
  if (!pending_.empty() && !timer_.valid()) {
    timer_ = sim_.schedule(config_.block_timeout,
                           [this] { cut_block(); }, "fabric/block_cut");
  }
}

// ---------------------------------------------------------------------------
// RaftOrderer
// ---------------------------------------------------------------------------

RaftOrderer::RaftOrderer(net::Network& net, std::size_t nodes,
                         OrdererConfig config, bft::RaftConfig raft_config)
    : net_(net),
      sim_(net.simulator()),
      addr_(net.new_node_id()),
      config_(config),
      m_blocks_cut_(net.metrics().counter("fabric/blocks_cut")) {
  net_.attach(addr_, this);
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < nodes; ++i) addrs.push_back(net.new_node_id());
  for (std::size_t i = 0; i < nodes; ++i) {
    nodes_.push_back(
        std::make_unique<bft::RaftNode>(net, addrs[i], i, raft_config));
    nodes_.back()->set_group(addrs);
    nodes_.back()->set_commit_hook(
        [this](std::uint64_t index, const bft::Command& cmd) {
          on_ordered(index, cmd);
        });
  }
  for (auto& n : nodes_) n->start();
  // Periodically (re)propose anything not yet ordered — covers leader
  // crashes between submission and commit; duplicates dedup at on_ordered.
  propose_timer_ = sim_.schedule_periodic(sim::millis(200), sim::millis(200),
                                          [this] { drive_proposals(); });
}

RaftOrderer::~RaftOrderer() {
  propose_timer_.cancel();
  timer_.cancel();
  net_.detach(addr_);
}

std::vector<bft::RaftNode*> RaftOrderer::raft_nodes() {
  std::vector<bft::RaftNode*> out;
  for (auto& n : nodes_) out.push_back(n.get());
  return out;
}

void RaftOrderer::handle_message(const net::Message& msg) {
  if (!msg.is<fm::SubmitMsg>()) return;
  const EndorsedTx& tx = net::payload_as<fm::SubmitMsg>(msg).tx;
  store_[tx.tx_id] = tx;
  unproposed_.push_back(tx.tx_id);
  drive_proposals();
}

void RaftOrderer::drive_proposals() {
  bft::RaftNode* leader = nullptr;
  for (auto& n : nodes_) {
    if (n->is_leader()) {
      leader = n.get();
      break;
    }
  }
  if (leader == nullptr) return;  // election in progress; retried by timer
  while (!unproposed_.empty()) {
    const std::uint64_t id = unproposed_.front();
    unproposed_.pop_front();
    if (ordered_seen_.count(id) > 0) continue;
    const auto it = store_.find(id);
    if (it == store_.end()) continue;
    bft::Command cmd;
    cmd.id = id;
    cmd.client = 0;
    cmd.wire_bytes = it->second.wire_size();
    if (!leader->propose(std::move(cmd))) {
      unproposed_.push_front(id);
      break;
    }
  }
  // Safety net: anything stored but never ordered gets re-queued.
  for (const auto& [id, tx] : store_) {
    if (ordered_seen_.count(id) == 0 &&
        std::find(unproposed_.begin(), unproposed_.end(), id) ==
            unproposed_.end()) {
      unproposed_.push_back(id);
    }
  }
}

void RaftOrderer::on_ordered(std::uint64_t, const bft::Command& cmd) {
  if (!ordered_seen_.insert(cmd.id).second) return;  // other replicas echo
  const auto it = store_.find(cmd.id);
  if (it == store_.end()) return;
  pending_block_.push_back(std::move(it->second));
  store_.erase(it);
  if (pending_block_.size() >= config_.block_max_txs) {
    cut_block();
  } else if (!timer_.valid()) {
    timer_ = sim_.schedule(config_.block_timeout,
                           [this] { cut_block(); }, "fabric/block_cut");
  }
}

void RaftOrderer::cut_block() {
  timer_.cancel();
  while (!pending_block_.empty()) {
    auto block = std::make_shared<FabricBlock>();
    block->number = next_block_++;
    m_blocks_cut_.add();
    while (!pending_block_.empty() &&
           block->txs.size() < config_.block_max_txs) {
      block->txs.push_back(std::move(pending_block_.front()));
      pending_block_.pop_front();
    }
    const std::shared_ptr<const FabricBlock> frozen = block;
    for (net::NodeId peer : peers_) {
      net_.send(addr_, peer, fm::BlockDeliverMsg{frozen},
                frozen->wire_size());
    }
    if (pending_block_.size() < config_.block_max_txs) break;
  }
}

// ---------------------------------------------------------------------------
// PbftOrderer
// ---------------------------------------------------------------------------

PbftOrderer::PbftOrderer(net::Network& net, std::size_t f,
                         OrdererConfig config, bft::PbftConfig pbft_config)
    : net_(net),
      sim_(net.simulator()),
      addr_(net.new_node_id()),
      config_(config),
      m_blocks_cut_(net.metrics().counter("fabric/blocks_cut")) {
  net_.attach(addr_, this);
  pbft_config.f = f;
  const std::size_t n = 3 * f + 1;
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(net.new_node_id());
  for (std::size_t i = 0; i < n; ++i) {
    replicas_.push_back(
        std::make_unique<bft::PbftReplica>(net, addrs[i], i, pbft_config));
    replicas_.back()->set_group(addrs);
    replicas_.back()->set_commit_hook(
        [this](std::uint64_t seq, const bft::Command& cmd) {
          on_ordered(seq, cmd);
        });
  }
  client_ = std::make_unique<bft::PbftClient>(net, net.new_node_id(),
                                              /*client_id=*/1, pbft_config);
  client_->set_group(addrs);
}

PbftOrderer::~PbftOrderer() {
  timer_.cancel();
  net_.detach(addr_);
}

void PbftOrderer::handle_message(const net::Message& msg) {
  if (!msg.is<fm::SubmitMsg>()) return;
  const EndorsedTx& tx = net::payload_as<fm::SubmitMsg>(msg).tx;
  store_[tx.tx_id] = tx;
  client_->submit(std::to_string(tx.tx_id), tx.wire_size());
}

void PbftOrderer::on_ordered(std::uint64_t, const bft::Command& cmd) {
  const std::uint64_t id = std::strtoull(cmd.op.c_str(), nullptr, 10);
  if (!ordered_seen_.insert(id).second) return;
  const auto it = store_.find(id);
  if (it == store_.end()) return;
  pending_block_.push_back(std::move(it->second));
  store_.erase(it);
  if (pending_block_.size() >= config_.block_max_txs) {
    cut_block();
  } else if (!timer_.valid()) {
    timer_ = sim_.schedule(config_.block_timeout,
                           [this] { cut_block(); }, "fabric/block_cut");
  }
}

void PbftOrderer::cut_block() {
  timer_.cancel();
  while (!pending_block_.empty()) {
    auto block = std::make_shared<FabricBlock>();
    block->number = next_block_++;
    m_blocks_cut_.add();
    while (!pending_block_.empty() &&
           block->txs.size() < config_.block_max_txs) {
      block->txs.push_back(std::move(pending_block_.front()));
      pending_block_.pop_front();
    }
    const std::shared_ptr<const FabricBlock> frozen = block;
    for (net::NodeId peer : peers_) {
      net_.send(addr_, peer, fm::BlockDeliverMsg{frozen},
                frozen->wire_size());
    }
    if (pending_block_.size() < config_.block_max_txs) break;
  }
}

// ---------------------------------------------------------------------------
// FabricClient
// ---------------------------------------------------------------------------

FabricClient::FabricClient(net::Network& net, net::NodeId addr,
                           EndorsementPolicy policy)
    : net_(net), sim_(net.simulator()), addr_(addr), policy_(policy) {
  net_.attach(addr_, this);
}

FabricClient::~FabricClient() { net_.detach(addr_); }

void FabricClient::set_endorsers(std::vector<FabricPeer*> peers) {
  endorsers_ = std::move(peers);
}

void FabricClient::invoke(const std::string& chaincode,
                          std::vector<std::string> args, InvokeCallback cb) {
  const std::uint64_t tx_id =
      (addr_.value << 24) + next_tx_++;  // globally unique per client
  PendingTx pending;
  pending.chaincode = chaincode;
  pending.cb = std::move(cb);
  pending.started = sim_.now();
  pending_.emplace(tx_id, std::move(pending));
  // One endorser per organization (the first listed for each org).
  std::unordered_set<std::string> seen_orgs;
  std::size_t args_bytes = 0;
  for (const auto& a : args) args_bytes += a.size();
  for (FabricPeer* peer : endorsers_) {
    if (!seen_orgs.insert(peer->org()).second) continue;
    net_.send(addr_, peer->addr(), fm::ProposalMsg{tx_id, chaincode, args},
              64 + args_bytes);
  }
}

void FabricClient::handle_message(const net::Message& msg) {
  if (msg.is<fm::ProposalResponseMsg>()) {
    const auto& r = net::payload_as<fm::ProposalResponseMsg>(msg);
    const auto it = pending_.find(r.tx_id);
    if (it == pending_.end() || it->second.submitted) return;
    PendingTx& tx = it->second;
    if (!r.ok) {
      // Chaincode-level failure: report immediately.
      auto cb = std::move(tx.cb);
      const sim::SimDuration latency = sim_.now() - tx.started;
      const std::string payload = r.result_payload;
      pending_.erase(it);
      ++failed_;
      if (cb) cb(false, payload, latency);
      return;
    }
    tx.responses.push_back(r);
    // All responses must agree (same read/write sets) before submitting.
    const crypto::Hash256 want =
        proposal_response_digest(tx.responses.front(), tx.chaincode);
    std::size_t matching = 0;
    for (const auto& resp : tx.responses) {
      if (proposal_response_digest(resp, tx.chaincode) == want) ++matching;
    }
    if (matching < policy_.required_orgs) return;
    EndorsedTx endorsed;
    endorsed.tx_id = r.tx_id;
    endorsed.chaincode = tx.chaincode;
    endorsed.rwset = tx.responses.front().rwset;
    endorsed.result_payload = tx.responses.front().result_payload;
    for (const auto& resp : tx.responses) {
      if (proposal_response_digest(resp, tx.chaincode) == want) {
        endorsed.endorsements.push_back(resp.endorsement);
      }
    }
    endorsed.client_addr = addr_;
    tx.submitted = true;
    if (orderer_ != nullptr) {
      const std::size_t bytes = endorsed.wire_size();
      net_.send(addr_, orderer_->submit_address(),
                fm::SubmitMsg{std::move(endorsed)}, bytes);
    }
    return;
  }
  if (msg.is<fm::CommitEventMsg>()) {
    const auto& ev = net::payload_as<fm::CommitEventMsg>(msg);
    const auto it = pending_.find(ev.tx_id);
    if (it == pending_.end()) return;
    auto cb = std::move(it->second.cb);
    const sim::SimDuration latency = sim_.now() - it->second.started;
    const std::string payload = it->second.responses.empty()
                                    ? std::string{}
                                    : it->second.responses.front()
                                          .result_payload;
    pending_.erase(it);
    if (ev.valid) {
      ++committed_;
    } else {
      ++failed_;
    }
    if (cb) cb(ev.valid, ev.valid ? payload : ev.reason, latency);
    return;
  }
}

}  // namespace decentnet::fabric
