#include "chain/node.hpp"

#include <algorithm>

namespace decentnet::chain {

using chain_msg::BlockMsg;
using chain_msg::GetBlock;
using chain_msg::GetProof;
using chain_msg::HeaderMsg;
using chain_msg::ProofMsg;
using chain_msg::TxMsg;

FullNode::FullNode(net::Network& net, net::NodeId addr, ChainParams params,
                   BlockPtr genesis)
    : net_(net),
      sim_(net.simulator()),
      addr_(addr),
      params_(std::move(params)),
      m_blocks_accepted_(net.metrics().counter("chain/blocks_accepted")),
      m_blocks_rejected_(net.metrics().counter("chain/blocks_rejected")),
      m_txs_accepted_(net.metrics().counter("chain/txs_accepted")),
      m_txs_rejected_(net.metrics().counter("chain/txs_rejected")),
      m_reorgs_(net.metrics().counter("chain/reorgs")),
      m_relay_depth_(net.span_tracking()
                         ? &net.metrics().histogram("chain/relay_tree_depth")
                         : nullptr),
      tree_(genesis) {
  net_.attach(addr_, this);
  known_blocks_.insert(genesis->id());
  // Genesis applies unconditionally (premines may exceed the block reward).
  const auto res = utxo_.apply_block(*genesis, /*max_reward=*/0);
  if (auto* undo = std::get_if<BlockUndo>(&res)) {
    undo_.emplace(genesis->id(), *undo);
  }
  utxo_tip_ = genesis->id();
}

FullNode::~FullNode() {
  orphan_retry_.cancel();
  net_.detach(addr_);
}

void FullNode::connect(std::vector<net::NodeId> neighbors) {
  neighbors_ = std::move(neighbors);
}

bool FullNode::submit_transaction(const Transaction& tx) {
  if (!known_txs_.insert(tx.id())) return false;
  const auto err = mempool_.add(tx, utxo_);
  if (err) {
    ++stats_.txs_rejected;
    m_txs_rejected_.add();
    return false;
  }
  ++stats_.txs_accepted;
  m_txs_accepted_.add();
  relay_tx(tx, net::NodeId::invalid(), net_.new_span_root());
  return true;
}

bool FullNode::submit_block(BlockPtr block) {
  return accept_block(block, net::NodeId::invalid(), net_.new_span_root());
}

Block FullNode::make_block_template(const crypto::PublicKey& miner,
                                    std::uint64_t nonce) const {
  BlockHeader header;
  header.prev = tree_.best_tip();
  header.timestamp = sim_.now();
  header.difficulty = next_difficulty(tree_, tree_.best_tip(), params_);
  header.nonce = nonce;
  header.miner = miner;
  std::vector<Transaction> txs =
      mempool_.select_for_block(utxo_, params_.max_block_bytes - 200);
  Amount fees = 0;
  for (const Transaction& tx : txs) {
    fees += transaction_fee(utxo_, tx).value_or(0);
  }
  txs.insert(txs.begin(),
             make_coinbase(miner, params_.block_reward + fees, nonce));
  return Block::assemble(std::move(header), std::move(txs));
}

bool FullNode::accept_block(const BlockPtr& block, net::NodeId from,
                            net::Span span) {
  const BlockId id = block->id();
  if (!known_blocks_.insert(id)) return false;

  // Structural checks that need no context.
  if (block->txs().empty() || !block->txs().front().is_coinbase() ||
      !(block->merkle_root() == block->header().merkle_root)) {
    ++stats_.blocks_rejected;
    m_blocks_rejected_.add();
    return false;
  }

  if (!tree_.contains(block->header().prev)) {
    // Orphan: stash and ask the sender for the parent. The retry sweep
    // covers the case where this request (or its reply) is lost.
    orphans_.emplace(block->header().prev, block);
    if (from.valid()) {
      net_.send(addr_, from, GetBlock{block->header().prev}, 64, /*cookie=*/0,
                span);
    }
    schedule_orphan_retry();
    return false;
  }

  // Contextual check: the difficulty must match the retarget schedule.
  const double expected =
      next_difficulty(tree_, block->header().prev, params_);
  if (block->header().difficulty < expected * 0.999 ||
      block->header().difficulty > expected * 1.001) {
    ++stats_.blocks_rejected;
    m_blocks_rejected_.add();
    return false;
  }

  if (!tree_.insert(block)) {
    ++stats_.blocks_rejected;
    m_blocks_rejected_.add();
    return false;
  }
  ++stats_.blocks_accepted;
  m_blocks_accepted_.add();
  if (m_relay_depth_ && span.hop != 0) {
    m_relay_depth_->record(net_.span_depth(span.hop));
  }
  update_active_chain();
  relay_block(block, from, span);
  process_orphans(id);
  return true;
}

void FullNode::try_complete_compact(const BlockId& id) {
  const auto it = pending_compact_.find(id);
  if (it == pending_compact_.end()) return;
  for (const auto& tx : it->second.txs) {
    if (!tx.has_value()) return;  // still waiting on bodies
  }
  std::vector<Transaction> txs;
  txs.reserve(it->second.txs.size() + 1);
  txs.push_back(std::move(it->second.coinbase));
  for (auto& tx : it->second.txs) txs.push_back(std::move(*tx));
  Block block(it->second.header, std::move(txs));
  const net::NodeId from = it->second.from;
  // The causal parent is the compact announcement's hop, not the tx-body
  // fetch: the announcement is the edge of the block's dissemination tree.
  const net::Span span = it->second.span;
  pending_compact_.erase(it);
  // accept_block compares the Merkle root of the reconstructed txs with the
  // header's, so a reconstruction that disagrees is rejected rather than
  // propagated.
  accept_block(std::make_shared<const Block>(std::move(block)), from, span);
}

void FullNode::schedule_orphan_retry() {
  if (orphan_retry_.valid() || orphans_.empty() || neighbors_.empty()) return;
  orphan_retry_ = sim_.schedule(
      sim::seconds(2), [this] { retry_orphans(); }, "chain/orphan_retry");
}

void FullNode::retry_orphans() {
  // One GetBlock per distinct missing parent, rotating through neighbors so
  // a crashed or equally-behind peer can't starve the sweep. Re-fetching a
  // parent that is itself a stashed orphan is a no-op at the receiver (it
  // is already "known"); the lowest missing ancestor is always a genuine
  // fetch, and its arrival cascades the rest through process_orphans.
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    const BlockId parent = it->first;
    do {
      ++it;
    } while (it != orphans_.end() && it->first == parent);
    if (tree_.contains(parent)) continue;
    const net::NodeId to = neighbors_[orphan_retry_rr_++ % neighbors_.size()];
    net_.send(addr_, to, GetBlock{parent}, 64);
  }
  schedule_orphan_retry();
}

void FullNode::process_orphans(const BlockId& parent) {
  auto [lo, hi] = orphans_.equal_range(parent);
  std::vector<BlockPtr> ready;
  for (auto it = lo; it != hi; ++it) ready.push_back(it->second);
  orphans_.erase(lo, hi);
  for (const BlockPtr& b : ready) {
    known_blocks_.erase(b->id());  // allow re-processing
    // Orphans re-enter with no span: their original arrival hop is long
    // gone, and a fresh root would double-count the block.
    accept_block(b, net::NodeId::invalid());
  }
}

void FullNode::update_active_chain() {
  for (;;) {
    const BlockId target = tree_.best_tip();
    if (target == utxo_tip_) return;
    const ReorgPlan plan = tree_.find_reorg(utxo_tip_, target);

    // Revert down to the fork point.
    for (const BlockPtr& b : plan.revert) {
      const BlockId bid = b->id();
      utxo_.revert_block(*b, undo_.at(bid));
      undo_.erase(bid);
      confirmed_txs_ -= b->txs().size() - 1;
      mempool_.reinstate(*b, utxo_);
    }

    // Apply up to the new tip; on failure restore and blacklist.
    bool failed = false;
    std::vector<BlockPtr> applied;
    for (const BlockPtr& b : plan.apply) {
      auto res = utxo_.apply_block(*b, params_.block_reward, &mempool_);
      if (auto* err = std::get_if<ValidationError>(&res)) {
        (void)err;
        // Roll back what we applied in this attempt.
        for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
          utxo_.revert_block(**it, undo_.at((*it)->id()));
          undo_.erase((*it)->id());
          confirmed_txs_ -= (*it)->txs().size() - 1;
        }
        // Re-apply the blocks we reverted (they validated before).
        for (const BlockPtr& rb : plan.revert) {
          auto back = utxo_.apply_block(*rb, params_.block_reward, &mempool_);
          undo_.emplace(rb->id(), std::get<BlockUndo>(back));
          confirmed_txs_ += rb->txs().size() - 1;
          mempool_.remove_confirmed(*rb);
        }
        tree_.mark_invalid(b->id());
        ++stats_.blocks_rejected;
    m_blocks_rejected_.add();
        failed = true;
        break;
      }
      undo_.emplace(b->id(), std::get<BlockUndo>(res));
      confirmed_txs_ += b->txs().size() - 1;
      mempool_.remove_confirmed(*b);
      applied.push_back(b);
    }
    if (failed) continue;  // best tip changed; retry

    if (!plan.revert.empty()) {
      ++stats_.reorgs;
      m_reorgs_.add();
      stats_.reorg_depth_max =
          std::max<std::uint64_t>(stats_.reorg_depth_max, plan.revert.size());
    }
    utxo_tip_ = target;
    for (const TipHook& hook : tip_hooks_) hook();
    if (!light_clients_.empty() && !plan.apply.empty()) {
      // One shared header per applied block, fanned out to every client.
      std::vector<sim::Shared<HeaderMsg>> headers;
      headers.reserve(plan.apply.size());
      for (const BlockPtr& b : plan.apply) {
        headers.push_back(sim::Shared<HeaderMsg>::make(HeaderMsg{b->header()}));
      }
      for (net::NodeId lc : light_clients_) {
        for (const auto& h : headers) {
          net_.send(addr_, lc, h, 80);
        }
      }
    }
    return;
  }
}

void FullNode::relay_block(const BlockPtr& block, net::NodeId skip,
                           net::Span span) {
  const std::vector<Transaction>& txs = block->txs();
  if (compact_relay_ && txs.size() > 1) {
    chain_msg::CompactBlockMsg compact{block->header(), txs.front(), {}};
    compact.tx_ids.reserve(txs.size() - 1);
    for (std::size_t i = 1; i < txs.size(); ++i) {
      compact.tx_ids.push_back(txs[i].id());
    }
    const std::size_t bytes =
        80 + compact.coinbase.wire_size() + 6 * compact.tx_ids.size();
    // One allocation for the whole fan-out: the tx-id vector is built once
    // and every neighbor's delivery aliases it.
    const auto shared =
        sim::Shared<chain_msg::CompactBlockMsg>::make(std::move(compact));
    for (net::NodeId n : neighbors_) {
      if (n == skip) continue;
      net_.send(addr_, n, shared, bytes, /*cookie=*/0, span);
    }
    return;
  }
  const std::size_t bytes = block->wire_size();
  const auto shared = sim::Shared<BlockMsg>::make(BlockMsg{block});
  for (net::NodeId n : neighbors_) {
    if (n == skip) continue;
    net_.send(addr_, n, shared, bytes, /*cookie=*/0, span);
  }
}

void FullNode::relay_tx(const Transaction& tx, net::NodeId skip,
                        net::Span span) {
  const std::size_t bytes = tx.wire_size();
  const auto shared = sim::Shared<TxMsg>::make(TxMsg{tx});
  for (net::NodeId n : neighbors_) {
    if (n == skip) continue;
    net_.send(addr_, n, shared, bytes, /*cookie=*/0, span);
  }
}

void FullNode::handle_message(const net::Message& msg) {
  if (msg.is<BlockMsg>()) {
    accept_block(net::payload_as<BlockMsg>(msg).block, msg.from, msg.span);
    return;
  }
  if (msg.is<TxMsg>()) {
    const Transaction& tx = net::payload_as<TxMsg>(msg).tx;
    if (!known_txs_.insert(tx.id())) return;
    const auto err = mempool_.add(tx, utxo_);
    if (err) {
      ++stats_.txs_rejected;
      return;
    }
    ++stats_.txs_accepted;
    relay_tx(tx, msg.from, msg.span);
    return;
  }
  if (msg.is<chain_msg::CompactBlockMsg>()) {
    const auto& c = net::payload_as<chain_msg::CompactBlockMsg>(msg);
    const BlockId id = c.header.id();
    if (known_blocks_.contains(id) || pending_compact_.count(id) > 0) {
      return;
    }
    PendingCompact pending{c.header, c.coinbase,
                           std::vector<std::optional<Transaction>>(
                               c.tx_ids.size()),
                           msg.from, msg.span};
    std::vector<std::uint32_t> missing;
    for (std::size_t i = 0; i < c.tx_ids.size(); ++i) {
      if (const Transaction* tx = mempool_.find(c.tx_ids[i])) {
        pending.txs[i] = *tx;
      } else {
        missing.push_back(static_cast<std::uint32_t>(i));
      }
    }
    pending_compact_.emplace(id, std::move(pending));
    if (missing.empty()) {
      try_complete_compact(id);
    } else {
      const std::size_t bytes = 48 + 4 * missing.size();
      net_.send(addr_, msg.from,
                chain_msg::GetBlockTxnsMsg{id, std::move(missing)}, bytes,
                /*cookie=*/0, msg.span);
    }
    return;
  }
  if (msg.is<chain_msg::GetBlockTxnsMsg>()) {
    const auto& req = net::payload_as<chain_msg::GetBlockTxnsMsg>(msg);
    if (!tree_.contains(req.block)) return;
    const BlockPtr& b = tree_.entry(req.block).block;
    chain_msg::BlockTxnsMsg reply;
    reply.block = req.block;
    std::size_t bytes = 48;
    for (std::uint32_t idx : req.indexes) {
      const std::size_t tx_index = static_cast<std::size_t>(idx) + 1;
      if (tx_index >= b->txs().size()) continue;
      reply.indexes.push_back(idx);
      reply.txs.push_back(b->txs()[tx_index]);
      bytes += b->txs()[tx_index].wire_size();
    }
    net_.send(addr_, msg.from, std::move(reply), bytes, /*cookie=*/0,
              msg.span);
    return;
  }
  if (msg.is<chain_msg::BlockTxnsMsg>()) {
    const auto& r = net::payload_as<chain_msg::BlockTxnsMsg>(msg);
    const auto it = pending_compact_.find(r.block);
    if (it == pending_compact_.end()) return;
    for (std::size_t k = 0; k < r.indexes.size() && k < r.txs.size(); ++k) {
      const std::size_t i = r.indexes[k];
      if (i < it->second.txs.size()) it->second.txs[i] = r.txs[k];
    }
    try_complete_compact(r.block);
    return;
  }
  if (msg.is<GetBlock>()) {
    const BlockId& id = net::payload_as<GetBlock>(msg).id;
    if (tree_.contains(id)) {
      const BlockPtr& b = tree_.entry(id).block;
      net_.send(addr_, msg.from, BlockMsg{b}, b->wire_size(), /*cookie=*/0,
                msg.span);
    }
    return;
  }
  if (msg.is<GetProof>()) {
    const auto& req = net::payload_as<GetProof>(msg);
    // Scan the active chain for the transaction (an index would be the
    // production answer; linear scan keeps the node simple).
    ProofMsg reply;
    reply.nonce = req.nonce;
    reply.tx = req.tx;
    for (const BlockPtr& b : tree_.active_chain()) {
      const std::vector<Transaction>& txs = b->txs();
      for (std::size_t i = 0; i < txs.size(); ++i) {
        if (txs[i].id() == req.tx) {
          std::vector<crypto::Hash256> leaves;
          leaves.reserve(txs.size());
          for (const Transaction& t : txs) leaves.push_back(t.id());
          crypto::MerkleTree mt(std::move(leaves));
          reply.found = true;
          reply.header = b->header();
          reply.index = i;
          reply.proof = mt.prove(i);
          break;
        }
      }
      if (reply.found) break;
    }
    const std::size_t bytes = 80 + 33 * reply.proof.size();
    net_.send(addr_, msg.from, std::move(reply), bytes);
    return;
  }
}

}  // namespace decentnet::chain
