#include "chain/blocktree.hpp"

#include <algorithm>
#include <functional>
#include <unordered_set>

namespace decentnet::chain {

BlockTree::BlockTree(BlockPtr genesis) {
  genesis_id_ = genesis->id();
  best_tip_ = genesis_id_;
  index_.emplace(genesis_id_,
                 BlockIndexEntry{std::move(genesis), 0, 0.0});
}

bool BlockTree::insert(BlockPtr block) {
  const BlockId id = block->id();
  if (index_.count(id) > 0) return false;
  const auto parent = index_.find(block->header().prev);
  if (parent == index_.end()) return false;
  BlockIndexEntry entry;
  entry.height = parent->second.height + 1;
  entry.cumulative_work =
      parent->second.cumulative_work + block->header().difficulty;
  entry.invalid = parent->second.invalid;  // descendants of invalid: invalid
  entry.block = std::move(block);
  const double work = entry.cumulative_work;
  const bool viable = !entry.invalid;
  index_.emplace(id, std::move(entry));
  if (viable && work > index_.at(best_tip_).cumulative_work) best_tip_ = id;
  return true;
}

std::vector<BlockPtr> BlockTree::active_chain() const {
  std::vector<BlockPtr> chain;
  BlockId cur = best_tip_;
  for (;;) {
    const auto& e = index_.at(cur);
    chain.push_back(e.block);
    if (cur == genesis_id_) break;
    cur = e.block->header().prev;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

ReorgPlan BlockTree::find_reorg(const BlockId& from, const BlockId& to) const {
  ReorgPlan plan;
  BlockId a = from;
  BlockId b = to;
  // Bring both cursors to equal height, collecting passed blocks.
  while (index_.at(a).height > index_.at(b).height) {
    plan.revert.push_back(index_.at(a).block);
    a = index_.at(a).block->header().prev;
  }
  while (index_.at(b).height > index_.at(a).height) {
    plan.apply.push_back(index_.at(b).block);
    b = index_.at(b).block->header().prev;
  }
  while (!(a == b)) {
    plan.revert.push_back(index_.at(a).block);
    plan.apply.push_back(index_.at(b).block);
    a = index_.at(a).block->header().prev;
    b = index_.at(b).block->header().prev;
  }
  std::reverse(plan.apply.begin(), plan.apply.end());
  return plan;
}

void BlockTree::mark_invalid(const BlockId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  it->second.invalid = true;
  // Recompute the best tip among entries with a fully valid ancestry.
  std::unordered_map<BlockId, bool, crypto::Hash256Hasher> tainted;
  std::function<bool(const BlockId&)> is_tainted =
      [&](const BlockId& bid) -> bool {
    const auto memo = tainted.find(bid);
    if (memo != tainted.end()) return memo->second;
    const auto& e = index_.at(bid);
    bool t = e.invalid;
    if (!t && !(bid == genesis_id_)) t = is_tainted(e.block->header().prev);
    tainted[bid] = t;
    return t;
  };
  BlockId best = genesis_id_;
  double best_work = -1;
  for (auto& [bid, e] : index_) {
    if (is_tainted(bid)) {
      e.invalid = true;  // persist so later children inherit it on insert
      continue;
    }
    if (e.cumulative_work > best_work) {
      best_work = e.cumulative_work;
      best = bid;
    }
  }
  best_tip_ = best;
}

std::size_t BlockTree::stale_count() const {
  std::unordered_set<BlockId, crypto::Hash256Hasher> active;
  BlockId cur = best_tip_;
  for (;;) {
    active.insert(cur);
    if (cur == genesis_id_) break;
    cur = index_.at(cur).block->header().prev;
  }
  return index_.size() - active.size();
}

BlockPtr make_genesis_multi(
    const std::vector<std::pair<crypto::PublicKey, Amount>>& premine,
    double difficulty) {
  BlockHeader header;
  header.prev = BlockId{};
  header.timestamp = 0;
  header.difficulty = difficulty;
  MutableTransaction coinbase;
  coinbase.nonce = 0;
  for (const auto& [owner, amount] : premine) {
    coinbase.outputs.push_back(TxOutput{amount, owner});
  }
  return std::make_shared<const Block>(Block::assemble(
      std::move(header), {Transaction(std::move(coinbase))}));
}

BlockPtr make_genesis(const crypto::PublicKey& owner, Amount reward,
                      double difficulty) {
  BlockHeader header;
  header.prev = BlockId{};
  header.timestamp = 0;
  header.difficulty = difficulty;
  header.miner = owner;
  return std::make_shared<const Block>(Block::assemble(
      std::move(header), {make_coinbase(owner, reward, /*nonce=*/0)}));
}

}  // namespace decentnet::chain
