// Block tree with cumulative-work fork choice and reorg planning.
//
// Stores every block seen (blocks are immutable and shared between nodes via
// shared_ptr, so a 200-node network holds one copy of each block). The
// active chain is the tip with the most cumulative work; find_reorg()
// computes the revert/apply path between two tips.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/types.hpp"

namespace decentnet::chain {

using BlockPtr = std::shared_ptr<const Block>;

struct BlockIndexEntry {
  BlockPtr block;
  std::uint64_t height = 0;
  double cumulative_work = 0;
  bool invalid = false;  // failed full validation; never part of best chain
};

/// The revert/apply plan for switching the active tip.
struct ReorgPlan {
  std::vector<BlockPtr> revert;  // from old tip down to the fork point
  std::vector<BlockPtr> apply;   // from the fork point up to the new tip
};

class BlockTree {
 public:
  /// Creates the tree rooted at a genesis block.
  explicit BlockTree(BlockPtr genesis);

  const BlockId& genesis_id() const { return genesis_id_; }
  const BlockId& best_tip() const { return best_tip_; }
  const BlockIndexEntry& entry(const BlockId& id) const {
    return index_.at(id);
  }
  bool contains(const BlockId& id) const {
    return index_.find(id) != index_.end();
  }
  std::size_t size() const { return index_.size(); }

  std::uint64_t best_height() const { return index_.at(best_tip_).height; }
  double best_work() const { return index_.at(best_tip_).cumulative_work; }

  /// Insert a block whose parent is already present. Returns false if the
  /// parent is unknown or the block is a duplicate. Updates the best tip if
  /// the new block has more cumulative work.
  bool insert(BlockPtr block);

  /// True if inserting made `id` the best tip the last time.
  /// (Callers usually just compare best_tip() before and after.)

  /// Walk the active chain from genesis to tip.
  std::vector<BlockPtr> active_chain() const;

  /// Compute the revert/apply lists to move from `from` tip to `to` tip.
  ReorgPlan find_reorg(const BlockId& from, const BlockId& to) const;

  /// Mark a block (and implicitly its descendants) invalid and recompute the
  /// best tip among chains free of invalid blocks.
  void mark_invalid(const BlockId& id);

  /// Number of blocks ever inserted that are NOT on the active chain
  /// (stale/orphaned work — E10's fork-rate metric).
  std::size_t stale_count() const;

 private:
  BlockId genesis_id_;
  BlockId best_tip_;
  std::unordered_map<BlockId, BlockIndexEntry, crypto::Hash256Hasher> index_;
};

/// Build a deterministic genesis block paying `reward` to `owner`.
BlockPtr make_genesis(const crypto::PublicKey& owner, Amount reward,
                      double difficulty);

/// Genesis with a premine: one output per (owner, amount) entry. Lets
/// experiments fund many wallets without waiting for coinbase maturity.
BlockPtr make_genesis_multi(
    const std::vector<std::pair<crypto::PublicKey, Amount>>& premine,
    double difficulty);

}  // namespace decentnet::chain
