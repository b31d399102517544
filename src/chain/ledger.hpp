// UTXO set with full validation and reorg support.
//
// apply_block() validates a block's transactions against the current set
// (existence, ownership signature, value conservation, no intra-block double
// spend) and returns undo data so revert_block() can unwind it — the
// primitive behind longest-chain reorgs.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>

#include "chain/types.hpp"
#include "sim/lookup_table.hpp"

namespace decentnet::chain {

class Mempool;

struct ValidationError {
  std::string reason;
};

/// Undo record: outputs consumed by the block (to restore) and the ids of
/// transactions whose outputs must be deleted on revert.
struct BlockUndo {
  std::vector<std::pair<OutPoint, TxOutput>> spent;
  std::vector<TxId> created;
};

class UtxoSet {
 public:
  UtxoSet() = default;

  std::size_t size() const { return utxos_.size(); }

  bool contains(const OutPoint& op) const { return utxos_.contains(op); }
  std::optional<TxOutput> get(const OutPoint& op) const;

  /// Sum of unspent outputs payable to `owner`.
  Amount balance_of(const crypto::PublicKey& owner) const;
  /// Unspent outputs payable to `owner` (for coin selection).
  std::vector<std::pair<OutPoint, TxOutput>> outputs_of(
      const crypto::PublicKey& owner) const;

  /// Validate one transaction against the current set (standalone check;
  /// does not mutate). `max_reward` bounds coinbase value when nonzero.
  std::optional<ValidationError> check_transaction(const Transaction& tx,
                                                   bool allow_coinbase,
                                                   Amount max_reward) const;

  /// Validate and apply a whole block. On success returns undo data; on
  /// failure the set is unchanged and the error is returned.
  ///
  /// `verified` is the applying node's own mempool, its signature cache:
  /// it admitted a tx only after checking its signatures, and a txid
  /// commits to every owner, signature and signed field, so the signatures
  /// of a tx whose id it holds are not checked again. Every other
  /// signature is.
  std::variant<BlockUndo, ValidationError> apply_block(
      const Block& block, Amount max_reward,
      const Mempool* verified = nullptr);

  /// Unwind a previously applied block (must be the most recent one on this
  /// branch; callers maintain the discipline).
  void revert_block(const Block& block, const BlockUndo& undo);

  /// Apply a single (non-coinbase) transaction — used by mempool admission.
  std::optional<ValidationError> apply_transaction(const Transaction& tx);

 private:
  void index_add(const OutPoint& op, const TxOutput& out);
  void index_remove(const OutPoint& op, const TxOutput& out);

  // Only ever looked up, never iterated, so its layout cannot reach a
  // result.
  sim::LookupTable<OutPoint, TxOutput, OutPointHasher> utxos_;
  // Secondary index: owner -> outpoints. Wallet-facing queries (balance,
  // coin selection) would otherwise scan the whole set, which dominates
  // whole-network simulations.
  std::unordered_map<crypto::PublicKey,
                     std::unordered_map<OutPoint, Amount, OutPointHasher>,
                     crypto::Hash256Hasher>
      by_owner_;
};

/// Total fee of `tx` given the outputs it spends; nullopt if inputs missing.
std::optional<Amount> transaction_fee(const UtxoSet& utxos,
                                      const Transaction& tx);

}  // namespace decentnet::chain
