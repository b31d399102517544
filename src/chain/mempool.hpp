// Transaction memory pool with fee-rate ordering and conflict tracking.
//
// Admission requires inputs to be unspent in the node's current UTXO view
// and not already claimed by another pooled transaction (no unconfirmed
// chaining — workloads spend confirmed outputs only, which keeps conflict
// semantics exact without ancestor scoring). Every pooled tx passed its
// signature checks, so the pool is also its node's signature cache (see
// UtxoSet::apply_block). A spender index maps each claimed outpoint to the
// pooled tx that spends it, so a new block evicts its conflicts with one
// lookup per block input instead of a scan of the pool.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/ledger.hpp"
#include "chain/types.hpp"
#include "sim/lookup_table.hpp"

namespace decentnet::chain {

class Mempool {
 public:
  std::size_t size() const { return txs_.size(); }
  bool contains(const TxId& id) const { return txs_.find(id) != txs_.end(); }

  /// Pooled transaction by id (compact-block reconstruction); nullptr if
  /// absent.
  const Transaction* find(const TxId& id) const {
    const auto it = txs_.find(id);
    return it == txs_.end() ? nullptr : &it->second;
  }

  /// Try to admit `tx`; validates against `utxos`. Returns the reason on
  /// rejection.
  std::optional<ValidationError> add(const Transaction& tx,
                                     const UtxoSet& utxos);

  /// Remove transactions included in (or conflicting with) a new block.
  void remove_confirmed(const Block& block);

  /// Re-admit transactions from a reverted block (reorg), skipping the
  /// coinbase and anything now conflicting.
  void reinstate(const Block& block, const UtxoSet& utxos);

  /// Highest-fee-rate transactions fitting in `max_bytes` (greedy knapsack,
  /// the standard miner policy). Fees are computed against `utxos`.
  std::vector<Transaction> select_for_block(const UtxoSet& utxos,
                                            std::size_t max_bytes) const;

 private:
  /// Drop pooled tx `id` (if present) and release its claims.
  void drop(const TxId& id);

  // Iterated by select_for_block, so it keeps std::unordered_map's order.
  std::unordered_map<TxId, Transaction, crypto::Hash256Hasher> txs_;
  // Spender index: claimed outpoint -> the pooled tx spending it.
  sim::LookupTable<OutPoint, TxId, OutPointHasher> claimed_;
};

}  // namespace decentnet::chain
