#include "chain/mempool.hpp"

#include <algorithm>
#include <unordered_set>

namespace decentnet::chain {

std::optional<ValidationError> Mempool::add(const Transaction& tx,
                                            const UtxoSet& utxos) {
  const TxId id = tx.id();
  if (txs_.count(id) > 0) return ValidationError{"already in mempool"};
  if (tx.is_coinbase()) return ValidationError{"coinbase in mempool"};
  for (const TxInput& in : tx.inputs()) {
    if (claimed_.contains(in.prevout)) {
      return ValidationError{"conflicts with pooled transaction"};
    }
  }
  const auto err = utxos.check_transaction(tx, /*allow_coinbase=*/false, 0);
  if (err) return err;
  for (const TxInput& in : tx.inputs()) claimed_.insert(in.prevout, id);
  txs_.emplace(id, tx);
  return std::nullopt;
}

void Mempool::drop(const TxId& id) {
  const auto it = txs_.find(id);
  if (it == txs_.end()) return;
  for (const TxInput& in : it->second.inputs()) claimed_.erase(in.prevout);
  txs_.erase(it);
}

void Mempool::remove_confirmed(const Block& block) {
  // Drop each included tx and whichever pooled tx claims an outpoint the
  // block spends. Erasing never reorders txs_'s remaining elements, so the
  // pool's iteration order does not depend on the order of these drops.
  for (const Transaction& tx : block.txs()) {
    if (!tx.is_coinbase()) drop(tx.id());
    for (const TxInput& in : tx.inputs()) {
      if (const TxId* spender = claimed_.find(in.prevout)) {
        drop(TxId{*spender});  // a copy: dropping invalidates `spender`
      }
    }
  }
}

void Mempool::reinstate(const Block& block, const UtxoSet& utxos) {
  for (const Transaction& tx : block.txs()) {
    if (tx.is_coinbase()) continue;
    add(tx, utxos);  // best effort; conflicts are silently skipped
  }
}

std::vector<Transaction> Mempool::select_for_block(
    const UtxoSet& utxos, std::size_t max_bytes) const {
  struct Candidate {
    const Transaction* tx;
    double fee_rate;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(txs_.size());
  for (const auto& [id, tx] : txs_) {
    const auto fee = transaction_fee(utxos, tx);
    if (!fee) continue;  // inputs no longer unspent; leave for cleanup
    candidates.push_back(
        Candidate{&tx, static_cast<double>(*fee) /
                           static_cast<double>(tx.wire_size())});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.fee_rate > b.fee_rate;
            });
  std::vector<Transaction> selected;
  std::unordered_set<OutPoint, OutPointHasher> spent;
  std::size_t bytes = 0;
  for (const Candidate& c : candidates) {
    const std::size_t sz = c.tx->wire_size();
    if (bytes + sz > max_bytes) continue;
    bool conflict = false;
    for (const TxInput& in : c.tx->inputs()) {
      if (spent.count(in.prevout) > 0) {
        conflict = true;
        break;
      }
    }
    if (conflict) continue;
    for (const TxInput& in : c.tx->inputs()) spent.insert(in.prevout);
    selected.push_back(*c.tx);
    bytes += sz;
  }
  return selected;
}

}  // namespace decentnet::chain
