#include "chain/ledger.hpp"

#include <variant>

#include "chain/mempool.hpp"

namespace decentnet::chain {

std::optional<TxOutput> UtxoSet::get(const OutPoint& op) const {
  const TxOutput* out = utxos_.find(op);
  if (out == nullptr) return std::nullopt;
  return *out;
}

Amount UtxoSet::balance_of(const crypto::PublicKey& owner) const {
  const auto it = by_owner_.find(owner);
  if (it == by_owner_.end()) return 0;
  Amount total = 0;
  for (const auto& [op, amount] : it->second) total += amount;
  return total;
}

std::vector<std::pair<OutPoint, TxOutput>> UtxoSet::outputs_of(
    const crypto::PublicKey& owner) const {
  std::vector<std::pair<OutPoint, TxOutput>> outs;
  const auto it = by_owner_.find(owner);
  if (it == by_owner_.end()) return outs;
  outs.reserve(it->second.size());
  for (const auto& [op, amount] : it->second) {
    outs.emplace_back(op, TxOutput{amount, owner});
  }
  return outs;
}

void UtxoSet::index_add(const OutPoint& op, const TxOutput& out) {
  by_owner_[out.recipient][op] = out.amount;
}

void UtxoSet::index_remove(const OutPoint& op, const TxOutput& out) {
  const auto it = by_owner_.find(out.recipient);
  if (it == by_owner_.end()) return;
  it->second.erase(op);
  if (it->second.empty()) by_owner_.erase(it);
}

std::optional<ValidationError> UtxoSet::check_transaction(
    const Transaction& tx, bool allow_coinbase, Amount max_reward) const {
  if (tx.is_coinbase()) {
    if (!allow_coinbase) return ValidationError{"unexpected coinbase"};
    Amount total = 0;
    for (const TxOutput& out : tx.outputs()) {
      if (out.amount < 0) return ValidationError{"negative output"};
      total += out.amount;
    }
    if (max_reward > 0 && total > max_reward) {
      return ValidationError{"coinbase exceeds allowed reward"};
    }
    return std::nullopt;
  }
  if (tx.outputs().empty()) return ValidationError{"no outputs"};
  const crypto::Hash256 digest = tx.signing_digest();
  Amount in_total = 0;
  for (const TxInput& in : tx.inputs()) {
    const auto prev = get(in.prevout);
    if (!prev) return ValidationError{"input not in UTXO set"};
    if (!(prev->recipient == in.owner)) {
      return ValidationError{"input owner mismatch"};
    }
    if (!crypto::KeyAuthority::global().verify(in.owner, digest,
                                               in.signature)) {
      return ValidationError{"bad signature"};
    }
    in_total += prev->amount;
  }
  Amount out_total = 0;
  for (const TxOutput& out : tx.outputs()) {
    if (out.amount < 0) return ValidationError{"negative output"};
    out_total += out.amount;
  }
  if (out_total > in_total) return ValidationError{"outputs exceed inputs"};
  return std::nullopt;
}

std::variant<BlockUndo, ValidationError> UtxoSet::apply_block(
    const Block& block, Amount max_reward, const Mempool* verified) {
  const std::vector<Transaction>& txs = block.txs();
  if (txs.empty() || !txs.front().is_coinbase()) {
    return ValidationError{"block must start with a coinbase"};
  }
  // Stage the changes so failure leaves the set untouched.
  BlockUndo undo;
  std::unordered_map<OutPoint, TxOutput, OutPointHasher> staged_spends;
  std::size_t chained_spends = 0;  // of outputs created earlier in the block
  Amount fees = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const Transaction& tx = txs[i];
    if (i == 0) continue;  // coinbase checked last (needs total fees)
    if (tx.is_coinbase()) return ValidationError{"coinbase not first"};
    // Keyed by txid, not by prevout: a different tx spending a pooled tx's
    // coins has another id, so its signatures are still checked.
    const bool check_signatures =
        verified == nullptr || !verified->contains(tx.id());
    const crypto::Hash256 digest = tx.signing_digest();
    Amount in_total = 0;
    for (const TxInput& in : tx.inputs()) {
      if (staged_spends.count(in.prevout) > 0) {
        return ValidationError{"intra-block double spend"};
      }
      // The input may come from an earlier tx in this same block.
      auto prev = get(in.prevout);
      if (!prev) {
        bool found = false;
        for (std::size_t j = 0; j < i && !found; ++j) {
          if (txs[j].id() == in.prevout.tx &&
              in.prevout.index < txs[j].outputs().size()) {
            prev = txs[j].outputs()[in.prevout.index];
            found = true;
          }
        }
        if (!found) return ValidationError{"input not found"};
        ++chained_spends;
      }
      if (!(prev->recipient == in.owner)) {
        return ValidationError{"input owner mismatch"};
      }
      if (check_signatures &&
          !crypto::KeyAuthority::global().verify(in.owner, digest,
                                                 in.signature)) {
        return ValidationError{"bad signature"};
      }
      staged_spends.emplace(in.prevout, *prev);
      in_total += prev->amount;
    }
    Amount out_total = 0;
    for (const TxOutput& out : tx.outputs()) {
      if (out.amount < 0) return ValidationError{"negative output"};
      out_total += out.amount;
    }
    if (out_total > in_total) return ValidationError{"outputs exceed inputs"};
    fees += in_total - out_total;
  }
  // Coinbase value check: reward + fees.
  {
    const Transaction& cb = txs.front();
    Amount total = 0;
    for (const TxOutput& out : cb.outputs()) {
      if (out.amount < 0) return ValidationError{"negative coinbase output"};
      total += out.amount;
    }
    if (max_reward > 0 && total > max_reward + fees) {
      return ValidationError{"coinbase exceeds reward plus fees"};
    }
  }
  // Commit. An output created and spent inside this block never enters the
  // set, so it is neither added nor recorded in the undo data.
  for (const auto& [op, out] : staged_spends) {
    if (!utxos_.erase(op)) continue;  // created earlier in this block
    undo.spent.emplace_back(op, out);
    index_remove(op, out);
  }
  // One allocation for the block's outputs (a genesis premine is thousands).
  std::size_t created = 0;
  for (const Transaction& tx : txs) created += tx.outputs().size();
  utxos_.reserve(utxos_.size() + created);
  for (const Transaction& tx : txs) {
    const TxId id = tx.id();
    undo.created.push_back(id);
    for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) {
      const OutPoint op{id, i};
      if (chained_spends > 0 && staged_spends.count(op) > 0) continue;
      utxos_.insert_or_assign(op, tx.outputs()[i]);
      index_add(op, tx.outputs()[i]);
    }
  }
  return undo;
}

void UtxoSet::revert_block(const Block& block, const BlockUndo& undo) {
  for (const Transaction& tx : block.txs()) {
    const TxId id = tx.id();
    for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) {
      const OutPoint op{id, i};
      index_remove(op, tx.outputs()[i]);
      utxos_.erase(op);
    }
  }
  for (const auto& [op, out] : undo.spent) {
    utxos_.insert_or_assign(op, out);
    index_add(op, out);
  }
}

std::optional<ValidationError> UtxoSet::apply_transaction(
    const Transaction& tx) {
  const auto err = check_transaction(tx, /*allow_coinbase=*/false, 0);
  if (err) return err;
  const TxId id = tx.id();
  for (const TxInput& in : tx.inputs()) {
    if (const TxOutput* out = utxos_.find(in.prevout)) {
      index_remove(in.prevout, *out);
      utxos_.erase(in.prevout);
    }
  }
  for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) {
    const OutPoint op{id, i};
    utxos_.insert_or_assign(op, tx.outputs()[i]);
    index_add(op, tx.outputs()[i]);
  }
  return std::nullopt;
}

std::optional<Amount> transaction_fee(const UtxoSet& utxos,
                                      const Transaction& tx) {
  if (tx.is_coinbase()) return Amount{0};
  Amount in_total = 0;
  for (const TxInput& in : tx.inputs()) {
    const auto prev = utxos.get(in.prevout);
    if (!prev) return std::nullopt;
    in_total += prev->amount;
  }
  Amount out_total = 0;
  for (const TxOutput& out : tx.outputs()) out_total += out.amount;
  return in_total - out_total;
}

}  // namespace decentnet::chain
