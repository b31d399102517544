// Full node: validation, longest-(most-work)-chain fork choice with reorgs,
// mempool, and flood relay of blocks and transactions over the P2P mesh.
//
// This is the "large unstructured broadcast network where all nodes validate
// transactions" whose costs the paper's Problem 2 dissects.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chain/blocktree.hpp"
#include "chain/ledger.hpp"
#include "chain/mempool.hpp"
#include "chain/params.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/lookup_table.hpp"

namespace decentnet::chain {

namespace chain_msg {
struct BlockMsg {
  BlockPtr block;
};
/// Compact relay (BIP152-style): header + txids; receivers rebuild the
/// block from their mempool and fetch only what they miss.
struct CompactBlockMsg {
  BlockHeader header;
  Transaction coinbase;        // never in mempools, so always shipped
  std::vector<TxId> tx_ids;    // non-coinbase, in block order
};
struct GetBlockTxnsMsg {
  BlockId block;
  std::vector<std::uint32_t> indexes;  // into CompactBlockMsg::tx_ids
};
struct BlockTxnsMsg {
  BlockId block;
  std::vector<std::uint32_t> indexes;
  std::vector<Transaction> txs;
};
struct TxMsg {
  Transaction tx;  // shares the sender's body; tx.id() is the dedup key
};
struct GetBlock {
  BlockId id;
};
struct HeaderMsg {
  BlockHeader header;
};
/// Light-client inclusion proof protocol.
struct GetProof {
  TxId tx;
  std::uint64_t nonce;
};
struct ProofMsg {
  std::uint64_t nonce;
  bool found = false;
  BlockHeader header;
  TxId tx;
  std::size_t index = 0;
  crypto::MerkleProof proof;
};
}  // namespace chain_msg

struct FullNodeStats {
  std::uint64_t blocks_accepted = 0;
  std::uint64_t blocks_rejected = 0;
  std::uint64_t txs_accepted = 0;
  std::uint64_t txs_rejected = 0;
  std::uint64_t reorgs = 0;
  std::uint64_t reorg_depth_max = 0;
};

class FullNode : public net::Host {
 public:
  using TipHook = std::function<void()>;

  FullNode(net::Network& net, net::NodeId addr, ChainParams params,
           BlockPtr genesis);
  ~FullNode() override;

  FullNode(const FullNode&) = delete;
  FullNode& operator=(const FullNode&) = delete;

  net::NodeId addr() const { return addr_; }
  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return net_; }
  const ChainParams& params() const { return params_; }
  const BlockTree& tree() const { return tree_; }
  const UtxoSet& utxo() const { return utxo_; }
  const Mempool& mempool() const { return mempool_; }
  const FullNodeStats& stats() const { return stats_; }

  void connect(std::vector<net::NodeId> neighbors);

  /// Relay blocks as header + txids instead of full bodies (BIP152-style).
  /// Receivers rebuild from their mempool; bandwidth drops ~40x when
  /// mempools are synchronized, which also shortens propagation and cuts
  /// the stale rate (the E10 ablation).
  void set_compact_relay(bool on) { compact_relay_ = on; }
  bool compact_relay() const { return compact_relay_; }
  /// Register a light client that should receive new headers.
  void add_light_client(net::NodeId n) { light_clients_.push_back(n); }

  /// Invoked whenever the active tip changes (miners re-target on this).
  void add_tip_hook(TipHook hook) { tip_hooks_.push_back(std::move(hook)); }

  /// Locally originated transaction: validate, pool, relay.
  bool submit_transaction(const Transaction& tx);

  /// Block from the local miner: validate, adopt, relay.
  bool submit_block(BlockPtr block);

  /// Assemble a block template on the current tip for `miner`.
  Block make_block_template(const crypto::PublicKey& miner,
                            std::uint64_t nonce) const;

  /// Transactions confirmed on the active chain (excluding coinbases).
  std::uint64_t confirmed_tx_count() const { return confirmed_txs_; }

  void handle_message(const net::Message& msg) override;

 protected:
  /// Accept a block from anywhere; returns true if it was new and valid.
  /// `span` is the causal hop the block arrived on (or a fresh root for
  /// locally mined blocks); relays inherit it so block propagation forms
  /// one tree per block.
  bool accept_block(const BlockPtr& block, net::NodeId from,
                    net::Span span = {});
  void relay_block(const BlockPtr& block, net::NodeId skip, net::Span span);
  void relay_tx(const Transaction& tx, net::NodeId skip, net::Span span);
  /// Move the UTXO view to the tree's best tip (reorg if needed).
  void update_active_chain();
  void process_orphans(const BlockId& parent);
  /// Assemble and accept a compact block once every body is on hand.
  void try_complete_compact(const BlockId& id);
  /// Re-request missing orphan parents until the stash drains. The initial
  /// GetBlock goes to the block's sender exactly once; if that round trip
  /// dies (loss burst, sender crashes), this sweep is the only way the
  /// walk-back ever resumes.
  void schedule_orphan_retry();
  void retry_orphans();

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  ChainParams params_;
  // Experiment-scoped metric handles (aggregated across all nodes sharing
  // the network's registry); per-node numbers stay in stats_.
  sim::Counter& m_blocks_accepted_;
  sim::Counter& m_blocks_rejected_;
  sim::Counter& m_txs_accepted_;
  sim::Counter& m_txs_rejected_;
  sim::Counter& m_reorgs_;
  // Span-derived: relay-tree depth of each accepted block (0 = mined here).
  // Bound only while the network tracks spans (null otherwise).
  sim::Histogram* m_relay_depth_;
  BlockTree tree_;
  UtxoSet utxo_;
  Mempool mempool_;
  BlockId utxo_tip_;  // block the UTXO view corresponds to
  std::unordered_map<BlockId, BlockUndo, crypto::Hash256Hasher> undo_;
  std::vector<net::NodeId> neighbors_;
  std::vector<net::NodeId> light_clients_;
  // Seen-sets: only ever looked up, so their layout cannot reach a result.
  sim::LookupSet<BlockId, crypto::Hash256Hasher> known_blocks_;
  sim::LookupSet<TxId, crypto::Hash256Hasher> known_txs_;
  std::unordered_multimap<BlockId, BlockPtr, crypto::Hash256Hasher> orphans_;
  sim::EventHandle orphan_retry_;
  std::size_t orphan_retry_rr_ = 0;  // round-robin neighbor cursor
  bool compact_relay_ = false;
  struct PendingCompact {
    BlockHeader header;
    Transaction coinbase;
    std::vector<std::optional<Transaction>> txs;  // filled as they arrive
    net::NodeId from;
    net::Span span;  // hop the compact announcement arrived on
  };
  std::unordered_map<BlockId, PendingCompact, crypto::Hash256Hasher>
      pending_compact_;
  std::vector<TipHook> tip_hooks_;
  FullNodeStats stats_;
  std::uint64_t confirmed_txs_ = 0;
};

}  // namespace decentnet::chain
