// The simulated network: attach Hosts under NodeIds, send typed messages,
// and let the kernel deliver them after latency + transport delays.
//
// Model: a message leaving `from` first serializes through the sender's
// uplink (net::Transport: FIFO queue wait + size/rate, optionally bounded
// with drop-on-overflow and a TCP-like cwnd — see net/transport.hpp), then
// propagates (LatencyModel sample), then pays the receiver's stateless
// downlink serialization. TransportConfig::mode selects how much of that
// runs; the default (Latency) is pure latency sampling. Messages to offline
// nodes are silently dropped, as on the real Internet. The fault surface —
// uniform loss, overlapping named partitions, NAT unreachability, per-link
// latency penalties, duplication and reordering windows — is scriptable
// through net::FaultPlan (see net/faults.hpp).
//
// One delivery pipeline, sharded or not. Every send runs on the *sending*
// shard's context (NetShard: RNG stream, counters, span table), so the
// parallel phase never contends. An unsharded Network is the one-shard case:
// the constructor builds context 0 over the Network's own Simulator.
// enable_sharding(kernel) routes over a sim::ShardedKernel instead: it
// rebuilds one context per kernel shard, hosts live on the shard of their
// NodeId (kernel.shard_of), and deliveries to another shard travel through
// the kernel's deterministic mailboxes. The Network also computes the
// kernel's conservative lookahead from its latency model (min_latency): no
// message can arrive sooner — transport delays are strictly additive on top
// of the sample — which is what makes the window barrier sound.
// Preconditions for sharding (checked or documented below): enable_sharding
// is called before the first send (it rebuilds the contexts), every NodeId
// is register_node()'d before run_until, and the fault surface (partitions,
// penalties, unreachability, link specs) is configured only between runs.
// Bandwidth/Tcp transport is shard-safe: its mutable state is send-side
// only, keyed by the sender's dense index, and a node's sends always execute
// on its owning shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/node_id.hpp"
#include "net/node_table.hpp"
#include "net/transport.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace decentnet::sim {
class ShardedKernel;  // sim/sharding.hpp; only network.cpp needs the type
class Telemetry;      // sim/telemetry.hpp
}  // namespace decentnet::sim

namespace decentnet::net {

struct NetworkConfig {
  /// Uniform probability that any message is lost in transit.
  double drop_probability = 0.0;
  /// The transport model: mode (Latency/Bandwidth/Tcp), the default
  /// LinkSpec, and the Tcp flow constants. See net/transport.hpp.
  TransportConfig transport;
  /// Expected topology size; pre-sizes the peer table so attach() never
  /// rehashes mid-experiment. 0 keeps the default initial capacity.
  std::size_t expected_nodes = 0;
  /// Causal span tracking: when true, every accepted message is assigned a
  /// fresh hop id chained to its parent (Message::span), a "span" trace
  /// record is emitted per hop, and span-derived metrics (propagation-tree
  /// depth) light up in the protocol layers. Off by default: hop allocation
  /// touches a side table per send, and default-off keeps golden traces
  /// byte-stable. Each shard's table holds 2^26 - 1 hops; a send or
  /// new_span_root past that throws std::length_error.
  bool track_spans = false;

  /// Actionable description of the first invalid field, or nullopt when the
  /// config is usable. Scenario runners reject invalid configs on entry.
  std::optional<std::string> validate() const;
};

class Network {
 public:
  /// `metrics` optionally points at an experiment-scoped registry (e.g.
  /// ExperimentHarness::metrics()); when null the network owns a private
  /// one. Either way components reach it through metrics() and register
  /// their scoped handles there once at construction.
  Network(sim::Simulator& sim, std::unique_ptr<LatencyModel> latency,
          NetworkConfig config = {}, sim::MetricRegistry* metrics = nullptr);

  sim::Simulator& simulator() { return sim_; }
  sim::MetricRegistry& metrics() { return metrics_; }
  LatencyModel& latency_model() { return *latency_; }

  /// Route this network over a sharded kernel. The Network must have been
  /// constructed over kernel.shard(0), and no message may have been sent
  /// yet; sets the kernel's lookahead from the latency model and rebuilds
  /// the send-side contexts, one per shard (RNG stream, counters bound into
  /// kernel.metrics(s), span table). Bandwidth/Tcp transport runs sharded
  /// too (send-side state only — see net/transport.hpp). Throws unless the
  /// Network was constructed over kernel.shard(0). A 1-shard kernel only
  /// gets its lookahead: context 0 already is that kernel.
  void enable_sharding(sim::ShardedKernel& kernel);
  bool sharded() const { return kernel_ != nullptr; }

  /// The kernel shard that owns `id` — the Simulator a node's timers and
  /// local state must live on. The unsharded answer is simulator().
  sim::Simulator& simulator_for(NodeId id);
  /// The registry a node owned by `id`'s shard must bind its handles in
  /// (per-shard in sharded mode so the parallel phase never contends;
  /// metrics() otherwise). Folded back together by
  /// ShardedKernel::merge_metrics_into.
  sim::MetricRegistry& metrics_for(NodeId id);

  /// Conservative lookahead this network supports: the latency model's hard
  /// minimum one-way delay. 0 means "no positive bound" (the sharded kernel
  /// then falls back to sequential stepping).
  sim::SimDuration lookahead() const { return latency_->min_latency(); }

  /// Pre-create the dense-table entry for `id`. Sharded runs must register
  /// every NodeId before run_until: the parallel phase resolves peers with
  /// find-only lookups, and interning concurrently would be a data race.
  /// Idempotent; an unsharded Network interns lazily.
  void register_node(NodeId id) { (void)ensure_node(id); }

  /// Allocate a fresh NodeId (sequential; deterministic).
  NodeId new_node_id() { return NodeId{next_id_++}; }

  /// Dense index assigned to `id` at registration (NodeTable::kNoIndex when
  /// never seen). Stable across churn; exposed for tests and tools that
  /// want to address per-node side data the way the Network does.
  std::uint32_t node_index(NodeId id) const { return table_.index_of(id); }

  /// Bring a host online under `id`. A node may re-attach after detaching
  /// (churn): messages sent while it was offline are gone.
  void attach(NodeId id, Host* host);
  void detach(NodeId id);
  bool online(NodeId id) const {
    const std::uint32_t idx = table_.index_of(id);
    return idx != NodeTable::kNoIndex && hosts_.get(idx) != nullptr;
  }
  std::size_t online_count() const {
    return online_.load(std::memory_order_relaxed);
  }

  /// Pre-size every per-node structure for `n` nodes (same effect as
  /// NetworkConfig::expected_nodes, for callers that learn the topology
  /// size after construction): the dense id table, the host slab, any
  /// materialized cold arrays and the transport state — so registering a
  /// large population never reallocates mid-loop.
  void reserve_nodes(std::size_t n);

  /// Register this network's health series on `telemetry`: windowed rates
  /// over the traffic/drop counters (per shard when sharded, so series merge
  /// by (t, shard, series) stays byte-identical at any --sim-threads), plus
  /// aggregate transport gauges (uplink backlog bytes, busy uplinks, cwnd
  /// sum/max) when a Bandwidth/Tcp transport is active. Call after the
  /// harness instrument()ed the kernel (attach resets registrations) and
  /// after enable_sharding when sharding.
  void register_telemetry(sim::Telemetry& telemetry);

  /// Per-node link override (capacities in bytes per simulated second plus
  /// the bounded-queue depth). Configure between runs only — the sharded
  /// parallel phase reads specs immutably.
  void set_link(NodeId id, const LinkSpec& spec);
  /// The spec governing `id` (the config default when never overridden).
  LinkSpec link(NodeId id) const {
    return transport_.link(table_.index_of(id));
  }
  /// Transport introspection (mode, cwnd state) for tests and benches.
  const Transport& transport() const { return transport_; }

  /// Overlapping named partitions. Each partition splits the node space into
  /// groups: listed nodes belong to their group, unlisted nodes to one
  /// implicit "rest" group. A message is dropped if *any* active partition
  /// places its endpoints in different groups, so several named partitions
  /// can overlap independently (fault plans install and heal them by name).
  /// Installing a name that is already active replaces that partition.
  void add_partition(std::string name,
                     std::vector<std::unordered_set<std::uint64_t>> groups);
  void remove_partition(std::string_view name);
  bool partition_active(std::string_view name) const;
  std::size_t partition_count() const { return partitions_.size(); }

  /// Remove every active partition.
  void clear_partition() { partitions_.clear(); }

  /// NAT/firewall model: an unreachable node can send but never receives —
  /// the connectivity defect the BitTorrent-DHT measurement studies blame
  /// for slow lookups (such nodes keep advertising themselves into routing
  /// tables yet never answer).
  void set_unreachable(NodeId id, bool unreachable);
  bool unreachable(NodeId id) const {
    const std::uint32_t idx = table_.index_of(id);
    return idx < unreachable_.size() && unreachable_[idx] != 0;
  }

  void set_drop_probability(double p) { config_.drop_probability = p; }
  double drop_probability() const { return config_.drop_probability; }

  /// Per-node propagation penalty (congestion / route-flap model): added to
  /// every message the node sends or receives while nonzero.
  void set_latency_penalty(NodeId id, sim::SimDuration extra);
  sim::SimDuration latency_penalty(NodeId id) const {
    return penalty_of(table_.index_of(id));
  }

  /// Duplication window: each delivered message is delivered a second time
  /// with probability `p` (counted under net/duplicated).
  void set_duplicate_probability(double p) { duplicate_probability_ = p; }
  double duplicate_probability() const { return duplicate_probability_; }

  /// Reordering window: each message picks up an extra uniform delay in
  /// [0, jitter], breaking FIFO arrival order while active (messages that
  /// drew a nonzero extra delay count under net/reordered).
  void set_reorder_jitter(sim::SimDuration jitter) {
    reorder_jitter_ = jitter < 0 ? 0 : jitter;
  }
  sim::SimDuration reorder_jitter() const { return reorder_jitter_; }

  /// Send a typed payload. `size_bytes` drives the bandwidth model and the
  /// traffic accounting; pass the protocol's nominal wire size. `cookie` is
  /// free-form per-delivery metadata (hop count, TTL, RPC nonce) surfaced as
  /// Message::cookie at the receiver. `span` is the causal parent (relays
  /// pass the incoming msg.span; origins pass new_span_root()); defaulting it
  /// keeps non-relay callers unchanged.
  template <typename T>
  void send(NodeId from, NodeId to, T payload, std::size_t size_bytes,
            std::uint64_t cookie = 0, Span span = {}) {
    Message m = make_message<T>(from, to, size_bytes, std::move(payload));
    m.cookie = cookie;
    m.span = span;
    deliver(std::move(m));
  }

  /// Zero-copy fan-out: every recipient's delivery references the same
  /// payload allocation; only {from, to, size, cookie, span} differ per send.
  template <typename T>
  void send(NodeId from, NodeId to, sim::Shared<T> payload,
            std::size_t size_bytes, std::uint64_t cookie = 0, Span span = {}) {
    deliver(make_shared_message<T>(from, to, size_bytes, std::move(payload),
                                   cookie, span));
  }

  /// Causal span tracking (see NetworkConfig::track_spans).
  bool span_tracking() const { return config_.track_spans; }

  /// Open a new propagation tree: allocates a virtual root hop at the
  /// current time (emitting a "span" record tagged "root") and returns a
  /// Span whose children — every send that passes it — form one tree. An
  /// origin node broadcasting to k peers calls this once so the fan-out is
  /// a single tree, not k of them. Returns {0, 0} when tracking is off.
  Span new_span_root();

  /// Depth of a hop in its propagation tree (root = 0). Valid for any hop id
  /// a delivered Message::span carries while tracking is on; 0 otherwise.
  /// Safe to call from any shard during a sharded run: hop ids decode to
  /// their allocating shard's table, whose entries were published before the
  /// barrier that carried the hop id across (and chunked storage means the
  /// owner appending more entries never moves published ones).
  std::uint32_t span_depth(std::uint32_t hop) const {
    const std::uint32_t s = hop >> kSpanLocalBits;
    return s < shard_ctx_.size()
               ? shard_ctx_[s].spans.depth(hop & kSpanLocalMask)
               : 0;
  }
  /// Total span hops allocated (message hops + virtual roots). Sharded:
  /// read between runs only (sums per-shard tables).
  std::uint64_t span_hops() const {
    std::uint64_t n = 0;
    for (const NetShard& c : shard_ctx_) n += c.spans.size();
    return n;
  }

  /// Total payload bytes accepted for delivery so far. Sharded: read
  /// between runs only (sums per-shard tallies).
  std::uint64_t bytes_sent() const {
    std::uint64_t n = 0;
    for (const NetShard& c : shard_ctx_) n += c.bytes_sent;
    return n;
  }
  std::uint64_t messages_sent() const {
    std::uint64_t n = 0;
    for (const NetShard& c : shard_ctx_) n += c.messages_sent;
    return n;
  }

 private:
  /// The hot per-node array: one Host* per dense index. Chunked and
  /// pointer-stable — in-flight delivery closures capture the Host** slot,
  /// so appending nodes must never move published slots (a flat vector's
  /// growth would dangle every closure in the event queue). Slots are
  /// null-initialized (= offline) and chunks are never freed.
  class HostSlab {
   public:
    Host** slot(std::uint32_t idx) {
      return &chunks_[idx >> kChunkBits][idx & kChunkMask];
    }
    Host* get(std::uint32_t idx) const {
      return idx < capacity_ ? chunks_[idx >> kChunkBits][idx & kChunkMask]
                             : nullptr;
    }
    /// Guarantee slots [0, idx] exist. One compare when already sized.
    void ensure(std::uint32_t idx) {
      if (idx >= capacity_) grow(idx);
    }
    void reserve(std::size_t n) {
      chunks_.reserve((n >> kChunkBits) + 1);
      if (n > 0) grow(static_cast<std::uint32_t>(n - 1));
    }

   private:
    static constexpr std::uint32_t kChunkBits = 14;  // 16384 slots = 128 KB
    static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
    void grow(std::uint32_t idx);

    std::vector<std::unique_ptr<Host*[]>> chunks_;
    std::uint32_t capacity_ = 0;
  };

  /// One active named partition, as a dense side table rebuilt only when
  /// partitions change: dense index -> group; indices past the end (nodes
  /// registered after install, or never listed) read as kRestGroup.
  struct Partition {
    std::string name;
    std::vector<std::uint32_t> group_of;
  };
  static constexpr std::uint32_t kRestGroup = ~0u;

  /// Span hop ids encode (shard, local id): 6 shard bits (up to
  /// ShardedKernel::kMaxShards shards, asserted in enable_sharding), 26
  /// local bits (2^26 - 1 hops per shard per run). Shard 0's prefix is 0, so
  /// unsharded hop ids are plain local ids.
  static constexpr std::uint32_t kSpanLocalBits = 26;
  static constexpr std::uint32_t kSpanLocalMask = (1u << kSpanLocalBits) - 1;

  /// Per-shard hop-depth table with chunked, pointer-stable storage: the
  /// owning shard appends, other shards read hops they received through a
  /// mailbox barrier. The chunk directory is fixed and chunks are allocated
  /// on first use, so appending never moves published entries (cross-shard
  /// depth reads are race-free under the barrier's happens-before edge) and
  /// a growing table never spikes peak RSS with a vector's doubling.
  class ShardSpanTable {
   public:
    /// Append a hop with `depth`; returns its local id (>= 1). Owner only.
    /// Throws std::length_error once the 2^26 - 1 local ids are used up.
    std::uint32_t alloc(std::uint32_t depth) {
      if (next_ > kSpanLocalMask) {
        throw std::length_error(
            "Network: span table full: a shard can allocate at most "
            "2^26 - 1 = 67108863 span hops per run");
      }
      const std::uint32_t local = next_++;
      const std::uint32_t chunk = local >> kChunkBits;
      if (!chunks_[chunk]) {
        chunks_[chunk] = std::make_unique<std::uint32_t[]>(kChunkSize);
      }
      chunks_[chunk][local & (kChunkSize - 1)] = depth;
      return local;
    }
    /// Depth of `local`; 0 for 0 / never-allocated ids (root depth): chunks
    /// are zero-filled and id 0 is never written.
    std::uint32_t depth(std::uint32_t local) const {
      const std::uint32_t chunk = local >> kChunkBits;
      if (chunk >= kChunks || !chunks_[chunk]) return 0;
      return chunks_[chunk][local & (kChunkSize - 1)];
    }
    std::uint64_t size() const { return next_ - 1; }

   private:
    static constexpr std::uint32_t kChunkBits = 16;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
    static constexpr std::uint32_t kChunks = 1u << (kSpanLocalBits -
                                                    kChunkBits);
    std::unique_ptr<std::uint32_t[]> chunks_[kChunks];
    std::uint32_t next_ = 1;  // local ids start at 1 (0 = "untracked")
  };

  /// Send-side state of one kernel shard (context 0 is the whole unsharded
  /// network): sends executing on shard s use only this context, so the
  /// parallel phase shares nothing mutable. Sharded, the counters live in
  /// the kernel's per-shard registries and are folded into the experiment
  /// registry after the run (deterministic shard order). Handles are
  /// registered once; the per-message path never does a string lookup.
  struct NetShard {
    NetShard(sim::Simulator& s, sim::MetricRegistry& reg);
    sim::Simulator* sim;
    sim::MetricRegistry* metrics;
    sim::Rng rng;
    std::uint64_t messages_sent = 0;
    std::uint64_t bytes_sent = 0;
    sim::Counter* m_messages_sent;
    sim::Counter* m_bytes_sent;
    sim::Counter* m_dropped_partition;
    sim::Counter* m_dropped_unreachable;
    sim::Counter* m_dropped_loss;
    sim::Counter* m_dropped_offline;
    sim::Counter* m_dropped_queue;
    sim::Counter* m_duplicated;
    sim::Counter* m_reordered;
    sim::Counter* m_span_hops;
    /// Hop id -> tree depth, one entry per accepted message (plus one per
    /// new_span_root) while tracking is on.
    ShardSpanTable spans;
  };

  void deliver(Message msg);
  void schedule_delivery(std::size_t src_shard, std::size_t dst_shard,
                         Host** dst, sim::SimTime arrive, Message msg,
                         std::uint64_t msg_seq);
  std::uint32_t alloc_span_hop(std::uint32_t shard, std::uint32_t parent);
  /// The shard executing the caller (0 when unsharded).
  std::uint32_t current_shard() const;
  /// The shard that owns `id` (0 when unsharded).
  std::size_t shard_of(NodeId id) const;
  /// Intern `id` and guarantee its host slot (and nothing else — cold
  /// arrays stay lazy) exists. The only mutating resolver; the sharded
  /// parallel phase must never reach it with an unseen id.
  std::uint32_t ensure_node(NodeId id) {
    const std::uint32_t idx = table_.intern(id);
    hosts_.ensure(idx);
    // Transport state grows here too (a no-op branch in Latency mode), so
    // sharded Bandwidth/Tcp runs — which register every node up front —
    // never resize the send-side arrays during the parallel phase.
    transport_.ensure(idx);
    return idx;
  }
  sim::SimDuration penalty_of(std::uint32_t idx) const {
    return idx < latency_extra_.size() ? latency_extra_[idx] : 0;
  }
  bool unreachable_at(std::uint32_t idx) const {
    return idx < unreachable_.size() && unreachable_[idx] != 0;
  }
  bool partitioned(std::uint32_t a, std::uint32_t b) const;

  sim::Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  NetworkConfig config_;
  std::unique_ptr<sim::MetricRegistry> owned_metrics_;
  sim::MetricRegistry& metrics_;
  std::uint64_t next_id_ = 1;
  /// Atomic because churn transitions attach/detach on their peer's shard;
  /// relaxed is enough (it is a tally, not a synchronization point).
  std::atomic<std::size_t> online_{0};
  double duplicate_probability_ = 0.0;
  sim::SimDuration reorder_jitter_ = 0;
  /// Per-node state, struct-of-arrays behind table_'s dense index: the
  /// delivery path touches hosts_ (and, rarely, the cold arrays below) with
  /// plain array indexing — no hash lookup per message. Cold arrays are
  /// empty until the matching fault/bandwidth feature is first used, and
  /// short reads past their end mean "default" — so a million idle nodes
  /// cost 8 bytes each here, not a 56-byte hash node.
  NodeTable table_;
  HostSlab hosts_;
  /// Send-side link queues / cwnd state, indexed by table_'s dense index.
  /// Empty (zero-cost) in Latency mode — E20's million-node overlays never
  /// pay for idle transport slots.
  Transport transport_;
  std::vector<sim::SimDuration> latency_extra_;  // empty/short = no penalty
  std::vector<std::uint8_t> unreachable_;        // empty/short = reachable
  std::vector<Partition> partitions_;
  /// Non-null once enable_sharding() wired a multi-shard kernel.
  sim::ShardedKernel* kernel_ = nullptr;
  /// One context per shard; just context 0 until enable_sharding.
  std::deque<NetShard> shard_ctx_;  // deque: counter/table addresses stable
};

}  // namespace decentnet::net
