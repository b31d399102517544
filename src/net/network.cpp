#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/sharding.hpp"
#include "sim/telemetry.hpp"

namespace decentnet::net {

std::optional<std::string> NetworkConfig::validate() const {
  if (drop_probability < 0 || drop_probability > 1) {
    return "NetworkConfig: drop_probability must be in [0, 1], got " +
           std::to_string(drop_probability);
  }
  if (auto err = transport.validate()) {
    return "NetworkConfig: " + *err;
  }
  return std::nullopt;
}

Network::NetShard::NetShard(sim::Simulator& s, sim::MetricRegistry& reg)
    : sim(&s),
      metrics(&reg),
      rng(s.rng().fork(0x4E457457u)),
      m_messages_sent(&reg.counter("net/messages_sent")),
      m_bytes_sent(&reg.counter("net/bytes_sent")),
      m_dropped_partition(&reg.counter("net/dropped_partition")),
      m_dropped_unreachable(&reg.counter("net/dropped_unreachable")),
      m_dropped_loss(&reg.counter("net/dropped_loss")),
      m_dropped_offline(&reg.counter("net/dropped_offline")),
      m_dropped_queue(&reg.counter("net/queue_dropped")),
      m_duplicated(&reg.counter("net/duplicated")),
      m_reordered(&reg.counter("net/reordered")),
      m_span_hops(&reg.counter("net/span_hops")) {}

Network::Network(sim::Simulator& sim, std::unique_ptr<LatencyModel> latency,
                 NetworkConfig config, sim::MetricRegistry* metrics)
    : sim_(sim),
      latency_(std::move(latency)),
      config_(config),
      owned_metrics_(metrics ? nullptr
                             : std::make_unique<sim::MetricRegistry>()),
      metrics_(metrics ? *metrics : *owned_metrics_),
      transport_(config.transport) {
  shard_ctx_.emplace_back(sim_, metrics_);  // context 0: the unsharded case
  if (config_.expected_nodes > 0) reserve_nodes(config_.expected_nodes);
}

void Network::HostSlab::grow(std::uint32_t idx) {
  while (capacity_ <= idx) {
    auto chunk = std::make_unique<Host*[]>(std::size_t{1} << kChunkBits);
    std::fill_n(chunk.get(), std::size_t{1} << kChunkBits, nullptr);
    chunks_.push_back(std::move(chunk));
    capacity_ += 1u << kChunkBits;
  }
}

void Network::reserve_nodes(std::size_t n) {
  table_.reserve(n);
  hosts_.reserve(n);
  // Cold arrays stay lazy; but once materialized, keep growth amortized.
  if (!latency_extra_.empty()) latency_extra_.reserve(n);
  if (!unreachable_.empty()) unreachable_.reserve(n);
  transport_.reserve(n);
}

std::uint32_t Network::current_shard() const {
  return kernel_ != nullptr ? sim::ShardedKernel::current_shard() : 0;
}

std::size_t Network::shard_of(NodeId id) const {
  return kernel_ != nullptr ? kernel_->shard_of(id.value) : 0;
}

std::uint32_t Network::alloc_span_hop(std::uint32_t shard,
                                      std::uint32_t parent) {
  const std::uint32_t depth = parent != 0 ? span_depth(parent) + 1 : 0;
  NetShard& ctx = shard_ctx_[shard];
  const std::uint32_t local = ctx.spans.alloc(depth);
  ctx.m_span_hops->add();
  return (shard << kSpanLocalBits) | local;
}

Span Network::new_span_root() {
  if (!config_.track_spans) return {};
  const std::uint32_t s = current_shard();
  const std::uint32_t self = alloc_span_hop(s, 0);
  sim::Simulator& cur = *shard_ctx_[s].sim;
  if (sim::TraceSink* const tr = cur.trace()) {
    tr->record({cur.now(), "span", "root", self, self, 0, 0});
  }
  return Span{self, self};
}

void Network::attach(NodeId id, Host* host) {
  // Sharded runs pre-register every node, so this resolves without
  // mutating the table during the parallel phase (churn re-attaches on the
  // owning shard).
  Host** const slot = hosts_.slot(ensure_node(id));
  if (*slot == nullptr) online_.fetch_add(1, std::memory_order_relaxed);
  *slot = host;
}

void Network::detach(NodeId id) {
  const std::uint32_t idx = table_.index_of(id);
  if (idx == NodeTable::kNoIndex) return;
  Host** const slot = hosts_.slot(idx);
  if (*slot != nullptr) {
    *slot = nullptr;  // cold per-node state survives churn
    online_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Network::enable_sharding(sim::ShardedKernel& kernel) {
  kernel.set_lookahead(latency_->min_latency());
  if (kernel.shard_count() <= 1) return;  // context 0 already is that kernel
  if (&kernel.shard(0) != &sim_) {
    throw std::invalid_argument(
        "Network::enable_sharding: the Network must be constructed over "
        "kernel.shard(0)");
  }
  static_assert(sim::ShardedKernel::kMaxShards <=
                    std::size_t{1} << (32 - kSpanLocalBits),
                "span hop ids must hold every shard index");
  kernel_ = &kernel;
  shard_ctx_.clear();
  for (std::size_t s = 0; s < kernel.shard_count(); ++s) {
    // Each context forks its shard's root stream with the same tag; shard
    // 0's root (sim_) is forked a second time here, so its draws differ from
    // the constructor's context 0 — deterministic either way.
    shard_ctx_.emplace_back(kernel.shard(s), kernel.metrics(s));
  }
}

void Network::register_telemetry(sim::Telemetry& telemetry) {
  // Rate series over each context's counters, under the shard index, so the
  // merged stream is a pure function of the decomposition (the kernel
  // samples at barriers).
  for (std::uint32_t s = 0; s < shard_ctx_.size(); ++s) {
    const NetShard& c = shard_ctx_[s];
    telemetry.add_rate("net/messages_sent", s, *c.m_messages_sent);
    telemetry.add_rate("net/bytes_sent", s, *c.m_bytes_sent);
    telemetry.add_rate("net/queue_dropped", s, *c.m_dropped_queue);
    telemetry.add_rate("net/dropped_loss", s, *c.m_dropped_loss);
    telemetry.add_rate("net/dropped_partition", s, *c.m_dropped_partition);
  }
  if (transport_.active()) {
    // Aggregates over every sender's (send-side, single-writer) state;
    // registered under shard 0 by convention since they span all shards.
    // sample() is const, so reading it from the driver at a barrier is safe.
    const Transport* const tx = &transport_;
    telemetry.add_gauge("net/uplink_queued_bytes", 0, [tx](sim::SimTime t) {
      return tx->sample(t).queued_bytes;
    });
    telemetry.add_gauge("net/busy_uplinks", 0, [tx](sim::SimTime t) {
      return static_cast<double>(tx->sample(t).busy_uplinks);
    });
    if (transport_.mode() == TransportMode::Tcp) {
      telemetry.add_gauge("net/cwnd_total_bytes", 0, [tx](sim::SimTime t) {
        return tx->sample(t).cwnd_total;
      });
      telemetry.add_gauge("net/cwnd_max_bytes", 0, [tx](sim::SimTime t) {
        return tx->sample(t).cwnd_max;
      });
    }
  }
}

sim::Simulator& Network::simulator_for(NodeId id) {
  return *shard_ctx_[shard_of(id)].sim;
}

sim::MetricRegistry& Network::metrics_for(NodeId id) {
  return *shard_ctx_[shard_of(id)].metrics;
}

void Network::set_link(NodeId id, const LinkSpec& spec) {
  transport_.set_link(ensure_node(id), spec);
}

void Network::set_latency_penalty(NodeId id, sim::SimDuration extra) {
  const std::uint32_t idx = ensure_node(id);
  if (idx >= latency_extra_.size()) {
    latency_extra_.resize(std::max<std::size_t>(table_.size(), idx + 1), 0);
  }
  latency_extra_[idx] = extra < 0 ? 0 : extra;
}

void Network::add_partition(
    std::string name, std::vector<std::unordered_set<std::uint64_t>> groups) {
  remove_partition(name);
  Partition p;
  p.name = std::move(name);
  bool any = false;
  std::uint32_t index = 0;
  for (const auto& group : groups) {
    for (const std::uint64_t node : group) {
      // Listing a node registers it: the dense side table needs an index,
      // and a partition naming a not-yet-attached node must still apply
      // when that node appears.
      const std::uint32_t idx = ensure_node(NodeId{node});
      if (idx >= p.group_of.size()) p.group_of.resize(idx + 1, kRestGroup);
      p.group_of[idx] = index;
      any = true;
    }
    ++index;
  }
  if (any) partitions_.push_back(std::move(p));
}

void Network::remove_partition(std::string_view name) {
  partitions_.erase(
      std::remove_if(partitions_.begin(), partitions_.end(),
                     [&](const Partition& p) { return p.name == name; }),
      partitions_.end());
}

bool Network::partition_active(std::string_view name) const {
  return std::any_of(partitions_.begin(), partitions_.end(),
                     [&](const Partition& p) { return p.name == name; });
}

void Network::set_unreachable(NodeId id, bool unreachable) {
  const std::uint32_t idx = ensure_node(id);
  if (idx >= unreachable_.size()) {
    if (!unreachable) return;  // default already means reachable
    unreachable_.resize(std::max<std::size_t>(table_.size(), idx + 1), 0);
  }
  unreachable_[idx] = unreachable ? 1 : 0;
}

bool Network::partitioned(std::uint32_t a, std::uint32_t b) const {
  // kNoIndex (never-interned endpoint) reads past every side table into the
  // implicit rest group, matching the hash-map semantics for unlisted ids.
  for (const Partition& p : partitions_) {
    const std::uint32_t ga = a < p.group_of.size() ? p.group_of[a]
                                                   : kRestGroup;
    const std::uint32_t gb = b < p.group_of.size() ? p.group_of[b]
                                                   : kRestGroup;
    if (ga != gb) return true;
  }
  return false;
}

void Network::schedule_delivery(std::size_t src_shard, std::size_t dst_shard,
                                Host** dst, sim::SimTime arrive, Message msg,
                                std::uint64_t msg_seq) {
  // Detached event: delivery is fire-and-forget — the kernel's hottest path.
  // The capture carries the resolved Host** slot (chunk-stable, so it
  // outlives any table growth), and delivery does zero hash lookups; the
  // online check is one null test. The untraced capture is sized to exactly
  // fill InlineFn<64>'s inline buffer (Host** + Counter* + 48-byte Message),
  // so steady-state delivery allocates nothing; the traced variant carries
  // more context and may box, which is fine off the fast path. The closure
  // runs on the receiving shard, so it counts offline drops there; it goes
  // through the kernel's mailbox when that is not the sending shard.
  const NetShard& to = shard_ctx_[dst_shard];
  sim::Simulator* const dsim = to.sim;
  sim::Counter* const dropped = to.m_dropped_offline;
  const auto post = [&](auto&& fn) {
    if (dst_shard == src_shard) {
      dsim->post_at(arrive, std::forward<decltype(fn)>(fn), "net/deliver");
    } else {
      kernel_->post_cross(dst_shard, arrive, std::forward<decltype(fn)>(fn),
                          "net/deliver");
    }
  };
  if (dsim->trace() != nullptr) {
    post([dsim, dst, dropped, msg_seq, msg = std::move(msg)] {
      if (*dst == nullptr) {
        dropped->add();
        if (sim::TraceSink* const tr = dsim->trace()) {
          tr->record({dsim->now(), "drop", "offline", msg_seq, msg.from.value,
                      msg.to.value, msg.size_bytes});
        }
        return;
      }
      (*dst)->handle_message(msg);
    });
  } else {
    post([dst, dropped, msg = std::move(msg)] {
      if (*dst == nullptr) {
        dropped->add();
        return;
      }
      (*dst)->handle_message(msg);
    });
  }
}

void Network::deliver(Message msg) {
  // Every mutable touch — RNG draws, counters, traffic tallies, span hops,
  // message sequencing — goes through the *sending* shard's context. Shared
  // state read here (partitions, unreachability, latency penalties, the
  // dense node table) is configured only between runs, so a sharded run's
  // parallel phase reads it immutably.
  const std::uint32_t s = current_shard();
  NetShard& ctx = shard_ctx_[s];
  sim::Simulator& cur = *ctx.sim;
  // Message sequence numbers carry their shard in the top bits so the
  // merged trace keeps globally unique ids without any cross-shard counter.
  const std::uint64_t msg_seq =
      (static_cast<std::uint64_t>(s) << 48) | ++ctx.messages_sent;
  ctx.bytes_sent += msg.size_bytes;
  ctx.m_messages_sent->add();
  ctx.m_bytes_sent->add(msg.size_bytes);

  sim::TraceSink* const tr = cur.trace();
  if (tr) {
    tr->record({cur.now(), "send", "", msg_seq, msg.from.value, msg.to.value,
                msg.size_bytes});
  }
  std::uint32_t span_parent = 0;
  if (config_.track_spans) {
    // Chain this message into its propagation tree *before* the drop checks:
    // a dropped message is still a tree edge (a pruned one — the "drop"
    // record that follows shares this msg_seq). The hop id is rewritten into
    // the message so the receiver's relays inherit the right parent. The
    // "span" record itself is emitted later (emit_span), once the transport
    // outcome's queuing delay is known — record order is unchanged because
    // nothing else records in between.
    span_parent = msg.span.hop;
    const std::uint32_t self = alloc_span_hop(s, span_parent);
    msg.span.hop = self;
    if (msg.span.root == 0) msg.span.root = self;
  }
  const auto emit_span = [&](sim::SimDuration queue_wait) {
    if (config_.track_spans && tr) {
      tr->record({cur.now(), "span", "", msg.span.hop, msg.span.root,
                  span_parent, span_depth(msg.span.hop),
                  static_cast<std::uint64_t>(queue_wait)});
    }
  };
  const auto trace_drop = [&](const char* reason) {
    emit_span(0);
    if (tr) {
      tr->record({cur.now(), "drop", reason, msg_seq, msg.from.value,
                  msg.to.value, msg.size_bytes});
    }
  };

  // Resolve both endpoints to dense indices once; every per-node check
  // below is then a bounds test + array load. The sender is looked up
  // read-only — an unknown sender just reads defaults. Unsharded, the
  // receiver is interned, lazily creating its slot (a node attached after
  // the send but before arrival still gets the message). Sharded runs
  // register every node up front and must not intern concurrently, so a
  // miss means "never existed": dropped as offline, mutating nothing.
  const std::uint32_t from_idx = table_.index_of(msg.from);
  const std::uint32_t to_idx =
      sharded() ? table_.index_of(msg.to) : ensure_node(msg.to);

  if (!partitions_.empty() && partitioned(from_idx, to_idx)) {
    ctx.m_dropped_partition->add();
    trace_drop("partition");
    return;
  }

  if (to_idx == NodeTable::kNoIndex) {
    ctx.m_dropped_offline->add();
    trace_drop("offline");
    return;
  }
  // The Host** slot stays valid for the in-flight event even across churn
  // or table growth (chunked slab; entries never erased).
  Host** const dst = hosts_.slot(to_idx);
  if (unreachable_at(to_idx)) {
    ctx.m_dropped_unreachable->add();
    trace_drop("unreachable");
    return;
  }
  if (config_.drop_probability > 0 &&
      ctx.rng.chance(config_.drop_probability)) {
    ctx.m_dropped_loss->add();
    trace_drop("loss");
    return;
  }

  // Transport state is send-side only, keyed by the sender's index, and
  // this code runs on the sender's owning shard (single writer per slot).
  // Unsharded, the sender is interned so it gets a queue; sharded, a
  // kNoIndex sender (never registered) skips transport state entirely:
  // infinite uplink. Every additive term is >= 0 with sample() >=
  // min_latency(), which is what keeps cross-shard arrivals outside the
  // lookahead window even with queuing delays.
  sim::SimTime depart = cur.now();
  sim::SimDuration rx_serialize = 0;
  if (transport_.active()) {
    const std::uint32_t sender = sharded() ? from_idx : ensure_node(msg.from);
    const Transport::Outcome out =
        transport_.admit(sender, to_idx, msg.size_bytes, cur.now());
    if (out.dropped) {
      ctx.m_dropped_queue->add();
      trace_drop("queue");
      return;
    }
    depart = out.depart;
    rx_serialize = out.rx_serialize;
    emit_span(out.queue_wait);
  } else {
    emit_span(0);
  }

  sim::SimDuration prop = latency_->sample(msg.from, msg.to, ctx.rng);
  prop += penalty_of(from_idx) + penalty_of(to_idx);
  if (reorder_jitter_ > 0) {
    const auto extra = static_cast<sim::SimDuration>(ctx.rng.uniform_int(
        static_cast<std::uint64_t>(reorder_jitter_) + 1));
    if (extra > 0) ctx.m_reordered->add();
    prop += extra;
  }
  const sim::SimTime arrive = depart + prop + rx_serialize;
  const std::size_t dst_shard = shard_of(msg.to);

  // Duplication window: the copy trails the original by one more latency
  // sample, modelling a retransmit-style duplicate rather than a same-instant
  // twin (so reordering between copy and original is possible too).
  if (duplicate_probability_ > 0 && ctx.rng.chance(duplicate_probability_)) {
    ctx.m_duplicated->add();
    const sim::SimDuration lag = latency_->sample(msg.from, msg.to, ctx.rng);
    if (tr) {
      tr->record({cur.now(), "dup", "", msg_seq, msg.from.value, msg.to.value,
                  msg.size_bytes});
    }
    schedule_delivery(s, dst_shard, dst, arrive + lag, msg, msg_seq);
  }

  schedule_delivery(s, dst_shard, dst, arrive, std::move(msg), msg_seq);
}

}  // namespace decentnet::net
