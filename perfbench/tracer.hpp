// Wall-clock spans around the calls the benchmark makes into each layer.
//
// The benchmark traces decentnet from outside the library: a SpanScope wraps
// each generator call (Wallet::pay, FullNode::submit_transaction,
// RaftNode::propose, KademliaNode::lookup, GossipNode::broadcast), a
// HostProxy attached in a node's place wraps every Host::handle_message, and
// link-time wrappers (crypto_spans.cpp) wrap the crypto entry points.
//
// A span's self time is its duration minus the time its child spans cover,
// so the self times of all kinds add up to the traced wall time spent inside
// any span; what remains of run_until's wall time is the kernel, delivery
// dispatch and protocol timers (sim.dispatch_self_s).
//
// Spans are kept per kernel shard (ShardedKernel::current_shard(), 0 for a
// plain Simulator): a shard's events run on one thread at a time and a span
// opens and closes inside one event, so no locking is needed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kCrypto,           // any wrapped crypto entry point
  kChainTx,          // FullNode::handle_message on a TxMsg
  kChainBlock,       // FullNode::handle_message on any other chain message
  kChainPay,         // Wallet::pay
  kChainSubmit,      // FullNode::submit_transaction
  kBftHandle,        // RaftNode::handle_message
  kBftPropose,       // RaftNode::propose
  kKadHandle,        // KademliaNode::handle_message
  kKadLookup,        // KademliaNode::lookup
  kGossipHandle,     // GossipNode::handle_message
  kGossipBroadcast,  // GossipNode::broadcast
  kCount,
};
constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

struct SpanStats {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
  decentnet::sim::Histogram duration_us;
};

/// Entry calls into crypto, counted by the link-time wrappers.
struct CryptoCounts {
  std::uint64_t sha256_calls = 0;  // sha256 and sha256d
  std::uint64_t sha256_bytes = 0;
  std::uint64_t hmac_calls = 0;
  std::uint64_t verify_calls = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t shards);

  /// The tracer spans record into, or null (no tracing, or outside the
  /// traced window). Workloads activate it only around run_until, so set-up
  /// work never lands in a span.
  static Tracer* active();
  void activate();
  void deactivate();

  void open(SpanKind kind);
  void close();
  CryptoCounts& crypto();

  SpanStats total(SpanKind kind) const;
  CryptoCounts crypto_total() const;

 private:
  struct Frame {
    SpanKind kind;
    std::int64_t start_ns;
    std::uint64_t child_ns;
  };
  struct Shard {
    std::array<SpanStats, kSpanKinds> spans;
    CryptoCounts crypto;
    std::array<Frame, 32> stack;
    std::size_t depth = 0;
  };
  Shard& shard();

  std::vector<Shard> shards_;
};

class SpanScope {
 public:
  explicit SpanScope(SpanKind kind) : tracer_(Tracer::active()) {
    if (tracer_ != nullptr) tracer_->open(kind);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

/// Stands in for a node on the Network: every delivery goes through a span
/// of the kind `classify` picks from the message type, then to the node.
class HostProxy final : public decentnet::net::Host {
 public:
  using Classify = SpanKind (*)(const decentnet::net::Message&);
  HostProxy(decentnet::net::Host& inner, Classify classify)
      : inner_(inner), classify_(classify) {}

  void handle_message(const decentnet::net::Message& msg) override {
    SpanScope span(classify_(msg));
    inner_.handle_message(msg);
  }

 private:
  decentnet::net::Host& inner_;
  Classify classify_;
};

}  // namespace perfbench
