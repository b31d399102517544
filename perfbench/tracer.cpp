#include "tracer.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>

#include "sim/sharding.hpp"

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(std::size_t shards) : shards_(shards == 0 ? 1 : shards) {}

Tracer* Tracer::active() { return g_active.load(std::memory_order_relaxed); }

void Tracer::activate() { g_active.store(this, std::memory_order_relaxed); }

void Tracer::deactivate() {
  g_active.store(nullptr, std::memory_order_relaxed);
}

Tracer::Shard& Tracer::shard() {
  const std::size_t s = decentnet::sim::ShardedKernel::current_shard();
  if (s >= shards_.size()) {
    throw std::logic_error("Tracer: span on a shard the tracer does not know");
  }
  return shards_[s];
}

void Tracer::open(SpanKind kind) {
  Shard& sh = shard();
  if (sh.depth == sh.stack.size()) {
    throw std::logic_error("Tracer: spans nested deeper than 32");
  }
  sh.stack[sh.depth++] = Frame{kind, now_ns(), 0};
}

void Tracer::close() {
  Shard& sh = shard();
  const Frame f = sh.stack[--sh.depth];
  const auto dur = static_cast<std::uint64_t>(now_ns() - f.start_ns);
  SpanStats& s = sh.spans[static_cast<std::size_t>(f.kind)];
  ++s.calls;
  s.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  s.duration_us.record(static_cast<double>(dur) / 1000.0);
  if (sh.depth > 0) sh.stack[sh.depth - 1].child_ns += dur;
}

CryptoCounts& Tracer::crypto() { return shard().crypto; }

SpanStats Tracer::total(SpanKind kind) const {
  SpanStats out;
  for (const Shard& sh : shards_) {
    const SpanStats& s = sh.spans[static_cast<std::size_t>(kind)];
    out.calls += s.calls;
    out.self_ns += s.self_ns;
    out.duration_us.merge(s.duration_us);
  }
  return out;
}

CryptoCounts Tracer::crypto_total() const {
  CryptoCounts out;
  for (const Shard& sh : shards_) {
    out.sha256_calls += sh.crypto.sha256_calls;
    out.sha256_bytes += sh.crypto.sha256_bytes;
    out.hmac_calls += sh.crypto.hmac_calls;
    out.verify_calls += sh.crypto.verify_calls;
  }
  return out;
}

}  // namespace perfbench
