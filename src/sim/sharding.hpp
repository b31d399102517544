// Sharded discrete-event kernel: conservative-lookahead parallel execution.
//
// A ShardedKernel owns S independent Simulator shards — each with its own
// slab arena, free list, 4-ary heap, and RNG stream — plus the deterministic
// machinery that lets them run concurrently without breaking the repo's
// byte-for-byte reproducibility contract (Shadow's worker/scheduler design,
// adapted to this kernel):
//
//   * Hosts are assigned to shards by key (NodeId % S). Everything a host
//     does — its timers, its local deliveries — stays on its own shard.
//   * Cross-shard sends go through per-(src, dst) mailboxes. A mailbox is
//     single-writer (only the source shard's worker appends), so the
//     parallel phase needs no locks on the message path.
//   * Execution proceeds in windows of width W = the lookahead (the minimum
//     cross-shard link latency, provided by Network): every shard may run
//     [t, t + W) independently because no cross-shard message sent inside
//     the window can arrive inside it. At the window barrier the mailboxes
//     are drained into the destination heaps in a canonical order —
//     (arrival time, source shard, source emission order) — so heap
//     sequence numbers, and therefore FIFO tie-breaks, are a pure function
//     of the seed, never of thread scheduling.
//
// Determinism contract: the shard decomposition (shard count, per-shard
// seeds, mailbox drain order, trace merge order) is fixed by configuration.
// The worker-thread count only decides how many shards execute their
// (already independent) windows concurrently, so traces, metrics, and bench
// artifacts are byte-identical at any --sim-threads value; threads == 1 runs
// the shards sequentially in shard order on the caller's thread and is the
// reference schedule. A single-shard kernel (S == 1) bypasses every barrier
// and is bit-for-bit the legacy sequential kernel.
//
// Tracing: with S > 1, each shard's records are buffered locally during the
// window and merged into the real sink at the barrier, ordered by
// (time, shard, per-shard emission index) — canonical, not arrival order.
//
// Zero-lookahead fallback: a degenerate window (lookahead <= 0, e.g. a
// latency model whose minimum delay is 0) cannot overlap any execution, so
// the kernel falls back to sequential single-threaded stepping (window
// width 1 tick) and emits one "warn" trace record; results stay correct and
// deterministic, just without parallelism.
//
// Teardown: clear() clears every shard and drops undelivered mailbox
// parcels. Outstanding EventHandles — including handles held across shards —
// read invalid afterwards, exactly per the single-shard slot+generation
// contract (each handle points into its own shard's arena, whose generations
// clear() bumps).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace decentnet::sim {

class Profiler;
class Telemetry;

namespace detail {
/// Shard index of the shard currently executing on this thread; only
/// meaningful inside a window (Network's sharded delivery path reads it to
/// find the sending shard's context). 0 outside any window, which makes the
/// single-shard and setup paths read shard 0 — the right answer.
inline thread_local std::uint32_t t_current_shard = 0;
}  // namespace detail

class ShardedKernel {
 public:
  using Callback = Simulator::Callback;

  /// Largest shard count: Network's span hop ids hold the shard in 6 bits,
  /// and --sim-shards rejects anything above it.
  static constexpr std::size_t kMaxShards = 64;

  /// Shard 0 is seeded with `seed` itself, so a 1-shard kernel reproduces a
  /// plain Simulator(seed) exactly; shards s > 0 get decorrelated splitmix
  /// streams of (seed, s). Throws std::invalid_argument above kMaxShards.
  explicit ShardedKernel(std::uint64_t seed, std::size_t shards);
  ~ShardedKernel();

  ShardedKernel(const ShardedKernel&) = delete;
  ShardedKernel& operator=(const ShardedKernel&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  /// Deterministic host-to-shard assignment (dense NodeIds round-robin).
  std::size_t shard_of(std::uint64_t key) const {
    return key % shards_.size();
  }
  Simulator& shard(std::size_t s) { return *shards_[s]; }
  const Simulator& shard(std::size_t s) const { return *shards_[s]; }
  Simulator& sim_for(std::uint64_t key) { return *shards_[shard_of(key)]; }

  /// Shard executing on the calling thread (see detail::t_current_shard).
  static std::uint32_t current_shard() { return detail::t_current_shard; }

  /// Per-shard metric registry: components owned by shard s record here so
  /// the parallel phase never contends on counters. Fold into an
  /// experiment's registry afterwards with merge_metrics_into() (shard-index
  /// order — deterministic).
  MetricRegistry& metrics(std::size_t s) { return registries_[s]; }
  void merge_metrics_into(MetricRegistry& target);

  /// Install the real trace sink. With S == 1 it goes straight onto the
  /// shard; otherwise each shard traces into a local buffer merged at every
  /// barrier in (time, shard, emission-index) order. Borrowed, may be null.
  void set_trace(TraceSink* sink);
  TraceSink* trace() const { return trace_target_; }

  /// Install the target profiler (borrowed, may be null). With S > 1 each
  /// shard gets a private Profiler, merged into the target in shard order at
  /// the end of every run_until(); the target additionally gains per-shard
  /// "shard/<s>" wall-time entries so load imbalance shows up in --profile.
  void set_profiler(Profiler* profiler);

  /// Install (or clear, with nullptr) sim-time telemetry. With S == 1 the
  /// telemetry attaches straight to the shard (sampled between events, as a
  /// plain Simulator). With S > 1 the *driver* samples at barrier windows
  /// while workers are quiescent — per-shard series (kernel backlog, mailbox
  /// occupancy, fired/stall rates) are registered here and every cadence
  /// boundary a barrier crosses is emitted, so series bytes depend only on
  /// the shard decomposition, never on --sim-threads (the trace contract).
  /// Telemetry never schedules kernel events: golden traces are untouched.
  void set_telemetry(Telemetry* telemetry);

  /// Conservative lookahead window (Network::enable_sharding sets this to
  /// the latency model's minimum cross-shard delay). <= 0 triggers the
  /// degenerate sequential fallback.
  void set_lookahead(SimDuration window) { lookahead_ = window; }
  SimDuration lookahead() const { return lookahead_; }
  bool degenerate() const { return shards_.size() > 1 && lookahead_ <= 0; }

  /// Enqueue a callback onto another shard's timeline. Single-writer: legal
  /// from the currently executing shard's worker (src = current_shard()) or
  /// from the driver thread outside a window. The parcel is drained into
  /// `dst_shard` at the next barrier in canonical (when, src, FIFO) order.
  /// `when` must be >= the sender's now + lookahead (Network guarantees this
  /// by construction; the kernel clamps late parcels to the drain time).
  void post_cross(std::size_t dst_shard, SimTime when, Callback fn,
                  const char* tag = nullptr);

  /// Run every shard up to `until` (events at exactly `until` execute) on
  /// `threads` workers (clamped to the shard count; <= 1, or a degenerate
  /// window, runs shards sequentially on the caller's thread). Returns the
  /// number of events fired across all shards. Repeated calls continue from
  /// the previous horizon, like Simulator::run_until.
  std::size_t run_until(SimTime until, std::size_t threads = 1);

  /// Clear every shard (invalidating all outstanding EventHandles on every
  /// shard, per the slot+generation contract) and drop undrained mailbox
  /// parcels.
  void clear();

  std::size_t pending_events() const;
  std::uint64_t total_events_processed() const;

  /// Windows executed by the last run_until() (1 for S == 1). Deterministic.
  std::uint64_t windows_run() const { return windows_run_; }

 private:
  /// One cross-shard callback waiting for the next barrier.
  struct Parcel {
    SimTime when;
    const char* tag;
    Callback fn;
  };

  /// Per-shard trace buffer; drained and merged at barriers.
  class BufferSink final : public TraceSink {
   public:
    void record(const TraceRecord& rec) override { records_.push_back(rec); }
    std::vector<TraceRecord> records_;
  };

  /// Deterministic per-shard bookkeeping surfaced as sim/shard/<s>/*
  /// metrics: fired events, windows, stalls (windows where the shard had
  /// nothing to do — the load-imbalance signal), mailbox traffic.
  struct ShardStats {
    Counter* fired = nullptr;
    Counter* windows = nullptr;
    Counter* stalls = nullptr;
    Counter* mail_in = nullptr;
    Counter* mail_out = nullptr;
  };

  struct Pool;

  std::vector<Parcel>& mailbox(std::size_t src, std::size_t dst) {
    return mail_[src * shards_.size() + dst];
  }
  void run_shard_window(std::size_t s, SimTime stop);
  SimTime earliest_event() const;
  void drain_mailboxes();
  void flush_traces();
  void run_windows(SimTime stop, std::size_t threads);
  void finish_run_profile();

  SimDuration lookahead_ = 0;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::deque<MetricRegistry> registries_;  // deque: stable handle addresses
  std::vector<ShardStats> stats_;
  std::vector<std::vector<Parcel>> mail_;  // [src * S + dst]
  std::vector<std::unique_ptr<BufferSink>> sinks_;
  TraceSink* trace_target_ = nullptr;
  Profiler* profile_target_ = nullptr;
  Telemetry* telemetry_ = nullptr;  // S > 1 only; S == 1 attaches the shard
  std::vector<std::unique_ptr<Profiler>> shard_profilers_;
  // Per-window scratch, reused across barriers.
  std::vector<std::size_t> fired_in_window_;
  std::vector<std::uint64_t> wall_ns_;
  std::uint64_t windows_run_ = 0;
  bool warned_degenerate_ = false;
  std::unique_ptr<Pool> pool_;
};

}  // namespace decentnet::sim
