// ShardedKernel implementation. Deliberately a separate translation unit
// from simulator.cpp (the PR 5 lesson): the windowed drain loop, the worker
// pool, and the mailbox merge never share a TU with the sequential kernel's
// hot paths, so single-shard codegen — and the golden traces pinned to it —
// stays bit-for-bit what it was before sharding existed.
#include "sim/sharding.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "sim/profiler.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"

namespace decentnet::sim {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

std::uint64_t shard_seed(std::uint64_t seed, std::size_t s) {
  // Shard 0 keeps the root seed so a 1-shard kernel *is* Simulator(seed);
  // the rest get decorrelated splitmix streams, mirroring seed_for().
  if (s == 0) return seed;
  std::uint64_t state =
      seed + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(s) + 1);
  return splitmix64(state);
}

// Interned "shard/<s>" profiler tags with process lifetime. Profiler keys
// its table on the raw tag pointer and the harness profiler outlives any one
// kernel, so a kernel-owned std::string would dangle in the merged report
// (read back as garbage at to_json time). Interning once per shard index
// keeps the pointer stable forever; shard counts are tiny, so this never
// grows past a handful of entries.
const char* shard_wall_tag(std::size_t s) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::string>> tags;
  std::lock_guard<std::mutex> lock(mu);
  while (tags.size() <= s) {
    tags.push_back(
        std::make_unique<std::string>("shard/" + std::to_string(tags.size())));
  }
  return tags[s]->c_str();
}

}  // namespace

/// One busy-poll step while waiting on another core. On x86/arm this is the
/// architectural spin hint; elsewhere it degrades to a scheduler yield.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Persistent worker pool for N-thread windows: N-1 background helpers plus
/// the coordinator itself. One epoch per window: the coordinator publishes a
/// stop time and bumps the epoch (release), then *joins the claim loop* —
/// shards are claimed off a shared atomic counter, so the first thread
/// standing makes progress immediately and helper wake-up latency never
/// serializes a window (dynamic assignment is safe: shards are independent
/// within a window, so *which* thread runs a shard cannot affect results).
/// Windows are often only tens of microseconds of work, so helpers spin
/// briefly for the next epoch before falling back to a condvar sleep; the
/// spin is disabled outright on single-core hosts where it could only steal
/// the CPU from the thread doing the work. Happens-before edges: the
/// epoch bump (release) publishes the coordinator's drain writes to helpers
/// (acquire), and each helper's done++ (release) publishes its shard writes
/// back to the coordinator's done-wait (acquire).
struct ShardedKernel::Pool {
  explicit Pool(ShardedKernel& kernel, std::size_t threads)
      : kernel_(kernel) {
    const std::size_t helpers = threads - 1;  // coordinator participates
    workers_.reserve(helpers);
    for (std::size_t w = 0; w < helpers; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Pool() {
    quit_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(m_);
      cv_start_.notify_all();
    }
    for (auto& t : workers_) t.join();
  }

  std::size_t size() const { return workers_.size() + 1; }

  void run_window(SimTime stop) {
    stop_ = stop;
    done_.store(0, std::memory_order_relaxed);
    next_shard_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(m_);
      if (sleeping_ > 0) cv_start_.notify_all();
    }
    claim_loop(stop);
    std::size_t spins = 0;
    while (done_.load(std::memory_order_acquire) != workers_.size()) {
      if (spin_limit_ == 0 || ++spins > spin_limit_) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
  }

 private:
  void claim_loop(SimTime stop) {
    const std::size_t shard_total = kernel_.shards_.size();
    for (;;) {
      const std::size_t s =
          next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (s >= shard_total) break;
      kernel_.run_shard_window(s, stop);
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t e;
      std::size_t spins = 0;
      while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
        if (spins < spin_limit_) {
          cpu_relax();
          ++spins;
          continue;
        }
        std::unique_lock<std::mutex> lock(m_);
        ++sleeping_;
        cv_start_.wait(lock, [&] {
          return epoch_.load(std::memory_order_acquire) != seen;
        });
        --sleeping_;
      }
      seen = e;
      if (quit_.load(std::memory_order_relaxed)) return;
      claim_loop(stop_);
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  ShardedKernel& kernel_;
  std::vector<std::thread> workers_;
  std::mutex m_;                 // guards sleeping_ / condvar handshake only
  std::condition_variable cv_start_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> next_shard_{0};
  std::atomic<bool> quit_{false};
  std::size_t sleeping_ = 0;  // guarded by m_
  SimTime stop_ = 0;          // published by the epoch bump
  const std::size_t spin_limit_ =
      std::thread::hardware_concurrency() > 1 ? 4096 : 0;
};

ShardedKernel::ShardedKernel(std::uint64_t seed, std::size_t shards) {
  if (shards == 0) shards = 1;
  if (shards > kMaxShards) {
    throw std::invalid_argument("ShardedKernel: at most " +
                                std::to_string(kMaxShards) +
                                " shards, got " + std::to_string(shards));
  }
  shards_.reserve(shards);
  registries_.resize(shards);
  stats_.resize(shards);
  mail_.resize(shards * shards);
  fired_in_window_.resize(shards, 0);
  wall_ns_.resize(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Simulator>(shard_seed(seed, s)));
    // The single-shard run_until never writes the per-shard counters, so
    // S = 1 registers none and merge_metrics_into adds nothing.
    if (shards == 1) break;
    const std::string prefix = "sim/shard/" + std::to_string(s);
    stats_[s].fired = &registries_[s].counter(prefix + "/fired");
    stats_[s].windows = &registries_[s].counter(prefix + "/windows");
    stats_[s].stalls = &registries_[s].counter(prefix + "/stalls");
    stats_[s].mail_in = &registries_[s].counter(prefix + "/mail_in");
    stats_[s].mail_out = &registries_[s].counter(prefix + "/mail_out");
  }
}

ShardedKernel::~ShardedKernel() = default;

void ShardedKernel::merge_metrics_into(MetricRegistry& target) {
  for (const MetricRegistry& reg : registries_) target.merge_from(reg);
}

void ShardedKernel::set_trace(TraceSink* sink) {
  trace_target_ = sink;
  if (shards_.size() == 1) {
    // No barriers, no buffering: the single shard is the legacy kernel.
    shards_[0]->set_trace(sink);
    return;
  }
  sinks_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (sink == nullptr) {
      shards_[s]->set_trace(nullptr);
    } else {
      sinks_.push_back(std::make_unique<BufferSink>());
      shards_[s]->set_trace(sinks_.back().get());
    }
  }
}

void ShardedKernel::set_profiler(Profiler* profiler) {
  profile_target_ = profiler;
  if (shards_.size() == 1) {
    shards_[0]->set_profiler(profiler);
    return;
  }
  shard_profilers_.clear();
  for (auto& sh : shards_) {
    if (profiler != nullptr) {
      shard_profilers_.push_back(std::make_unique<Profiler>());
      sh->set_profiler(shard_profilers_.back().get());
    } else {
      sh->set_profiler(nullptr);
    }
  }
}

void ShardedKernel::set_telemetry(Telemetry* telemetry) {
  if (shards_.size() == 1) {
    // The single shard is the legacy kernel: sample between events there.
    if (telemetry != nullptr) {
      telemetry->attach(*shards_[0]);
    } else {
      shards_[0]->set_telemetry(nullptr);
    }
    telemetry_ = nullptr;
    return;
  }
  // S > 1: the driver samples at barriers, so the shards themselves stay
  // uninstrumented (their drain loops must not touch the sink from worker
  // threads).
  for (auto& sh : shards_) sh->set_telemetry(nullptr);
  telemetry_ = telemetry;
  if (telemetry == nullptr) return;
  telemetry->begin_run();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    Simulator* const sim = shards_[s].get();
    telemetry->add_gauge("kernel/backlog", s, [sim](SimTime) {
      return static_cast<double>(sim->pending_events());
    });
    // Outbound parcels emitted during the window, sampled pre-drain (the
    // next barrier iteration drains before running) — the cross-shard
    // pressure this shard generated.
    ShardedKernel* const self = this;
    const std::size_t src = s;
    telemetry->add_gauge("kernel/mailbox", s, [self, src](SimTime) {
      std::size_t n = 0;
      for (std::size_t d = 0; d < self->shards_.size(); ++d) {
        n += self->mailbox(src, d).size();
      }
      return static_cast<double>(n);
    });
    telemetry->add_rate("kernel/fired", s, *stats_[s].fired);
    telemetry->add_rate("kernel/stalls", s, *stats_[s].stalls);
    telemetry->add_rate("kernel/windows", s, *stats_[s].windows);
    telemetry->add_rate("kernel/mail_in", s, *stats_[s].mail_in);
  }
}

void ShardedKernel::post_cross(std::size_t dst_shard, SimTime when,
                               Callback fn, const char* tag) {
  if (shards_.size() == 1) {
    shards_[0]->post_at(when, std::move(fn), tag);
    return;
  }
  const std::size_t src = detail::t_current_shard;
  mailbox(src, dst_shard).push_back(Parcel{when, tag, std::move(fn)});
}

SimTime ShardedKernel::earliest_event() const {
  SimTime earliest = kNever;
  for (const auto& sh : shards_) {
    earliest = std::min(earliest, sh->next_event_time());
  }
  return earliest;
}

void ShardedKernel::drain_mailboxes() {
  const std::size_t shard_total = shards_.size();
  // Canonical drain: per destination, gather every source's parcels and
  // stable-sort by (arrival time, source shard); stability preserves each
  // source's emission (FIFO) order. post_at then hands out destination heap
  // sequence numbers in exactly that order — a pure function of the seed.
  struct Entry {
    SimTime when;
    std::size_t src;
    Parcel* parcel;
  };
  std::vector<Entry> order;
  for (std::size_t d = 0; d < shard_total; ++d) {
    order.clear();
    for (std::size_t s = 0; s < shard_total; ++s) {
      for (Parcel& p : mailbox(s, d)) order.push_back(Entry{p.when, s, &p});
    }
    if (order.empty()) continue;
    std::stable_sort(order.begin(), order.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.when != b.when ? a.when < b.when
                                               : a.src < b.src;
                     });
    for (Entry& e : order) {
      stats_[e.src].mail_out->add();
      stats_[d].mail_in->add();
      shards_[d]->post_at(e.parcel->when, std::move(e.parcel->fn),
                          e.parcel->tag);
    }
    for (std::size_t s = 0; s < shard_total; ++s) mailbox(s, d).clear();
  }
}

void ShardedKernel::flush_traces() {
  if (trace_target_ == nullptr || sinks_.empty()) return;
  // Per-shard buffers are time-ordered already (a shard's clock never runs
  // backwards), so the canonical merged order is a stable sort by
  // (time, shard) — ties resolve to the lower shard, and each shard's
  // emission order survives stability.
  struct Entry {
    SimTime t;
    std::uint32_t shard;
    const TraceRecord* rec;
  };
  std::vector<Entry> order;
  for (std::uint32_t s = 0; s < sinks_.size(); ++s) {
    for (const TraceRecord& rec : sinks_[s]->records_) {
      order.push_back(Entry{rec.t, s, &rec});
    }
  }
  if (order.empty()) return;
  std::stable_sort(order.begin(), order.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.t != b.t ? a.t < b.t : a.shard < b.shard;
                   });
  for (const Entry& e : order) trace_target_->record(*e.rec);
  for (auto& sink : sinks_) sink->records_.clear();
}

void ShardedKernel::run_shard_window(std::size_t s, SimTime stop) {
  const std::uint32_t prev = detail::t_current_shard;
  detail::t_current_shard = static_cast<std::uint32_t>(s);
  const bool profiled = profile_target_ != nullptr;
  const std::uint64_t t0 = profiled ? Profiler::now_ns() : 0;
  fired_in_window_[s] = shards_[s]->run_until(stop);
  if (profiled) wall_ns_[s] += Profiler::now_ns() - t0;
  detail::t_current_shard = prev;
}

void ShardedKernel::run_windows(SimTime stop, std::size_t threads) {
  if (threads <= 1) {
    // Reference schedule: shard order on the caller's thread. The pooled
    // path below produces byte-identical results because shards are
    // independent within a window and every merge is canonical.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      run_shard_window(s, stop);
    }
    return;
  }
  if (!pool_ || pool_->size() != threads) {
    pool_ = std::make_unique<Pool>(*this, threads);
  }
  pool_->run_window(stop);
}

void ShardedKernel::finish_run_profile() {
  if (profile_target_ == nullptr || shards_.size() == 1) return;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    profile_target_->merge_from(*shard_profilers_[s]);
    shard_profilers_[s]->clear();
    profile_target_->record(shard_wall_tag(s), wall_ns_[s]);
    wall_ns_[s] = 0;
  }
}

std::size_t ShardedKernel::run_until(SimTime until, std::size_t threads) {
  if (shards_.size() == 1) {
    windows_run_ = 1;
    return shards_[0]->run_until(until);
  }
  SimDuration window = lookahead_;
  if (window <= 0) {
    // Degenerate lookahead: no window can overlap any execution, so fall
    // back to sequential single-tick stepping. Correct and deterministic,
    // just not parallel — warn once so the misconfiguration is visible.
    window = 1;
    threads = 1;
    if (!warned_degenerate_ && trace_target_ != nullptr) {
      trace_target_->record({shards_[0]->now(), "warn",
                             "sharding/zero_lookahead", 0,
                             static_cast<std::uint64_t>(shards_.size()), 0,
                             0});
    }
    warned_degenerate_ = true;
  }
  if (threads > shards_.size()) threads = shards_.size();

  std::size_t fired_total = 0;
  std::uint64_t windows = 0;
  // Coordinator-phase attribution (profile-only): where the barrier loop
  // spends its sequential time, split from the shard/<s> in-window wall.
  const bool profiled = profile_target_ != nullptr;
  std::uint64_t drain_ns = 0, window_ns = 0, flush_ns = 0;
  for (;;) {
    // Mailboxes may hold parcels from the previous window (or from the
    // driver thread between runs); drain them before looking at the heaps.
    std::uint64_t t0 = profiled ? Profiler::now_ns() : 0;
    drain_mailboxes();
    if (profiled) drain_ns += Profiler::now_ns() - t0;
    const SimTime earliest = earliest_event();
    if (earliest == kNever || earliest > until) break;
    // Conservative window: no event fired in [earliest, stop] can cause
    // another shard's event at or before stop (cross-shard effects lag by
    // at least `window`), so every shard may run to `stop` independently.
    const SimTime stop =
        std::min(until, earliest + window - 1);
    if (profiled) t0 = Profiler::now_ns();
    run_windows(stop, threads);
    if (profiled) window_ns += Profiler::now_ns() - t0;
    ++windows;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      fired_total += fired_in_window_[s];
      stats_[s].fired->add(fired_in_window_[s]);
      stats_[s].windows->add();
      if (fired_in_window_[s] == 0) stats_[s].stalls->add();
    }
    if (profiled) t0 = Profiler::now_ns();
    flush_traces();
    if (profiled) flush_ns += Profiler::now_ns() - t0;
    // Telemetry samples on the driver thread while workers are quiescent.
    // The barrier schedule (the sequence of `stop` values) is a pure
    // function of the decomposition, so the emitted boundaries — and the
    // state they sample — never depend on the thread count.
    if (telemetry_ != nullptr && stop >= telemetry_->next_due()) {
      telemetry_->advance_to(stop);
    }
  }
  if (profiled) {
    profile_target_->record("kernel/drain", drain_ns);
    profile_target_->record("kernel/windows_wall", window_ns);
    profile_target_->record("kernel/trace_flush", flush_ns);
  }
  // Advance every shard's clock to the horizon (reclaiming any cancelled
  // heap tops on the way, as the sequential kernel does).
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    run_shard_window(s, until);
  }
  flush_traces();
  finish_run_profile();
  if (telemetry_ != nullptr) telemetry_->advance_to(until);
  windows_run_ = windows;
  return fired_total;
}

void ShardedKernel::clear() {
  for (auto& sh : shards_) sh->clear();
  for (auto& box : mail_) box.clear();
  for (auto& sink : sinks_) sink->records_.clear();
}

std::size_t ShardedKernel::pending_events() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) n += sh->pending_events();
  for (const auto& box : mail_) n += box.size();
  return n;
}

std::uint64_t ShardedKernel::total_events_processed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->total_events_processed();
  return n;
}

}  // namespace decentnet::sim
