// The discrete-event simulation kernel.
//
// A Simulator owns an indexed priority queue of timestamped callbacks and a
// simulated clock. Everything in decentnet — network delivery, protocol
// timers, churn, mining — is expressed as events on one Simulator instance,
// which makes each experiment single-threaded and bit-for-bit reproducible
// from its root seed. (Multi-core runs compose several Simulators — one per
// shard — behind conservative-lookahead barriers; see sim/sharding.hpp.
// Each shard is exactly this kernel, untouched.)
//
// Hot-path design (this is the layer every experiment's scale is bounded by):
//   * Callbacks are sim::InlineFn<64>: captures up to 64 bytes live inside
//     the event slot itself (larger ones take a single boxed allocation), so
//     neither post() nor schedule() allocates in steady state.
//   * Events live in a slab arena recycled through a free list and are
//     referenced by slot index; the ready queue is a 4-ary heap of small
//     {when, seq, slot} entries, so sifting moves 24-byte records instead of
//     whole events and keeps the (when, seq) FIFO tie-break exact.
//   * EventHandle is a {slot, generation} ticket: cancellation flips the
//     slot's state, validity compares generations — no shared_ptr, no
//     allocation. Generations bump whenever a slot is released (fire,
//     cancelled-event reclaim, clear()), so stale handles read as invalid.
//
// Three scheduling flavours exist:
//   * schedule()/schedule_at()/schedule_periodic() return an EventHandle for
//     later cancellation.
//   * post()/post_at() are fire-and-forget. Both flavours are now
//     allocation-free; post() remains the idiomatic choice when the handle
//     would be discarded.
//   * Timer is a one-shot timer that can be re-armed, for deadlines that
//     are pushed back far more often than they fire (Raft's election
//     timeout is reset by every AppendEntries). arm(d) fires the callback
//     at exactly the (time, seq) position that cancel() followed by
//     schedule(d, fn, tag) would, but the timer keeps at most one live heap
//     entry: re-arming later only bumps a sequence number, and the entry is
//     re-keyed when it surfaces before the deadline. Timer heap entries are
//     marked by the top bit of HeapEntry::slot, so ordinary events pay one
//     well-predicted test per pop.
//
// Lifetime: neither EventHandle nor Timer owns the kernel. Handles must not
// be used after their Simulator is destroyed, and a Timer must not outlive
// its Simulator (every component in this repo holds a reference to a
// Simulator that outlives it, so this is the natural order).
//
// An optional TraceSink observes every scheduled/fired/cancelled event, and
// an optional Profiler wall-clock-times every fired callback per tag; with
// neither installed the hooks cost a single predictable null test each.
// Cancelled events are reclaimed lazily — the "cancel" trace record is
// emitted when the event would have fired, exactly as the original kernel
// did. A Timer traces like the schedule() it stands for — arm() writes the
// "sched" record and a firing writes "fire" — except that a superseded or
// cancelled arm writes no "cancel" record: re-keying and dropping its heap
// entry are not events (they do not count in total_events_processed(),
// reach the profiler or advance telemetry).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace decentnet::sim {

// Deliberately only forward-declared here: profiler.hpp drags in hash-table
// templates, and instantiating those in every TU that includes the kernel
// header perturbs inlining of the hot paths compiled there. Telemetry gets
// the same treatment (telemetry.hpp pulls in <functional> and <fstream>).
class Profiler;
class Telemetry;
class Simulator;
class Timer;

/// Handle used to cancel a scheduled event (or a periodic series).
/// Cheap to copy; all copies refer to the same event.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the handle refers to an event (or periodic series) that has not
  /// fired or been cancelled. After Simulator::clear() all outstanding
  /// handles report invalid.
  bool valid() const;

  /// Cancel the event. Reclamation is lazy: the slot is recycled when the
  /// event surfaces in the queue. Idempotent; no-op after firing.
  void cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  using Callback = InlineFn<64>;

  explicit Simulator(std::uint64_t seed = 0xDECE57ull) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Root RNG for the simulation; fork per component for isolation.
  Rng& rng() { return rng_; }

  /// Install (or clear, with nullptr) the trace sink. The sink is borrowed:
  /// the caller keeps ownership and must outlive the simulator's use of it.
  void set_trace(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace() const { return trace_; }

  /// Install (or clear, with nullptr) the self-profiler: every fired event's
  /// callback is wall-clock timed and attributed to its tag. Borrowed, same
  /// lifetime rule as the trace sink; null costs one test per fired event.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }
  Profiler* profiler() const { return profiler_; }

  /// Install (or clear, with nullptr) sim-time telemetry: the drain loop
  /// samples every registered series at each cadence boundary it crosses
  /// (see sim/telemetry.hpp). Borrowed, same lifetime rule as the trace
  /// sink; null costs nothing — the check shares the profiler's once-per-run
  /// loop selection, not a per-event branch.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  Telemetry* telemetry() const { return telemetry_; }

  /// Schedule `fn` to run `delay` from now. Negative delays clamp to "now".
  /// `tag` (a string literal) labels the event in trace output.
  EventHandle schedule(SimDuration delay, Callback fn,
                       const char* tag = nullptr) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn), tag);
  }

  /// Schedule `fn` at an absolute simulated time (>= now).
  EventHandle schedule_at(SimTime when, Callback fn,
                          const char* tag = nullptr);

  /// Fire-and-forget variant of schedule(): no EventHandle. Prefer this when
  /// the handle would be discarded.
  void post(SimDuration delay, Callback fn, const char* tag = nullptr) {
    post_at(now_ + (delay < 0 ? 0 : delay), std::move(fn), tag);
  }

  /// Fire-and-forget variant of schedule_at().
  void post_at(SimTime when, Callback fn, const char* tag = nullptr);

  /// Schedule `fn` every `period`, starting after `initial_delay`.
  /// The returned handle cancels all future firings.
  EventHandle schedule_periodic(SimDuration initial_delay, SimDuration period,
                                Callback fn, const char* tag = nullptr);

  /// Run events until the queue drains or simulated time would pass `until`.
  /// Events at exactly `until` are executed, and the clock then reads at
  /// least `until`. Returns events processed.
  std::size_t run_until(SimTime until) { return drain(until, true); }

  /// Run until the queue is empty (use with care: periodic timers never end).
  /// The clock is left at the last event fired.
  std::size_t run_all() {
    return drain(std::numeric_limits<SimTime>::max(), false);
  }

  /// Drop every pending event and periodic series, and disarm every Timer.
  /// Outstanding EventHandles become invalid (their slots' generations are
  /// bumped).
  void clear();

  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t total_events_processed() const { return processed_; }

  /// Earliest queued fire time, or SimTime's max when the queue is empty.
  /// A cancelled-but-unreclaimed top counts, as does a Timer entry that will
  /// be re-keyed or dropped — it is a conservative lower bound, which is all
  /// the sharded kernel's window computation needs (see sim/sharding.hpp).
  SimTime next_event_time() const {
    return heap_.empty() ? std::numeric_limits<SimTime>::max()
                         : heap_[0].when;
  }

 private:
  friend class EventHandle;
  friend class Timer;

  /// Set in HeapEntry::slot for a Timer's entry; the low bits then index
  /// timers_ instead of the arena. alloc_slot() refuses arena indices that
  /// would reach it.
  static constexpr std::uint32_t kTimerBit = std::uint32_t{1} << 31;

  enum class State : std::uint8_t {
    kFree,       // on the free list
    kPending,    // queued in the heap
    kCancelled,  // queued but cancelled; reclaimed lazily when it surfaces
    kSeries,     // periodic-series control slot (never in the heap)
  };

  /// One slab slot. For kSeries slots, `fn` is the user callback, `when`
  /// holds the period, and the slot is parked outside the heap while the
  /// per-firing events (small {this, slot, gen} captures) reference it.
  /// The FIFO tie-break sequence lives only in the HeapEntry — the slot
  /// never needs it, and dropping it (plus InlineFn's pointer alignment)
  /// keeps the slot at 96 bytes instead of 112.
  struct Event {
    SimTime when = 0;
    const char* tag = nullptr;  // trace category; may be null
    std::uint32_t gen = 0;
    State state = State::kFree;
    Callback fn;
  };

  /// Heap entry: the ordering key is copied next to the slot index so sift
  /// comparisons never chase into the arena.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool before(const HeapEntry& o) const {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };

  std::uint32_t alloc_slot();
  std::uint32_t grow_arena();
  void release_slot(std::uint32_t slot);
  std::uint32_t push_event(SimTime when, Callback fn, const char* tag);
  void heap_push(HeapEntry e);
  void heap_pop_min();
  void fire_top(const HeapEntry& top);
  void reclaim_cancelled_top(const HeapEntry& top);
  /// The one drain loop behind run_until (to_horizon: the clock ends at
  /// least at `until`) and run_all (the clock stays at the last event).
  std::size_t drain(SimTime until, bool to_horizon);
  /// drain()'s twin used when a profiler and/or telemetry is installed;
  /// selected once per run_* call and defined in simulator_profiled.cpp — a
  /// separate TU, so the uninstrumented loop (and everything compiled next
  /// to it) keeps its pre-profiler codegen. See the comment atop that file.
  std::size_t drain_instrumented(SimTime until, bool to_horizon);

  static bool is_timer_entry(const HeapEntry& e) {
    return (e.slot & kTimerBit) != 0;
  }
  Timer* timer_of(const HeapEntry& e) const {
    return timers_[e.slot & ~kTimerBit];
  }
  std::uint32_t register_timer(Timer* timer);
  void unregister_timer(std::uint32_t id);
  void arm_timer(Timer& timer, SimTime when);
  bool settle_timer_top(const HeapEntry& top);
  void fire_timer_top(const HeapEntry& top);
  void arm_periodic(std::uint32_t slot, std::uint32_t gen, SimTime when,
                    const char* tag);
  void fire_periodic(std::uint32_t slot, std::uint32_t gen);

  bool handle_valid(std::uint32_t slot, std::uint32_t gen) const {
    if (slot >= arena_.size()) return false;
    const Event& ev = arena_[slot];
    return ev.gen == gen &&
           (ev.state == State::kPending || ev.state == State::kSeries);
  }
  void handle_cancel(std::uint32_t slot, std::uint32_t gen) {
    if (slot >= arena_.size()) return;
    Event& ev = arena_[slot];
    if (ev.gen != gen) return;
    if (ev.state == State::kPending) {
      ev.state = State::kCancelled;  // heap still references it: lazy reclaim
    } else if (ev.state == State::kSeries) {
      release_slot(slot);  // nothing queued references series slots
    }
  }

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  Rng rng_;
  TraceSink* trace_ = nullptr;
  std::vector<Event> arena_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap over (when, seq)
  // Last on purpose: the hot members above keep their pre-profiler offsets
  // (the fill/drain micros are sensitive to arena_/heap_ crossing lines).
  Profiler* profiler_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  // Registered Timers by id (null once destroyed) and the ids free for
  // reuse. A timer's state lives in the Timer itself.
  std::vector<Timer*> timers_;
  std::vector<std::uint32_t> free_timers_;
};

/// A one-shot timer that can be re-armed (see the header comment). The
/// callback and tag are fixed at construction. Not copyable or movable: the
/// kernel holds its address. Must not outlive its Simulator, and must not
/// be destroyed from inside its own callback.
class Timer {
 public:
  Timer(Simulator& sim, Simulator::Callback fn, const char* tag = nullptr);
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&&) = delete;
  Timer& operator=(Timer&&) = delete;

  /// Fire `delay` from now (negative clamps to now), replacing any pending
  /// deadline. Takes one sequence number and writes one "sched" record,
  /// exactly like schedule().
  void arm(SimDuration delay);

  /// Disarm. Idempotent; writes no trace record.
  void cancel() { armed_ = false; }

  /// True between arm() and the firing or cancel(). False inside the
  /// callback (until it re-arms) and after Simulator::clear().
  bool armed() const { return armed_; }

 private:
  friend class Simulator;
  static constexpr std::uint64_t kNoEntry = ~std::uint64_t{0};

  Simulator& sim_;
  Simulator::Callback fn_;
  const char* tag_;
  SimTime deadline_ = 0;     // fire time of the current arm
  std::uint64_t seq_ = 0;    // sequence number of the current arm
  // Key of the timer's one live heap entry; entry_seq_ is kNoEntry when
  // there is none. It never sorts after (deadline_, seq_) while armed.
  SimTime entry_when_ = 0;
  std::uint64_t entry_seq_ = kNoEntry;
  std::uint32_t id_;
  bool armed_ = false;
};

inline bool EventHandle::valid() const {
  return sim_ != nullptr && sim_->handle_valid(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->handle_cancel(slot_, gen_);
}

}  // namespace decentnet::sim
