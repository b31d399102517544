#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace decentnet::sim {

std::uint32_t Simulator::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  return grow_arena();
}

// Out of line so alloc_slot's free-list path stays small enough to inline
// into push_event: with the bound check inline, GCC called alloc_slot on
// every post and the fill/drain micros lost up to 20%.
std::uint32_t Simulator::grow_arena() {
  if (arena_.size() >= kTimerBit) {
    throw std::length_error("Simulator: event arena full (2^31 slots)");
  }
  arena_.emplace_back();
  return static_cast<std::uint32_t>(arena_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Event& ev = arena_[slot];
  ev.fn.reset();
  ev.tag = nullptr;
  ev.state = State::kFree;
  ++ev.gen;  // outstanding handles to this slot read as invalid from here on
  free_.push_back(slot);
}

void Simulator::heap_push(HeapEntry e) {
  // Hole insertion: slide parents down into the hole and place the new
  // entry once, instead of a 3-move swap per level.
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_min() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Hole percolation with the displaced last entry.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + 4 < n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

std::uint32_t Simulator::push_event(SimTime when, Callback fn,
                                    const char* tag) {
  if (when < now_) when = now_;
  const std::uint64_t id = seq_++;
  if (trace_) {
    trace_->record({now_, "sched", tag ? tag : "", id,
                    static_cast<std::uint64_t>(when), 0, 0});
  }
  const std::uint32_t slot = alloc_slot();
  Event& ev = arena_[slot];
  ev.when = when;
  ev.fn = std::move(fn);
  ev.tag = tag;
  ev.state = State::kPending;
  heap_push({when, id, slot});
  return slot;
}

EventHandle Simulator::schedule_at(SimTime when, Callback fn,
                                   const char* tag) {
  const std::uint32_t slot = push_event(when, std::move(fn), tag);
  return EventHandle(this, slot, arena_[slot].gen);
}

void Simulator::post_at(SimTime when, Callback fn, const char* tag) {
  push_event(when, std::move(fn), tag);
}

void Simulator::arm_periodic(std::uint32_t slot, std::uint32_t gen,
                             SimTime when, const char* tag) {
  // Each firing is a detached event with a 16-byte {this-free} capture; the
  // series callback itself stays parked in the series slot.
  post_at(when, [this, slot, gen] { fire_periodic(slot, gen); }, tag);
}

void Simulator::fire_periodic(std::uint32_t slot, std::uint32_t gen) {
  {
    const Event& ev = arena_[slot];
    if (ev.gen != gen || ev.state != State::kSeries) return;  // cancelled
  }
  // Move the callback out before invoking: the callback may schedule events,
  // which can grow (reallocate) the arena under us.
  Callback fn = std::move(arena_[slot].fn);
  const SimDuration period = static_cast<SimDuration>(arena_[slot].when);
  const char* tag = arena_[slot].tag;
  fn();
  // The callback may have cancelled its own series (or cleared the kernel);
  // re-check before parking the callback back and re-arming.
  Event& ev = arena_[slot];
  if (ev.gen != gen || ev.state != State::kSeries) return;
  ev.fn = std::move(fn);
  arm_periodic(slot, gen, now_ + period, tag);
}

EventHandle Simulator::schedule_periodic(SimDuration initial_delay,
                                         SimDuration period, Callback fn,
                                         const char* tag) {
  if (period <= 0) throw std::invalid_argument("periodic event needs period > 0");
  const std::uint32_t slot = alloc_slot();
  Event& ev = arena_[slot];
  ev.when = period;  // series slots park the period here (never heap-ordered)
  ev.fn = std::move(fn);
  ev.tag = tag;
  ev.state = State::kSeries;
  const std::uint32_t gen = ev.gen;
  arm_periodic(slot, gen, now_ + (initial_delay < 0 ? 0 : initial_delay), tag);
  return EventHandle(this, slot, gen);
}

void Simulator::reclaim_cancelled_top(const HeapEntry& top) {
  if (trace_) {
    const Event& ev = arena_[top.slot];
    trace_->record({now_, "cancel", ev.tag ? ev.tag : "", top.seq, 0, 0, 0});
  }
  heap_pop_min();
  release_slot(top.slot);
}

void Simulator::fire_top(const HeapEntry& top) {
  // Detach the callback and recycle the slot *before* invoking it: inside
  // its own callback a handle reads invalid and cancel() is a no-op (the
  // generation already moved on), and the callback is free to schedule new
  // events even though that may reallocate the arena.
  Event& ev = arena_[top.slot];
  Callback fn = std::move(ev.fn);
  const char* tag = ev.tag;
  heap_pop_min();
  release_slot(top.slot);
  now_ = top.when;
  if (trace_) {
    trace_->record({now_, "fire", tag ? tag : "", top.seq, 0, 0, 0});
  }
  fn();
  ++processed_;
}

std::uint32_t Simulator::register_timer(Timer* timer) {
  if (!free_timers_.empty()) {
    const std::uint32_t id = free_timers_.back();
    free_timers_.pop_back();
    timers_[id] = timer;
    return id;
  }
  if (timers_.size() >= kTimerBit) {
    throw std::length_error("Simulator: too many timers (2^31)");
  }
  timers_.push_back(timer);
  return static_cast<std::uint32_t>(timers_.size() - 1);
}

void Simulator::unregister_timer(std::uint32_t id) {
  // Entries still queued for this id are stale from here on: a timer that
  // reuses the id never holds their sequence numbers.
  timers_[id] = nullptr;
  free_timers_.push_back(id);
}

void Simulator::arm_timer(Timer& timer, SimTime when) {
  const std::uint64_t id = seq_++;
  if (trace_) {
    trace_->record({now_, "sched", timer.tag_ ? timer.tag_ : "", id,
                    static_cast<std::uint64_t>(when), 0, 0});
  }
  timer.deadline_ = when;
  timer.seq_ = id;
  timer.armed_ = true;
  // A live entry at or before (when, id) stays put; it is re-keyed when it
  // surfaces. An earlier deadline needs an entry at the exact key, and the
  // old entry goes stale (its seq no longer matches entry_seq_).
  if (timer.entry_seq_ != Timer::kNoEntry && timer.entry_when_ <= when) return;
  timer.entry_when_ = when;
  timer.entry_seq_ = id;
  heap_push({when, id, kTimerBit | timer.id_});
}

bool Simulator::settle_timer_top(const HeapEntry& top) {
  // True when the top is its timer's live entry at exactly (deadline, seq).
  // Otherwise the entry is dropped (stale, or its timer disarmed) or
  // re-keyed to the deadline. Neither is an event.
  Timer* const t = timer_of(top);
  if (t == nullptr || t->entry_seq_ != top.seq) {
    heap_pop_min();
    return false;
  }
  if (!t->armed_) {
    t->entry_seq_ = Timer::kNoEntry;
    heap_pop_min();
    return false;
  }
  if (t->seq_ == top.seq) return true;
  t->entry_when_ = t->deadline_;
  t->entry_seq_ = t->seq_;
  heap_pop_min();
  heap_push({t->deadline_, t->seq_, top.slot});
  return false;
}

void Simulator::fire_timer_top(const HeapEntry& top) {
  // Disarm before invoking, as fire_top invalidates a handle: armed() reads
  // false inside the callback, which is free to re-arm.
  Timer* const t = timer_of(top);
  heap_pop_min();
  t->armed_ = false;
  t->entry_seq_ = Timer::kNoEntry;
  now_ = top.when;
  if (trace_) {
    trace_->record({now_, "fire", t->tag_ ? t->tag_ : "", top.seq, 0, 0, 0});
  }
  t->fn_();
  ++processed_;
}

std::size_t Simulator::drain(SimTime until, bool to_horizon) {
  if (profiler_ != nullptr || telemetry_ != nullptr) [[unlikely]] {
    return drain_instrumented(until, to_horizon);
  }
  std::size_t n = 0;
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    if (is_timer_entry(top)) [[unlikely]] {
      if (!settle_timer_top(top)) continue;
      if (top.when > until) break;
      fire_timer_top(top);
    } else {
      // Skip cancelled events cheaply without advancing the clock (even past
      // the horizon — reclamation is what empties the queue).
      if (arena_[top.slot].state == State::kCancelled) {
        reclaim_cancelled_top(top);
        continue;
      }
      if (top.when > until) break;
      fire_top(top);
    }
    ++n;
  }
  if (to_horizon && now_ < until) now_ = until;
  return n;
}

void Simulator::clear() {
  for (const HeapEntry& e : heap_) {
    if (!is_timer_entry(e)) release_slot(e.slot);
  }
  heap_.clear();
  for (Timer* t : timers_) {
    if (t != nullptr) {
      t->armed_ = false;
      t->entry_seq_ = Timer::kNoEntry;
    }
  }
  // Periodic series slots are parked outside the heap; invalidate them too
  // so no orphaned handle can resurrect a series.
  for (std::uint32_t i = 0; i < arena_.size(); ++i) {
    if (arena_[i].state == State::kSeries) release_slot(i);
  }
}

Timer::Timer(Simulator& sim, Simulator::Callback fn, const char* tag)
    : sim_(sim), fn_(std::move(fn)), tag_(tag), id_(sim.register_timer(this)) {}

Timer::~Timer() { sim_.unregister_timer(id_); }

void Timer::arm(SimDuration delay) {
  sim_.arm_timer(*this, sim_.now_ + (delay < 0 ? 0 : delay));
}

}  // namespace decentnet::sim
