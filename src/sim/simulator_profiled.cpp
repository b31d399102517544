// The instrumented drain loop, deliberately in its own translation unit.
//
// This is a separate copy of drain() — selected once per run_until/run_all
// call, not per event — used whenever a profiler and/or telemetry is
// installed, so installing neither leaves the hot loop's codegen untouched.
// Two earlier shapes measurably regressed the fill/drain micros with the
// profiler *disabled*:
//   * a per-event `if (profiler_)` inside fire_top perturbed GCC's inlining
//     of the fire path;
//   * defining these loops inside simulator.cpp shifted the unit-growth
//     inlining budget for the whole TU (alloc_slot's fast path, for one,
//     grew a full spill prologue).
// Keeping it here leaves simulator.cpp compiling to the same code as before
// the profiler existed, give or take the entry check.
//
// The profiler timer brackets all of fire_top (or fire_timer_top), so
// per-tag wall time includes the kernel's own pop/recycle work, not just the
// callback body. Re-keying or dropping a Timer entry is not an event: it is
// neither timed nor counted.
//
// Telemetry sampling happens *between* events: before firing an event past a
// cadence boundary, every boundary strictly before it is sampled, so a
// boundary-T sample always reflects the state after all events at t <= T
// have run (events at exactly T fire before the T sample). The per-event
// cost when telemetry is on but not yet due is one load + compare.
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"

namespace decentnet::sim {

std::size_t Simulator::drain_instrumented(SimTime until, bool to_horizon) {
  Profiler* const prof = profiler_;
  Telemetry* const tel = telemetry_;
  std::size_t n = 0;
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    const bool timer = is_timer_entry(top);
    if (timer) {
      if (!settle_timer_top(top)) continue;
    } else if (arena_[top.slot].state == State::kCancelled) {
      reclaim_cancelled_top(top);
      continue;
    }
    if (top.when > until) break;
    if (tel != nullptr && top.when > tel->next_due()) {
      tel->advance_to(top.when - 1);
    }
    const char* tag = nullptr;
    std::uint64_t t0 = 0;
    if (prof != nullptr) {
      tag = timer ? timer_of(top)->tag_ : arena_[top.slot].tag;
      t0 = Profiler::now_ns();
    }
    if (timer) {
      fire_timer_top(top);
    } else {
      fire_top(top);
    }
    if (prof != nullptr) prof->record(tag, Profiler::now_ns() - t0);
    ++n;
  }
  if (to_horizon && now_ < until) now_ = until;
  if (tel != nullptr) tel->advance_to(to_horizon ? until : now_);
  return n;
}

}  // namespace decentnet::sim
