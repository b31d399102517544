// Opt-in kernel self-profiler.
//
// A Profiler attributes wall-clock time and event counts to event tags (the
// string literals passed to schedule()/post()) and, by prefix, to subsystems
// ("net/deliver" -> "net"). It follows the TraceSink discipline exactly: the
// Simulator holds a nullable pointer, and with no profiler installed the hot
// path pays one predictable null test. With one installed, each fired event
// costs two steady_clock reads and one std::unordered_map update keyed on
// the tag pointer.
//
// Determinism note: wall-clock numbers are inherently nondeterministic, so
// profiler output is reported out-of-band (the ExperimentHarness "profile"
// JSON key) and must never feed back into simulation state or the
// byte-compared parts of the artifact. Event *counts* per tag are
// deterministic; only wall_ns varies run to run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

namespace decentnet::sim {

class Profiler {
 public:
  struct TagStats {
    std::uint64_t events = 0;
    std::uint64_t wall_ns = 0;
  };

  /// Monotonic wall-clock nanoseconds (std::chrono::steady_clock).
  static std::uint64_t now_ns();

  /// Attribute one fired event under `tag` (may be null: untagged bucket).
  /// Keyed on the tag *pointer* — O(1), no string hashing on the hot path;
  /// aggregation by string content happens at report time. Defined out of
  /// line so callers (the kernel's profiled drain loops) don't instantiate
  /// the hash table in their own translation unit — that inflates GCC's
  /// unit-growth inlining budget and degrades the unprofiled hot paths
  /// compiled alongside.
  void record(const char* tag, std::uint64_t elapsed_ns);

  bool empty() const { return slots_.empty(); }
  void clear() { slots_.clear(); }

  /// Fold another profiler's samples into this one (run_points merges
  /// point-local profilers in index order, mirroring MetricRegistry).
  void merge_from(const Profiler& other);

  /// Aggregated by tag string content, sorted by tag name. The same literal
  /// can have distinct addresses across translation units; this is where
  /// those buckets collapse. Null/empty tags report as "(untagged)".
  std::map<std::string, TagStats> by_tag() const;

  /// Aggregated by tag prefix before '/' ("net/deliver" -> "net"); tags
  /// without a '/' fall into their full name's bucket.
  std::map<std::string, TagStats> by_subsystem() const;

  TagStats total() const;

  /// Deterministically ordered JSON object:
  /// {"total":{...},"subsystems":{...},"tags":{...}}. Values (wall_ns) are
  /// nondeterministic; structure and ordering are not.
  std::string to_json() const;

 private:
  std::unordered_map<const char*, TagStats> slots_;
};

}  // namespace decentnet::sim
