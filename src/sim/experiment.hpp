// ExperimentHarness: the one way every bench and example wires itself up.
//
// The harness owns the experiment scope — root seed, CLI options, the shared
// MetricRegistry, an optional JSONL trace sink, a default Simulator — and the
// result pipeline: rows accumulate as named cells and are emitted twice, as
// the human-readable Table the benches always printed and as a
// machine-readable BENCH_<id>.json whose bytes are a pure function of the
// seed (the repo's perf trajectory).
//
// Canonical bench shape:
//
//   int main(int argc, char** argv) {
//     sim::ExperimentHarness ex("E1_dht_lookup", argc, argv, {.seed = 11});
//     ex.describe("E1: lookup latency", "paper claim...", "what we sweep...");
//     for (...) {
//       sim::Simulator simu(ex.seed());
//       ex.instrument(simu);     // no-op unless --trace / --profile given
//       net::Network netw(simu, ..., {}, &ex.metrics());
//       ... run ...
//       ex.add_row({{"profile", label}, {"p50_s", sim::Value(p50, 2)}});
//     }
//     return ex.finish();   // prints the table, writes BENCH_E1_dht_lookup.json
//   }
//
// CLI accepted by every harness binary: see the "Harness flags" table in
// README.md (the single authoritative list: --seed, --json, --no-json,
// --trace, --profile, --jobs, --param, --quiet, --help).
//
// Parallel replication (run_points): a bench that expresses its sweep as
// independent points gets --jobs for free. Every point runs with its own
// Simulator (constructed by the bench), its own MetricRegistry, and a
// deterministic seed; results are buffered per point and merged in
// submission order, so BENCH_<id>.json is byte-identical for any --jobs
// value. Tracing forces --jobs 1 (a single interleaved JSONL stream must
// stay deterministic).
//
// Wall-clock measurements (Value::timing) appear in the printed table but are
// excluded from the JSON so that BENCH_*.json stays byte-identical across
// runs with the same seed. The same rule covers --profile: the "profile" JSON
// key (kernel self-profiler output) carries wall-clock numbers and exists
// only when --profile was given, so the determinism byte-compares simply
// never enable it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/profiler.hpp"
#include "sim/sharding.hpp"
#include "sim/simulator.hpp"
#include "sim/table.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

namespace decentnet::sim {

/// One result cell: a tagged scalar that renders into both a table cell and
/// a JSON literal. Doubles carry a table precision; JSON always uses
/// shortest-round-trip formatting.
class Value {
 public:
  enum class Kind { Null, Bool, Int, Uint, Double, Str };

  Value() : kind_(Kind::Null) {}
  Value(bool b) : kind_(Kind::Bool), u_(b ? 1 : 0) {}
  Value(int v) : kind_(Kind::Int), i_(v) {}
  Value(unsigned v) : kind_(Kind::Uint), u_(v) {}
  Value(std::int64_t v) : kind_(Kind::Int), i_(v) {}
  Value(std::uint64_t v) : kind_(Kind::Uint), u_(v) {}
  Value(double v, int precision = 3)
      : kind_(Kind::Double), d_(v), precision_(precision) {}
  Value(const char* s) : kind_(Kind::Str), s_(s) {}
  Value(std::string s) : kind_(Kind::Str), s_(std::move(s)) {}

  /// A wall-clock-derived measurement: shown in the table, omitted from the
  /// JSON artifact (which must be deterministic in the seed).
  static Value timing(double v, int precision = 0) {
    Value val(v, precision);
    val.timing_ = true;
    return val;
  }

  Kind kind() const { return kind_; }
  bool is_timing() const { return timing_; }

  /// Render for the ASCII table.
  std::string to_cell() const;
  /// Render as a JSON literal (quoted/escaped for strings).
  std::string to_json() const;

 private:
  Kind kind_;
  bool timing_ = false;
  std::int64_t i_ = 0;
  std::uint64_t u_ = 0;
  double d_ = 0;
  int precision_ = 3;
  std::string s_;
};

struct ExperimentOptions {
  std::uint64_t seed = 1;
  std::string json_path;   // empty => "BENCH_<id>.json"
  std::string trace_path;  // empty => tracing disabled
  std::size_t jobs = 1;    // worker threads for run_points()
  /// Shard count for shard-aware benches (ShardedKernel decomposition), at
  /// most ShardedKernel::kMaxShards. 1 = a one-shard kernel, which is the
  /// plain kernel bit for bit. The decomposition —
  /// not the thread count — decides results, so artifacts depend on
  /// sim_shards but never on sim_threads.
  std::size_t sim_shards = 1;
  /// Worker threads inside one sharded kernel (ShardedKernel::run_until).
  /// Purely a wall-clock knob: byte-identical output for any value.
  std::size_t sim_threads = 1;
  /// Set by benches that actually route --sim-shards into a ShardedKernel.
  /// Everywhere else the CLI rejects the flag outright — silently ignoring
  /// a decomposition knob would misreport what was measured.
  bool shard_aware = false;
  /// Chaos-aware benches (bench_e21_chaos) accept the three chaos flags;
  /// everywhere else the CLI rejects them, mirroring shard_aware.
  bool chaos_aware = false;
  /// --chaos-seeds N: fuzz seeds per protocol. 0 = the bench's default.
  std::size_t chaos_seeds = 0;
  /// --chaos-space FILE: JSON ChaosSpace overriding the built-in space.
  std::string chaos_space_path;
  /// --repro FILE: replay one ChaosRepro envelope instead of fuzzing.
  std::string repro_path;
  bool profile = false;    // kernel self-profiler ("profile" JSON key)
  /// --telemetry[=INTERVAL]: sim-time series sampling cadence, 0 = off (the
  /// default — golden traces and perf artifacts are untouched unless asked
  /// for). The bare flag samples every 100 ms of sim time.
  SimDuration telemetry_interval = 0;
  /// --telemetry-out PATH (empty => "TELEMETRY_<id>.jsonl").
  std::string telemetry_path;
  bool emit_json = true;
  bool quiet = false;
  bool help = false;
  /// `--param key=value` pairs (repeatable; later wins). A bench declares
  /// its keys by passing them here with their defaults; the CLI rejects any
  /// other key and appends the overrides. Benches read them through
  /// cli_param()/cli_param_u64() to scale sweeps without bespoke flags
  /// (e.g. E20's `--param max_n=10000`).
  std::vector<std::pair<std::string, std::string>> params;
};

class ExperimentHarness;

/// Per-sweep-point execution scope handed to run_points() bodies. Each point
/// gets a private MetricRegistry and a row buffer; the harness merges both
/// in point-index order after all points finish, so results are independent
/// of --jobs and of thread scheduling. The body must route all output
/// through the scope (no direct harness mutation, no stdout) and build its
/// own Simulator — seeded with root_seed() to reproduce a bench's historical
/// single-seed sweep, or seed() for decorrelated replicas.
class PointScope {
 public:
  /// Index of this sweep point in [0, count).
  std::size_t index() const { return index_; }
  /// The experiment's root seed (same for every point).
  std::uint64_t root_seed() const { return root_seed_; }
  /// Deterministic per-point seed: splitmix of (root seed, index). Use for
  /// replica-style sweeps where points must be statistically independent.
  std::uint64_t seed() const { return point_seed_; }

  /// Point-private registry; merged into the harness registry afterwards.
  MetricRegistry& metrics() { return metrics_; }

  /// Trace sink for this point's Simulator (null unless tracing is enabled,
  /// which forces sequential execution).
  TraceSink* trace() const { return trace_; }

  /// Point-private profiler (null unless --profile); merged into the harness
  /// profiler in point-index order afterwards. Unlike tracing, profiling
  /// does not force sequential execution — samples are point-local.
  Profiler* profiler() const { return profiler_.get(); }

  /// Harness telemetry, or nullptr when --telemetry is off. Like tracing,
  /// telemetry writes one sequential series stream and forces --jobs 1.
  /// instrument() already attaches it; benches use this accessor to
  /// register their own protocol gauges after instrumenting.
  Telemetry* telemetry() const { return telemetry_; }

  /// Install this point's trace sink, profiler, and telemetry on `simu`
  /// (all no-ops unless the matching flag was given). The idiomatic first
  /// line of a run_points body after constructing its Simulator. Attaching
  /// telemetry resets its series registrations, so per-point gauges must be
  /// registered after this call.
  void instrument(Simulator& simu) const {
    simu.set_trace(trace_);
    simu.set_profiler(profiler_.get());
    if (telemetry_ != nullptr) telemetry_->attach(simu);
    else simu.set_telemetry(nullptr);
  }

  /// Sharded counterpart: the kernel buffers per-shard records/samples and
  /// merges them canonically, so artifacts stay byte-identical at any
  /// --sim-threads value.
  void instrument(ShardedKernel& kernel) const {
    kernel.set_trace(trace_);
    kernel.set_profiler(profiler_.get());
    kernel.set_telemetry(telemetry_);
  }

  /// Buffer one result row; rows from point i precede rows from point i+1
  /// in the final table/artifact regardless of completion order.
  void add_row(std::vector<std::pair<std::string, Value>> cells) {
    rows_.push_back(std::move(cells));
  }

 private:
  friend class ExperimentHarness;
  PointScope(std::size_t index, std::uint64_t root_seed,
             std::uint64_t point_seed, TraceSink* trace, bool profile,
             Telemetry* telemetry)
      : index_(index),
        root_seed_(root_seed),
        point_seed_(point_seed),
        trace_(trace),
        profiler_(profile ? std::make_unique<Profiler>() : nullptr),
        telemetry_(telemetry) {}

  std::size_t index_;
  std::uint64_t root_seed_;
  std::uint64_t point_seed_;
  TraceSink* trace_;
  std::unique_ptr<Profiler> profiler_;
  Telemetry* telemetry_;  // harness-owned; non-null forces sequential points
  MetricRegistry metrics_;
  std::vector<std::vector<std::pair<std::string, Value>>> rows_;
};

class ExperimentHarness {
 public:
  /// Construct with explicit options (tests, embedding).
  explicit ExperimentHarness(std::string id, ExperimentOptions opts = {});

  /// Construct from CLI args. `defaults` carries the bench's historical
  /// seed. Prints usage and exits on --help or an unrecognized flag.
  ExperimentHarness(std::string id, int argc, char* const* argv,
                    ExperimentOptions defaults = {});

  ExperimentHarness(const ExperimentHarness&) = delete;
  ExperimentHarness& operator=(const ExperimentHarness&) = delete;

  /// Parse harness flags into `opts` (pre-loaded with defaults). Returns
  /// false and sets `error` on an unrecognized or malformed argument, or on
  /// a `--param` key that `opts.params` does not declare.
  static bool parse_cli(int argc, char* const* argv, ExperimentOptions& opts,
                        std::string& error);
  /// Flag help, ending with the declared `--param` keys and defaults.
  static std::string usage(
      const std::string& prog, const std::string& id,
      const std::vector<std::pair<std::string, std::string>>& params);

  const std::string& id() const { return id_; }
  const ExperimentOptions& options() const { return opts_; }

  /// Root seed for the experiment (bench default unless --seed overrode it).
  std::uint64_t seed() const { return opts_.seed; }

  /// --sim-shards / --sim-threads (see ExperimentOptions). Benches that
  /// support sharded kernels read these to size their ShardedKernel; the
  /// rest ignore them.
  std::size_t sim_shards() const { return opts_.sim_shards; }
  std::size_t sim_threads() const { return opts_.sim_threads; }

  /// --chaos-seeds with a bench default (chaos-aware benches only).
  std::size_t chaos_seeds(std::size_t fallback) const {
    return opts_.chaos_seeds == 0 ? fallback : opts_.chaos_seeds;
  }
  /// --chaos-space FILE path ("" = built-in space).
  const std::string& chaos_space_path() const { return opts_.chaos_space_path; }
  /// --repro FILE path ("" = fuzz mode).
  const std::string& repro_path() const { return opts_.repro_path; }
  /// Deterministic per-run seed stream: splitmix of (root seed, index).
  std::uint64_t seed_for(std::uint64_t index) const;

  /// Print the banner (unless --quiet) and record title/claim/method for the
  /// JSON artifact.
  void describe(std::string title, std::string claim, std::string method);

  /// The experiment-scoped registry. Pass `&metrics()` to Network (and thus
  /// to every component constructed over it) to aggregate layer metrics
  /// here; they are embedded in the JSON artifact when non-empty.
  MetricRegistry& metrics() { return metrics_; }

  /// The trace sink, or nullptr when tracing is off. Install on each kernel
  /// with instrument() (or `simulator.set_trace(harness.trace())`).
  TraceSink* trace() { return trace_.get(); }

  /// The kernel self-profiler, or nullptr unless --profile was given. Its
  /// report lands in the JSON artifact under "profile" (wall-clock numbers:
  /// excluded from determinism byte-compares by never passing --profile
  /// there).
  Profiler* profiler() { return profiler_.get(); }

  /// Sim-time telemetry, or nullptr unless --telemetry was given. Its
  /// series land in TELEMETRY_<id>.jsonl (or --telemetry-out). instrument()
  /// attaches it; benches register protocol gauges through this accessor
  /// *after* instrumenting (attach resets the registrations).
  Telemetry* telemetry() { return telemetry_.get(); }

  /// Install the harness trace sink, profiler, and telemetry on `simu`; all
  /// are no-ops unless the matching CLI flag enabled them. Benches that
  /// build one Simulator per row call this right after constructing it.
  void instrument(Simulator& simu) {
    simu.set_trace(trace_.get());
    simu.set_profiler(profiler_.get());
    if (telemetry_) telemetry_->attach(simu);
    else simu.set_telemetry(nullptr);
  }

  /// Sharded counterpart of instrument(Simulator&).
  void instrument(ShardedKernel& kernel) {
    kernel.set_trace(trace_.get());
    kernel.set_profiler(profiler_.get());
    kernel.set_telemetry(telemetry_.get());
  }

  /// Lazily constructed default kernel, seeded with seed() and with the
  /// trace sink pre-installed. Sweep benches that need one kernel per row
  /// construct their own Simulators from seed()/seed_for() instead.
  Simulator& simulator();

  /// A swept/configured parameter recorded in the JSON "params" object.
  void set_param(const std::string& key, Value v);

  /// Value of a declared `--param` key: the last CLI override, else the
  /// bench's default. Throws std::logic_error for an undeclared key.
  const std::string& cli_param(const std::string& key) const;
  /// Integer-valued cli_param(); exits 2 on a non-integer value so typos
  /// fail loudly rather than run the default.
  std::uint64_t cli_param_u64(const std::string& key) const;

  /// Append one result row; cells keep insertion order. The table header is
  /// the union of row keys in first-seen order.
  void add_row(std::vector<std::pair<std::string, Value>> cells);

  /// Run `count` independent sweep points through `body`, on --jobs worker
  /// threads (default 1). Rows and metrics recorded through each PointScope
  /// are merged in point-index order once every point has finished, so the
  /// artifact bytes are a pure function of the seed for any --jobs value.
  /// Exceptions from a body are rethrown (lowest point index wins) after the
  /// pool drains. Tracing (--trace) forces sequential execution.
  void run_points(std::size_t count,
                  const std::function<void(PointScope&)>& body);

  /// The worker count run_points() will actually use (after the tracing
  /// override), for banners/tests.
  std::size_t effective_jobs() const;

  std::size_t row_count() const { return rows_.size(); }

  /// Print the results table (unless --quiet), write the JSON artifact
  /// (unless --no-json), flush the trace and series files, and return 0 —
  /// or 1, with "cannot write PATH" on stderr, when any of those writes
  /// failed. Idempotent.
  int finish();

  /// The JSON artifact body (also what finish() writes).
  std::string to_json() const;

 private:
  std::string telemetry_path() const;

  std::string id_;
  ExperimentOptions opts_;
  std::string title_, claim_, method_;
  MetricRegistry metrics_;
  std::unique_ptr<JsonlTraceSink> trace_;
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<SeriesSink> telemetry_sink_;  // declared before telemetry_
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<Simulator> sim_;
  std::vector<std::pair<std::string, Value>> params_;
  std::vector<std::vector<std::pair<std::string, Value>>> rows_;
  bool finished_ = false;
  int finish_rc_ = 0;
};

}  // namespace decentnet::sim
