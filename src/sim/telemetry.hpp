// Deterministic sim-time telemetry: gauges and windowed counter-rates
// sampled on a fixed simulated-time cadence and streamed as compact JSONL
// series records.
//
// Where traces answer "what happened to message X", telemetry answers "what
// did the run look like over time": kernel backlog, transport queue bytes,
// cwnd ramps, drop rates, fault state — one {t, shard, series, v} record per
// registered series per cadence boundary. The stream is a pure function of
// the simulation, never of wall-clock:
//
//   * Sampling happens at fixed sim-time boundaries (t = k * interval). On a
//     plain Simulator the instrumented drain loop (simulator_profiled.cpp)
//     samples between events; on a ShardedKernel the driver samples at
//     barrier windows while workers are quiescent, so per-shard series are
//     byte-identical at any --sim-threads — the same contract as traces.
//   * Within one boundary, series are emitted in (shard, name) order.
//   * A rate series reports the counter delta since the previous boundary
//     (0 across idle gaps). When a sharded barrier crosses several
//     boundaries at once, the whole delta lands on the first one — later
//     boundaries in the same batch read 0, keeping the cadence fixed
//     without pretending to sub-window resolution the kernel doesn't have.
//
// Telemetry is off by default and never schedules kernel events, so golden
// traces and perf artifacts are untouched unless --telemetry is given.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/time.hpp"

namespace decentnet::sim {

class Simulator;

/// Append one series record to `out` as a JSONL line (trailing newline
/// included): {"t":T,"shard":S,"series":"name","v":V}. `v` is formatted with
/// std::to_chars shortest round-trip, so equal doubles always produce equal
/// bytes — the formatter every telemetry byte-compare rests on.
void append_series_json(std::string& out, SimTime t, std::uint32_t shard,
                        const std::string& series, double value);

/// JSONL series writer over a bounded chunk buffer: memory stays
/// O(chunk_bytes) regardless of run length.
class SeriesSink {
 public:
  /// Open `path` for writing (truncates). Throws std::runtime_error when the
  /// file cannot be opened or `chunk_bytes` is zero.
  explicit SeriesSink(const std::string& path,
                      std::size_t chunk_bytes = 1u << 20);
  ~SeriesSink();

  SeriesSink(const SeriesSink&) = delete;
  SeriesSink& operator=(const SeriesSink&) = delete;

  void record(SimTime t, std::uint32_t shard, const std::string& series,
              double value);
  /// Write any partial chunk and push it to the OS. False once any write
  /// or flush has failed (e.g. a full disk): the stream stays failed, so
  /// the last flush() reports on the whole run.
  bool flush();

  std::uint64_t records_written() const { return written_; }

 private:
  void write_buffer();

  std::ofstream out_;
  std::string buf_;
  std::size_t chunk_bytes_;
  std::uint64_t written_ = 0;
};

/// Registry + sampler. Components register gauges (a callback evaluated at
/// each boundary) or rates (a Counter watched for deltas); the kernel calls
/// advance_to() as simulated time passes and every cadence boundary crossed
/// emits one full batch of samples to the sink.
///
/// Lifetime: the sink is borrowed and must outlive the Telemetry. Gauge
/// callbacks and watched counters must stay valid until the next
/// begin_run() — attach()/ShardedKernel::set_telemetry() call it, so
/// re-instrumenting for a new row drops the previous row's registrations
/// before any stale pointer could be sampled.
class Telemetry {
 public:
  using GaugeFn = std::function<double(SimTime)>;

  explicit Telemetry(SeriesSink& sink, SimDuration interval = millis(100));

  SimDuration interval() const { return interval_; }

  /// Drop all registered series and rewind the cadence to the first
  /// boundary. Called at the start of every instrumented run.
  void begin_run();

  /// Register a gauge: `fn(t)` is evaluated at each cadence boundary `t`.
  void add_gauge(std::string name, std::uint32_t shard, GaugeFn fn);

  /// Register a windowed rate over `counter`: each boundary reports the
  /// delta since the previous one. The watermark starts at the counter's
  /// current value, so pre-run accumulation (a harness registry shared
  /// across rows) never leaks into the first sample.
  void add_rate(std::string name, std::uint32_t shard, const Counter& counter);

  /// Instrument a plain Simulator: begin_run(), register the kernel backlog
  /// gauge, and install this telemetry on the kernel's drain loop.
  void attach(Simulator& simu);

  /// First boundary not yet sampled. The drain loops compare against this
  /// before paying for an advance_to() call.
  SimTime next_due() const { return due_; }

  /// Emit one sample batch for every cadence boundary <= now that has not
  /// been sampled yet. Idempotent per boundary; cheap no-op when now is
  /// before next_due().
  void advance_to(SimTime now);

 private:
  struct Series {
    std::string name;
    std::uint32_t shard = 0;
    GaugeFn gauge;                        // empty for rates
    const Counter* counter = nullptr;     // null for gauges
    std::uint64_t last = 0;               // rate watermark
  };

  void rebuild_order();

  SeriesSink& sink_;
  SimDuration interval_;
  SimTime due_;
  std::deque<Series> series_;           // stable addresses; registration order
  std::vector<std::uint32_t> order_;    // indices sorted by (shard, name)
  bool order_dirty_ = false;
};

}  // namespace decentnet::sim
