// Structured tracing for the simulation kernel (Shadow-style).
//
// A TraceSink receives a flat stream of TraceRecords from the Simulator
// (event scheduled / fired / cancelled) and from the Network (message send /
// drop, with the drop reason). Sinks are installed per-Simulator; with no
// sink installed the hot path pays a single null-pointer test. The JSONL
// sink writes one compact JSON object per record, so two runs from the same
// seed produce byte-identical trace files — the determinism contract the
// tests pin down.
#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

#include "sim/time.hpp"

namespace decentnet::sim {

/// One structured trace record. `kind` says which fields are meaningful
/// (alphabetical — keep it that way when adding kinds):
///
///   kind="cancel" — event cancelled through its EventHandle surfaced
///                   (lazy): id=event seq. A sim::Timer writes none: its
///                   superseded or cancelled arms leave no record
///   kind="drop"   — Network dropped a message: tag=reason ("partition",
///                   "unreachable", "loss", "offline"), id/a/b/bytes as send
///   kind="dup"    — Network duplicated a message (duplication window):
///                   id/a/b/bytes as send; emitted before the extra delivery
///                   is scheduled
///   kind="fault"  — FaultScheduler injected a fault: tag=fault type
///                   ("partition", "crash", "latency", ...), id=plan event
///                   index, a=target node index, b=heal time (us, 0=never)
///   kind="fire"   — event (or Timer) callback about to run: id=event seq
///   kind="heal"   — FaultScheduler healed a fault: fields as "fault"
///   kind="invariant" — InvariantChecker recorded a violation: tag=invariant
///                   name, id=kernel events processed (the trace position)
///   kind="sched"  — event pushed or Timer armed: id=event seq, a=fire
///                   time, tag=category
///   kind="send"   — Network accepted a message: id=msg seq, a=from, b=to,
///                   bytes=wire size
///   kind="span"   — causal hop allocated (span tracking on): id=hop id,
///                   a=tree root hop, b=parent hop (0 = root), bytes=tree
///                   depth, queue_us=sender-side queuing delay this hop
///                   waited behind earlier traffic (Bandwidth/Tcp transport;
///                   0 — and omitted from JSON — in Latency mode). tag="root"
///                   marks a virtual root opened by Network::new_span_root();
///                   otherwise the record follows its message's "send" record
///                   immediately (same send, matching msg seq)
///   kind="warn"   — kernel configuration warning, emitted once: tag=what
///                   ("sharding/zero_lookahead": degenerate lookahead forced
///                   the sharded kernel into sequential stepping; a=shard
///                   count)
///
/// `kind` and `tag` must point at string literals (or otherwise outlive the
/// sink call); records are emitted synchronously and never stored.
struct TraceRecord {
  SimTime t = 0;           // simulated time at emission
  const char* kind = "";   // record type, see above
  const char* tag = "";    // category / drop reason; may be empty
  std::uint64_t id = 0;    // event or message sequence number
  std::uint64_t a = 0;     // kind-specific
  std::uint64_t b = 0;     // kind-specific
  std::uint64_t bytes = 0; // payload size for net records
  std::uint64_t queue_us = 0;  // sender-side queuing delay ("span" records)
};

/// Receives trace records. Implementations must not re-enter the simulator.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceRecord& rec) = 0;
};

/// Writes one JSON object per line ("JSON Lines"). Output is a pure function
/// of the record stream: no wall-clock, no pointers, no locale dependence.
/// Each record is one write through the stream's buffer, so memory stays
/// O(1) in run length.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Open `path` for writing (truncates). Throws std::runtime_error when the
  /// file cannot be opened.
  explicit JsonlTraceSink(const std::string& path);
  /// Write to an externally owned stream (tests).
  explicit JsonlTraceSink(std::ostream& os);
  /// Flushes; never throws (a failed write is for flush() to report).
  ~JsonlTraceSink() override;

  void record(const TraceRecord& rec) override;
  /// Push buffered records to the OS. False once any write or flush has
  /// failed (e.g. a full disk): the stream stays failed, so the last
  /// flush() reports on the whole run.
  bool flush();

  std::uint64_t records_written() const { return written_; }

 private:
  std::ofstream owned_;
  std::ostream* os_;
  std::string line_;  // reused per record
  std::uint64_t written_ = 0;
};

}  // namespace decentnet::sim
