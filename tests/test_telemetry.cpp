// sim::Telemetry contract tests.
//
// The series stream is a pure function of the simulation: gauges and
// windowed counter-rates sampled at fixed sim-time boundaries, emitted in
// (shard, name) order within a boundary, byte-identical on a sharded kernel
// at any --sim-threads value, and entirely absent — with golden traces
// untouched — when telemetry is off. The decentnet-trace timeline analyzer
// is byte-pinned on a hand-written fixture so its output format is part of
// the contract too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "net/network.hpp"
#include "overlay/gossip.hpp"
#include "sim/metrics.hpp"
#include "sim/sharding.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "trace_analysis.hpp"

namespace ds = decentnet::sim;
namespace dn = decentnet::net;
namespace ov = decentnet::overlay;
namespace tt = decentnet::tracetool;

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "decentnet_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Gossip mesh over a sharded kernel (same shape as the stream-trace
/// tests): two run_until() calls with a driver-posted broadcast between
/// them. Traces to `trace` when non-null; telemetry via `tel` when non-null
/// (installed before the run, with a per-shard coverage gauge registered
/// after set_telemetry — which resets the registry, like the benches).
void sharded_workload(std::size_t shards, std::size_t threads,
                      ds::TraceSink* trace, ds::Telemetry* tel) {
  ds::ShardedKernel kernel(/*seed=*/11, shards);
  kernel.set_trace(trace);
  const std::size_t n = 24;
  dn::Network netw(kernel.shard(0),
                   std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                   dn::NetworkConfig{.expected_nodes = n}, nullptr);
  netw.enable_sharding(kernel);
  std::vector<dn::NodeId> addrs(n);
  for (std::size_t i = 0; i < n; ++i) addrs[i] = netw.new_node_id();
  for (std::size_t i = 0; i < n; ++i) netw.register_node(addrs[i]);
  if (tel != nullptr) {
    kernel.set_telemetry(tel);
    netw.register_telemetry(*tel);
  }
  ov::GossipConfig cfg;
  cfg.fanout = 3;
  std::vector<std::unique_ptr<ov::GossipNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<ov::GossipNode>(netw, addrs[i], cfg));
    std::vector<dn::NodeId> view;
    for (std::size_t d = 1; d <= 4; ++d) view.push_back(addrs[(i + d) % n]);
    nodes.back()->join(view);
  }
  netw.simulator_for(addrs[0]).post(ds::millis(1), [&] {
    nodes[0]->broadcast(/*rumor=*/1, /*payload_bytes=*/64);
  });
  kernel.run_until(ds::seconds(15), threads);
  netw.simulator_for(addrs[5]).post(ds::seconds(16), [&] {
    nodes[5]->broadcast(/*rumor=*/2, /*payload_bytes=*/64);
  });
  kernel.run_until(ds::seconds(30), threads);
}

std::string sharded_series(std::size_t shards, std::size_t threads,
                           const std::string& tag) {
  const std::string path = temp_path("tel_" + tag + ".jsonl");
  {
    ds::SeriesSink sink(path, /*chunk_bytes=*/4096);
    ds::Telemetry tel(sink, ds::seconds(1));
    sharded_workload(shards, threads, nullptr, &tel);
  }
  const std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

std::string sharded_trace(std::size_t shards, ds::Telemetry* tel) {
  std::ostringstream out;
  {
    ds::JsonlTraceSink sink(out);
    sharded_workload(shards, /*threads=*/1, &sink, tel);
  }
  return out.str();
}

}  // namespace

TEST(Telemetry, GaugeAndRateSamplingBytePinned) {
  // A plain Simulator with a 10 ms cadence: the stream is pinned byte for
  // byte. The rate series reports per-boundary deltas (3 at the 10 ms
  // boundary from the 5 ms event, 0 across the idle window, 2 at 30 ms
  // from the 25 ms event); the backlog gauge sees exactly the not-yet-fired
  // posts; the constant gauge exercises fractional formatting.
  const std::string path = temp_path("pin.jsonl");
  {
    ds::SeriesSink sink(path);
    ds::Telemetry tel(sink, ds::millis(10));
    ds::Simulator simu(7);
    tel.attach(simu);
    ds::Counter ctr;
    tel.add_rate("test/rate", 0, ctr);
    tel.add_gauge("test/gauge", 0, [](ds::SimTime) { return 1.5; });
    simu.post(ds::millis(5), [&] { ctr.add(3); });
    simu.post(ds::millis(25), [&] { ctr.add(2); });
    simu.run_until(ds::millis(40));
    EXPECT_EQ(tel.next_due(), ds::millis(50));
    sink.flush();
    EXPECT_EQ(sink.records_written(), 12u);
  }
  EXPECT_EQ(slurp(path),
            "{\"t\":10000,\"shard\":0,\"series\":\"kernel/backlog\",\"v\":1}\n"
            "{\"t\":10000,\"shard\":0,\"series\":\"test/gauge\",\"v\":1.5}\n"
            "{\"t\":10000,\"shard\":0,\"series\":\"test/rate\",\"v\":3}\n"
            "{\"t\":20000,\"shard\":0,\"series\":\"kernel/backlog\",\"v\":1}\n"
            "{\"t\":20000,\"shard\":0,\"series\":\"test/gauge\",\"v\":1.5}\n"
            "{\"t\":20000,\"shard\":0,\"series\":\"test/rate\",\"v\":0}\n"
            "{\"t\":30000,\"shard\":0,\"series\":\"kernel/backlog\",\"v\":0}\n"
            "{\"t\":30000,\"shard\":0,\"series\":\"test/gauge\",\"v\":1.5}\n"
            "{\"t\":30000,\"shard\":0,\"series\":\"test/rate\",\"v\":2}\n"
            "{\"t\":40000,\"shard\":0,\"series\":\"kernel/backlog\",\"v\":0}\n"
            "{\"t\":40000,\"shard\":0,\"series\":\"test/gauge\",\"v\":1.5}\n"
            "{\"t\":40000,\"shard\":0,\"series\":\"test/rate\",\"v\":0}\n");
  std::remove(path.c_str());
}

TEST(Telemetry, RateWatermarkStartsAtCurrentValue) {
  // Pre-run counter accumulation (a harness registry shared across rows)
  // must not leak into the first sample.
  const std::string path = temp_path("watermark.jsonl");
  {
    ds::SeriesSink sink(path);
    ds::Telemetry tel(sink, ds::millis(10));
    ds::Simulator simu(7);
    tel.attach(simu);
    ds::Counter ctr;
    ctr.add(1000);  // pre-existing count from an earlier row
    tel.add_rate("test/rate", 0, ctr);
    simu.post(ds::millis(5), [&] { ctr.add(4); });
    simu.run_until(ds::millis(10));
  }
  const std::string bytes = slurp(path);
  EXPECT_NE(bytes.find("\"series\":\"test/rate\",\"v\":4}"), std::string::npos)
      << bytes;
  EXPECT_EQ(bytes.find("\"v\":1004"), std::string::npos) << bytes;
  EXPECT_EQ(bytes.find("\"v\":1000"), std::string::npos) << bytes;
  std::remove(path.c_str());
}

TEST(Telemetry, ReattachResetsRegistrations) {
  // attach() begins a new run: series registered for the previous row must
  // not survive into the next one (stale gauge pointers would be UB).
  const std::string path = temp_path("reattach.jsonl");
  {
    ds::SeriesSink sink(path);
    ds::Telemetry tel(sink, ds::millis(10));
    {
      ds::Simulator simu(1);
      tel.attach(simu);
      tel.add_gauge("old/gauge", 0, [](ds::SimTime) { return 9.0; });
      simu.post(ds::millis(1), [] {});
      simu.run_until(ds::millis(10));
    }
    ds::Simulator simu2(2);
    tel.attach(simu2);  // re-instrument: old/gauge must be gone
    simu2.post(ds::millis(1), [] {});
    simu2.run_until(ds::millis(10));
  }
  const std::string bytes = slurp(path);
  const std::size_t first_old = bytes.find("old/gauge");
  ASSERT_NE(first_old, std::string::npos);
  EXPECT_EQ(bytes.find("old/gauge", first_old + 1), std::string::npos)
      << bytes;
  std::remove(path.c_str());
}

TEST(Telemetry, ShardedSeriesByteIdenticalAcrossThreadCounts) {
  const std::string t1 = sharded_series(4, 1, "t1");
  EXPECT_FALSE(t1.empty());
  EXPECT_NE(t1.find("kernel/backlog"), std::string::npos);
  EXPECT_NE(t1.find("kernel/fired"), std::string::npos);
  EXPECT_NE(t1.find("net/messages_sent"), std::string::npos);
  EXPECT_EQ(sharded_series(4, 2, "t2"), t1);
  EXPECT_EQ(sharded_series(4, 4, "t4"), t1);
}

TEST(Telemetry, SingleShardMatchesPlainKernelSeries) {
  // S == 1 delegates to the legacy kernel: the same workload on a sharded
  // kernel with one shard must produce some series stream without the
  // driver-side barrier sampling (the shard samples between events).
  const std::string s1 = sharded_series(1, 1, "s1");
  EXPECT_FALSE(s1.empty());
  EXPECT_NE(s1.find("kernel/backlog"), std::string::npos);
}

TEST(Telemetry, OffByDefaultLeavesGoldenTraceUntouched) {
  // The same seed with telemetry attached must serialize the exact same
  // trace bytes: sampling never schedules kernel events or perturbs
  // execution order. And with telemetry off, nothing references the series
  // path at all.
  const std::string golden = sharded_trace(4, nullptr);
  EXPECT_FALSE(golden.empty());
  const std::string path = temp_path("tel_with_trace.jsonl");
  std::string traced;
  {
    ds::SeriesSink sink(path, 4096);
    ds::Telemetry tel(sink, ds::seconds(1));
    traced = sharded_trace(4, &tel);
    EXPECT_GT(sink.records_written(), 0u);
  }
  EXPECT_EQ(traced, golden);
  std::remove(path.c_str());
}

TEST(Telemetry, SinkRejectsUnwritablePathAndZeroChunk) {
  EXPECT_THROW(ds::SeriesSink("/nonexistent-dir/x.jsonl", 4096),
               std::runtime_error);
  EXPECT_THROW(ds::SeriesSink(temp_path("zero.jsonl"), 0),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// decentnet-trace timeline: parser + analyzer pinned on a fixture
// ---------------------------------------------------------------------------

namespace {

/// Two-segment fixture: segment 0 holds a clean 4x-per-sample ramp on a/x
/// plus a flat series on shard 1; the backwards t jump starts segment 1,
/// whose q/drops series idles at 0 except for a burst inside the fault
/// window of the matching trace fixture below.
const char kSeriesFixture[] =
    "{\"t\":100,\"shard\":0,\"series\":\"a/x\",\"v\":1}\n"
    "{\"t\":200,\"shard\":0,\"series\":\"a/x\",\"v\":4}\n"
    "{\"t\":300,\"shard\":0,\"series\":\"a/x\",\"v\":16}\n"
    "{\"t\":300,\"shard\":1,\"series\":\"b/y\",\"v\":0.5}\n"
    "{\"t\":400,\"shard\":0,\"series\":\"a/x\",\"v\":64}\n"
    "{\"t\":400,\"shard\":1,\"series\":\"b/y\",\"v\":0.5}\n"
    "{\"t\":100,\"shard\":0,\"series\":\"q/drops\",\"v\":0}\n"
    "{\"t\":200,\"shard\":0,\"series\":\"q/drops\",\"v\":6}\n"
    "{\"t\":300,\"shard\":0,\"series\":\"q/drops\",\"v\":8}\n"
    "{\"t\":400,\"shard\":0,\"series\":\"q/drops\",\"v\":0}\n";

std::vector<tt::Sample> fixture_samples() {
  std::istringstream in(kSeriesFixture);
  return tt::parse_series_jsonl(in);
}

}  // namespace

TEST(Timeline, ParserHandlesDoublesAndSegments) {
  const auto samples = fixture_samples();
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_EQ(samples[0].segment, 0u);
  EXPECT_EQ(samples[3].shard, 1u);
  EXPECT_DOUBLE_EQ(samples[3].v, 0.5);
  EXPECT_EQ(samples[6].segment, 1u);  // backwards jump: new segment
  EXPECT_EQ(samples[6].series, "q/drops");
}

TEST(Timeline, StatsAndRampDetection) {
  const auto stats = tt::timeline_stats(fixture_samples());
  ASSERT_EQ(stats.size(), 3u);

  // (segment, shard, series) key order: (0,0,a/x), (0,1,b/y), (1,0,q/drops)
  EXPECT_EQ(stats[0].series, "a/x");
  EXPECT_EQ(stats[0].count, 4u);
  EXPECT_DOUBLE_EQ(stats[0].min, 1.0);
  EXPECT_DOUBLE_EQ(stats[0].max, 64.0);
  EXPECT_DOUBLE_EQ(stats[0].p99, 64.0);
  EXPECT_TRUE(stats[0].ramp);  // 1 -> 64 over 4 nondecreasing samples
  EXPECT_EQ(stats[0].ramp_t0, 100);
  EXPECT_EQ(stats[0].ramp_t1, 400);

  EXPECT_EQ(stats[1].series, "b/y");
  EXPECT_EQ(stats[1].shard, 1u);
  EXPECT_FALSE(stats[1].ramp);  // flat: ratio 1

  EXPECT_EQ(stats[2].segment, 1u);
  EXPECT_EQ(stats[2].series, "q/drops");
  EXPECT_FALSE(stats[2].ramp);  // burst collapses: not 4 nondecreasing
}

TEST(Timeline, TextOutputBytePinned) {
  const std::string text = tt::timeline_text(tt::timeline_stats(fixture_samples()));
  EXPECT_EQ(text,
            "series: 3\n"
            " seg shard  series                      count          min"
            "         mean          max          p99        first         last\n"
            "   0     0  a/x                             4            1"
            "        21.25           64           64            1           64\n"
            "   0     1  b/y                             2          0.5"
            "          0.5          0.5          0.5          0.5          0.5\n"
            "   1     0  q/drops                         4            0"
            "          3.5            8            8            0            0\n"
            "ramps:\n"
            "  seg 0 shard 0 a/x: 1 -> 64 over [100, 400] us\n");
}

TEST(Timeline, CsvRoundTripsValues) {
  const std::string csv = tt::timeline_csv(fixture_samples());
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "segment,t_us,shard,series,v");
  EXPECT_NE(csv.find("0,300,1,b/y,0.5\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("1,200,0,q/drops,6\n"), std::string::npos) << csv;
}

TEST(Timeline, FaultCorrelationBytePinned) {
  // Trace fixture: segment 0 has no faults; the backwards jump opens
  // segment 1 with a partition injected at t=150 and healed at t=310 —
  // exactly bracketing the q/drops burst (baseline median outside the
  // window is 0, in-window max is 8).
  const char kTrace[] =
      "{\"t\":100,\"kind\":\"send\",\"id\":1,\"a\":2,\"b\":3}\n"
      "{\"t\":150,\"kind\":\"fault\",\"tag\":\"partition\",\"id\":7,"
      "\"a\":4,\"b\":310}\n"
      "{\"t\":310,\"kind\":\"heal\",\"tag\":\"partition\",\"id\":7,"
      "\"a\":4}\n";
  std::istringstream tin(std::string("{\"t\":999,\"kind\":\"fire\"}\n") +
                         kTrace);
  const auto trace = tt::parse_jsonl(tin);
  const std::string text =
      tt::timeline_fault_text(fixture_samples(), trace);
  EXPECT_EQ(text,
            "fault windows: 1\n"
            "  seg 1 partition id 7 node 4 [150, 310] us\n"
            "    excursion shard 0 q/drops: max 8 vs baseline 0\n");
}

TEST(Timeline, ChromeCounterExport) {
  const std::string json = tt::timeline_chrome_json(fixture_samples());
  EXPECT_NE(json.find("{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":100,"
                      "\"name\":\"a/x\",\"args\":{\"v\":1}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"b/y#1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(Timeline, ParserRejectsMalformedLines) {
  std::istringstream bad("{\"t\":100,\"shard\":0,\"series\":\"a\",\"v\":}\n");
  EXPECT_THROW(tt::parse_series_jsonl(bad), std::runtime_error);
  std::istringstream noquote("{\"t\":100,series:\"a\",\"v\":1}\n");
  EXPECT_THROW(tt::parse_series_jsonl(noquote), std::runtime_error);
  // `t` and `shard` are integers within their field's range; anything a
  // cast would misread (a sign, a fraction, an exponent, an overflow)
  // throws.
  for (const char* line : {
           "{\"t\":0,\"shard\":-1,\"series\":\"x\",\"v\":1}\n",
           "{\"t\":0,\"shard\":4294967296,\"series\":\"x\",\"v\":1}\n",
           "{\"t\":0,\"shard\":0.5,\"series\":\"x\",\"v\":1}\n",
           "{\"t\":1e30,\"shard\":0,\"series\":\"x\",\"v\":1}\n",
           "{\"t\":-5,\"shard\":0,\"series\":\"x\",\"v\":1}\n",
           "{\"t\":2.5,\"shard\":0,\"series\":\"x\",\"v\":1}\n",
           "{\"t\":9223372036854775808,\"shard\":0,\"series\":\"x\","
           "\"v\":1}\n",
       }) {
    std::istringstream in(line);
    EXPECT_THROW(tt::parse_series_jsonl(in), std::runtime_error) << line;
  }
  std::istringstream edge(
      "{\"t\":9223372036854775807,\"shard\":4294967295,\"series\":\"x\","
      "\"v\":-0.5}\n");
  const auto samples = tt::parse_series_jsonl(edge);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].t, INT64_MAX);
  EXPECT_EQ(samples[0].shard, UINT32_MAX);
  EXPECT_EQ(samples[0].v, -0.5);
}
