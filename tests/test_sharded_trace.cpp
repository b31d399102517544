// Sharded-kernel trace contract tests: JsonlTraceSink over a ShardedKernel.
//
// The kernel buffers each shard's records during a window and merges them
// at every barrier by (time, shard, emission index), so the trace bytes are
// a pure function of the shard decomposition, never of --sim-threads —
// including across several run_until() calls with driver activity between
// them, and with the profiler attached. decentnet-trace must parse the
// merged file like any other.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "net/network.hpp"
#include "overlay/gossip.hpp"
#include "sim/profiler.hpp"
#include "sim/sharding.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "trace_analysis.hpp"

namespace ds = decentnet::sim;
namespace dn = decentnet::net;
namespace ov = decentnet::overlay;
namespace tt = decentnet::tracetool;

namespace {

/// Gossip mesh over a sharded kernel, split across two run_until() calls
/// (the second broadcast is posted by the driver between runs, so the trace
/// carries records from two runs and between-run driver activity).
/// Returns the JSONL trace.
std::string sharded_trace(std::size_t shards, std::size_t threads,
                          ds::Profiler* profiler = nullptr) {
  std::ostringstream out;
  ds::JsonlTraceSink sink(out);
  ds::ShardedKernel kernel(/*seed=*/11, shards);
  kernel.set_trace(&sink);
  kernel.set_profiler(profiler);
  const std::size_t n = 24;
  dn::Network netw(kernel.shard(0),
                   std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                   dn::NetworkConfig{.expected_nodes = n}, nullptr);
  netw.enable_sharding(kernel);
  std::vector<dn::NodeId> addrs(n);
  for (std::size_t i = 0; i < n; ++i) addrs[i] = netw.new_node_id();
  for (std::size_t i = 0; i < n; ++i) netw.register_node(addrs[i]);
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
  sink.flush();
  return out.str();
}

}  // namespace

TEST(ShardedTrace, TwoRunsByteIdenticalAcrossThreadCounts) {
  const std::string reference = sharded_trace(4, 1);
  EXPECT_NE(reference.find("\"send\""), std::string::npos);
  EXPECT_EQ(sharded_trace(4, 2), reference);
  EXPECT_EQ(sharded_trace(4, 4), reference);
}

TEST(ShardedTrace, ProfileComposesWithShardedTrace) {
  // --profile and --trace together on a sharded kernel: the profiled drain
  // path must not disturb a single traced byte at any thread count, and the
  // profiler must actually collect samples (a silent no-op would also pass
  // a pure byte-compare).
  const std::string reference = sharded_trace(4, 1);
  EXPECT_FALSE(reference.empty());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ds::Profiler prof;
    EXPECT_EQ(sharded_trace(4, threads, &prof), reference)
        << "threads=" << threads;
    EXPECT_FALSE(prof.empty()) << "threads=" << threads;
    EXPECT_GT(prof.total().events, 100u) << "threads=" << threads;
  }
}

TEST(ShardedTrace, TraceToolParsesShardedTrace) {
  std::istringstream in(sharded_trace(4, 2));
  const std::vector<tt::Record> recs = tt::parse_jsonl(in);
  EXPECT_GT(recs.size(), 100u);
  bool saw_send = false, saw_fire = false;
  for (const auto& r : recs) {
    if (r.kind == "send") saw_send = true;
    if (r.kind == "fire") saw_fire = true;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_fire);
}

TEST(ShardedTrace, JsonlSinkRejectsUnwritablePath) {
  EXPECT_THROW(ds::JsonlTraceSink("/nonexistent-dir/x.jsonl"),
               std::runtime_error);
}
