// ShardedKernel contract tests: thread-count byte-identity of traces,
// cross-shard mailbox delivery at the lookahead boundary, the
// zero-lookahead sequential fallback, cancel semantics across shards,
// clear()'s slot+generation teardown of outstanding cross-shard handles, and
// the sharded Network's find-only receiver resolution.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "net/network.hpp"
#include "overlay/gossip.hpp"
#include "sim/sharding.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace ds = decentnet::sim;
namespace dn = decentnet::net;
namespace ov = decentnet::overlay;

namespace {

/// Collects records in memory for structural assertions.
class VecSink final : public ds::TraceSink {
 public:
  void record(const ds::TraceRecord& rec) override { records.push_back(rec); }
  std::vector<ds::TraceRecord> records;
};

/// A kernel-only workload that exercises every shard and the mailboxes:
/// per-shard re-posting chains, with every 4th step hopping to the next
/// shard at now + lookahead. Returns the serialized trace.
std::string kernel_workload_trace(std::size_t shards, std::size_t threads) {
  std::ostringstream out;
  {
    ds::JsonlTraceSink sink(out);
    ds::ShardedKernel kernel(/*seed=*/7, shards);
    const ds::SimDuration kWindow = ds::millis(5);
    kernel.set_lookahead(kWindow);
    kernel.set_trace(&sink);
    std::function<void(std::size_t, int)> step = [&](std::size_t s,
                                                     int remaining) {
      if (remaining <= 0) return;
      if (remaining % 4 == 0 && shards > 1) {
        const std::size_t dst = (s + 1) % shards;
        kernel.post_cross(dst, kernel.shard(s).now() + kWindow,
                          [&step, dst, remaining] { step(dst, remaining - 1); },
                          "test/hop");
      } else {
        kernel.shard(s).post(ds::millis(1),
                             [&step, s, remaining] { step(s, remaining - 1); },
                             "test/step");
      }
    };
    for (std::size_t s = 0; s < shards; ++s) {
      kernel.shard(s).post(ds::millis(1), [&step, s] { step(s, 20); },
                           "test/start");
    }
    kernel.run_until(ds::seconds(2), threads);
  }
  return out.str();
}

/// A network workload over a sharded kernel: a small gossip mesh with a
/// constant-latency model (lookahead = the constant). Returns the trace.
std::string gossip_workload_trace(std::size_t shards, std::size_t threads) {
  std::ostringstream out;
  {
    ds::JsonlTraceSink sink(out);
    ds::ShardedKernel kernel(/*seed=*/11, shards);
    kernel.set_trace(&sink);
    const std::size_t n = 24;
    dn::Network netw(kernel.shard(0),
                     std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                     dn::NetworkConfig{.expected_nodes = n}, nullptr);
    netw.enable_sharding(kernel);
    EXPECT_EQ(kernel.lookahead(), ds::millis(10));

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
    kernel.run_until(ds::seconds(30), threads);
  }
  return out.str();
}

}  // namespace

TEST(Sharding, SingleShardMatchesPlainSimulator) {
  // S == 1 must be the legacy kernel bit-for-bit: same seed, same trace.
  std::ostringstream plain_out;
  {
    ds::JsonlTraceSink sink(plain_out);
    ds::Simulator simu(7);
    simu.set_trace(&sink);
    int fired = 0;
    for (int i = 0; i < 50; ++i) {
      simu.post(ds::millis(i % 7), [&fired] { ++fired; }, "test/step");
    }
    simu.run_until(ds::seconds(1));
    EXPECT_EQ(fired, 50);
  }
  std::ostringstream sharded_out;
  {
    ds::JsonlTraceSink sink(sharded_out);
    ds::ShardedKernel kernel(7, 1);
    kernel.set_trace(&sink);
    int fired = 0;
    for (int i = 0; i < 50; ++i) {
      kernel.shard(0).post(ds::millis(i % 7), [&fired] { ++fired; },
                           "test/step");
    }
    kernel.run_until(ds::seconds(1));
    EXPECT_EQ(fired, 50);
  }
  EXPECT_EQ(plain_out.str(), sharded_out.str());
}

TEST(Sharding, SingleShardAddsNoShardCounters) {
  // Benches merge the kernel's registries unconditionally, so a 1-shard
  // kernel must contribute nothing: its artifact is the plain kernel's.
  ds::ShardedKernel kernel(7, 1);
  kernel.shard(0).post(ds::millis(1), [] {});
  kernel.run_until(ds::seconds(1));
  ds::MetricRegistry merged;
  kernel.merge_metrics_into(merged);
  EXPECT_TRUE(merged.counters().empty());
}

TEST(Sharding, ShardCountAboveBoundThrows) {
  EXPECT_THROW(ds::ShardedKernel(1, ds::ShardedKernel::kMaxShards + 1),
               std::invalid_argument);
  EXPECT_THROW(ds::ShardedKernel(1, 65), std::invalid_argument);
  ds::ShardedKernel widest(1, ds::ShardedKernel::kMaxShards);
  EXPECT_EQ(widest.shard_count(), 64u);
}

TEST(Sharding, KernelTraceByteIdenticalAcrossThreadCounts) {
  const std::string t1 = kernel_workload_trace(4, 1);
  const std::string t2 = kernel_workload_trace(4, 2);
  const std::string t4 = kernel_workload_trace(4, 4);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

TEST(Sharding, NetworkTraceByteIdenticalAcrossThreadCounts) {
  const std::string t1 = gossip_workload_trace(4, 1);
  const std::string t2 = gossip_workload_trace(4, 2);
  const std::string t4 = gossip_workload_trace(4, 4);
  EXPECT_FALSE(t1.empty());
  // The mesh actually gossiped: the trace carries cross-shard sends.
  EXPECT_NE(t1.find("\"send\""), std::string::npos);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

TEST(Sharding, CrossShardArrivesAtExactLookaheadBoundary) {
  // A parcel posted at exactly now + W (the earliest legal cross-shard
  // time) must fire at that time, not a window later and never clamped.
  ds::ShardedKernel kernel(3, 2);
  const ds::SimDuration kWindow = ds::millis(10);
  kernel.set_lookahead(kWindow);
  ds::SimTime fired_at = 0;
  std::uint32_t fired_on = ~0u;
  kernel.shard(0).post(ds::millis(25), [&] {
    kernel.post_cross(1, kernel.shard(0).now() + kWindow, [&] {
      fired_at = kernel.shard(1).now();
      fired_on = ds::ShardedKernel::current_shard();
    });
  });
  kernel.run_until(ds::seconds(1), 2);
  EXPECT_EQ(fired_at, ds::millis(35));
  EXPECT_EQ(fired_on, 1u);
}

TEST(Sharding, CrossShardChainKeepsExactTimesAcrossManyWindows) {
  // Ping-pong between two shards, always at the minimum legal distance;
  // every hop must land at exactly the previous time + W.
  ds::ShardedKernel kernel(3, 2);
  const ds::SimDuration kWindow = ds::millis(7);
  kernel.set_lookahead(kWindow);
  std::vector<ds::SimTime> hops;
  std::function<void(std::size_t, int)> hop = [&](std::size_t s, int left) {
    hops.push_back(kernel.shard(s).now());
    if (left == 0) return;
    const std::size_t dst = 1 - s;
    kernel.post_cross(dst, kernel.shard(s).now() + kWindow,
                      [&hop, dst, left] { hop(dst, left - 1); });
  };
  kernel.shard(0).post(0, [&hop] { hop(0, 20); });
  kernel.run_until(ds::seconds(1), 2);
  ASSERT_EQ(hops.size(), 21u);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i], static_cast<ds::SimTime>(i) * kWindow);
  }
}

TEST(Sharding, ZeroLookaheadFallsBackSequentialWithWarning) {
  // A degenerate window (no lookahead configured) must still execute
  // correctly — sequential stepping — and say so exactly once.
  VecSink sink;
  ds::ShardedKernel kernel(5, 2);
  kernel.set_trace(&sink);
  EXPECT_TRUE(kernel.degenerate());
  ds::SimTime cross_at = 0;
  int local_fired = 0;
  kernel.shard(0).post(ds::millis(2), [&] {
    ++local_fired;
    kernel.post_cross(1, kernel.shard(0).now() + ds::millis(3),
                      [&] { cross_at = kernel.shard(1).now(); });
  });
  kernel.run_until(ds::seconds(1), 4);  // thread request must be ignored
  EXPECT_EQ(local_fired, 1);
  EXPECT_EQ(cross_at, ds::millis(5));
  std::size_t warns = 0;
  for (const auto& rec : sink.records) {
    if (std::string(rec.kind) == "warn") {
      ++warns;
      EXPECT_EQ(std::string(rec.tag), "sharding/zero_lookahead");
      EXPECT_EQ(rec.a, 2u);
    }
  }
  EXPECT_EQ(warns, 1u);
  // A second run must not warn again.
  kernel.run_until(ds::seconds(2), 4);
  std::size_t warns2 = 0;
  for (const auto& rec : sink.records) {
    if (std::string(rec.kind) == "warn") ++warns2;
  }
  EXPECT_EQ(warns2, 1u);
}

TEST(Sharding, CancelAcrossShardsBetweenRuns) {
  // Handles to events on any shard stay cancellable from the driver thread
  // while no window is executing.
  ds::ShardedKernel kernel(9, 4);
  kernel.set_lookahead(ds::millis(10));
  int fired = 0;
  auto h1 = kernel.shard(1).schedule(ds::millis(50), [&] { ++fired; });
  auto h3 = kernel.shard(3).schedule(ds::millis(50), [&] { ++fired; });
  auto keep = kernel.shard(2).schedule(ds::millis(50), [&] { ++fired; });
  EXPECT_TRUE(h1.valid());
  h1.cancel();  // before the first run
  kernel.run_until(ds::millis(20), 4);
  EXPECT_TRUE(h3.valid());
  h3.cancel();  // between runs
  EXPECT_FALSE(h3.valid());
  kernel.run_until(ds::millis(100), 4);
  EXPECT_EQ(fired, 1);  // only `keep`
  EXPECT_FALSE(keep.valid());  // fired => invalid
}

TEST(Sharding, ClearInvalidatesOutstandingCrossShardHandles) {
  // The teardown regression: clear() must invalidate handles held across
  // shards (slot+generation contract) and drop undelivered mailbox parcels.
  ds::ShardedKernel kernel(13, 3);
  kernel.set_lookahead(ds::millis(10));
  int fired = 0;
  auto h0 = kernel.shard(0).schedule(ds::millis(5), [&] { ++fired; });
  auto h2 = kernel.shard(2).schedule(ds::millis(500), [&] { ++fired; });
  // An undrained parcel in the (0 -> 1) mailbox.
  kernel.post_cross(1, ds::millis(20), [&] { ++fired; });
  EXPECT_GT(kernel.pending_events(), 0u);

  kernel.clear();
  EXPECT_FALSE(h0.valid());
  EXPECT_FALSE(h2.valid());
  EXPECT_EQ(kernel.pending_events(), 0u);
  kernel.run_until(ds::seconds(1), 3);
  EXPECT_EQ(fired, 0);  // parcels were dropped, events released

  // Slot-reuse staleness: new events recycle the cleared slots; the stale
  // pre-clear handles must read invalid and their cancel() must be a no-op
  // on the new occupants.
  // Atomic: both events fire in one window, possibly on two workers.
  std::atomic<int> refired{0};
  auto n0 = kernel.shard(0).schedule(ds::millis(5), [&] { ++refired; });
  auto n2 = kernel.shard(2).schedule(ds::millis(5), [&] { ++refired; });
  EXPECT_FALSE(h0.valid());
  EXPECT_FALSE(h2.valid());
  h0.cancel();
  h2.cancel();
  EXPECT_TRUE(n0.valid());
  EXPECT_TRUE(n2.valid());
  kernel.run_until(ds::seconds(2), 3);
  EXPECT_EQ(refired.load(), 2);
}

TEST(Sharding, SendToUnregisteredNodeDropsOfflineAtSendTime) {
  // Sharded sends resolve the receiver find-only: a NodeId never passed to
  // register_node() is dropped as offline on the sending shard, at send
  // time, and the table is left untouched.
  ds::ShardedKernel kernel(/*seed=*/5, 4);
  VecSink sink;
  kernel.set_trace(&sink);
  dn::Network netw(kernel.shard(0),
                   std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                   dn::NetworkConfig{}, nullptr);
  netw.enable_sharding(kernel);
  const dn::NodeId from = netw.new_node_id();
  const dn::NodeId ghost = netw.new_node_id();
  netw.register_node(from);
  netw.simulator_for(from).post(ds::millis(1), [&] {
    netw.send(from, ghost, 1, 10);
  });
  kernel.run_until(ds::seconds(1), 2);

  EXPECT_EQ(netw.node_index(ghost), dn::NodeTable::kNoIndex);
  ds::MetricRegistry merged;
  kernel.merge_metrics_into(merged);
  EXPECT_EQ(merged.counter("net/dropped_offline").value(), 1u);
  EXPECT_EQ(kernel.metrics(kernel.shard_of(from.value))
                .counter("net/dropped_offline")
                .value(),
            1u);
  std::size_t drops = 0;
  for (const ds::TraceRecord& r : sink.records) {
    if (std::string(r.kind) != "drop") continue;
    ++drops;
    EXPECT_EQ(std::string(r.tag), "offline");
    EXPECT_EQ(r.t, ds::millis(1));  // at send time, not at arrival
    EXPECT_EQ(r.a, from.value);
    EXPECT_EQ(r.b, ghost.value);
  }
  EXPECT_EQ(drops, 1u);
}

TEST(Sharding, PerShardStatsAreDeterministic) {
  // sim/shard/* counters: fired events sum to the kernel total, mailbox
  // out == in summed over shards, and none of it depends on threads.
  auto run = [](std::size_t threads) {
    ds::ShardedKernel kernel(17, 4);
    kernel.set_lookahead(ds::millis(5));
    std::function<void(std::size_t, int)> step = [&](std::size_t s,
                                                     int remaining) {
      if (remaining <= 0) return;
      if (remaining % 3 == 0) {
        const std::size_t dst = (s + 1) % 4;
        kernel.post_cross(dst, kernel.shard(s).now() + ds::millis(5),
                          [&step, dst, remaining] { step(dst, remaining - 1); });
      } else {
        kernel.shard(s).post(ds::millis(1),
                             [&step, s, remaining] { step(s, remaining - 1); });
      }
    };
    for (std::size_t s = 0; s < 4; ++s) {
      kernel.shard(s).post(ds::millis(1), [&step, s] { step(s, 12); });
    }
    kernel.run_until(ds::seconds(1), threads);
    ds::MetricRegistry merged;
    kernel.merge_metrics_into(merged);
    std::uint64_t fired = 0, mail_in = 0, mail_out = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      const std::string p = "sim/shard/" + std::to_string(s) + "/";
      fired += merged.counter(p + "fired").value();
      mail_in += merged.counter(p + "mail_in").value();
      mail_out += merged.counter(p + "mail_out").value();
    }
    EXPECT_EQ(fired, kernel.total_events_processed());
    EXPECT_EQ(mail_in, mail_out);
    EXPECT_GT(mail_out, 0u);
    return std::make_tuple(fired, mail_out, kernel.windows_run());
  };
  EXPECT_EQ(run(1), run(4));
}
