// E22 — Transport-model ablation: what byte-accurate links add (§III).
//
// The paper's throughput/latency arguments lean on block propagation being
// slow relative to block intervals. E10 showed the fork consequences with a
// latency-only mesh; this experiment asks how much of real-world propagation
// delay is *bandwidth*, not distance. An inv/getdata block relay (Bitcoin's
// 2013 protocol) over a Bitcoin-like random mesh is swept across block sizes
// and link tiers under the three transport modes (Latency / Bandwidth /
// Tcp), and the bandwidth run at 230 KB blocks is cross-checked against
// Decker & Wattenhofer's 2013 measurement of the live Bitcoin network
// (median 6.5 s, 90th percentile ~26 s) — the dataset discrete-event
// simulators like BlockSim validate against. A ±20% agreement band on
// t50/t90 is computed in the bench and recorded in the JSON artifact.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "sim/metrics.hpp"
#include "sim/sharding.hpp"
#include "sim/telemetry.hpp"

using namespace decentnet;

namespace {

// 2013-era access-link tiers. The mix in pick_tier() plus per-byte
// validation cost are the calibration knobs; see EXPERIMENTS.md for the
// resulting fit against Decker & Wattenhofer. The reachable relay backbone
// was mostly hosted/cable nodes; the measured heavy tail comes from a
// straggler minority (Tor exits, congested or overseas residential lines)
// that receives late but, announcing last, never carries the wave.
struct Tier {
  const char* name;
  double up_bps;    // bytes/sec
  double down_bps;  // bytes/sec
};
constexpr Tier kFiber{"fiber", 100e6 / 8, 100e6 / 8};
constexpr Tier kCable{"cable", 8e6 / 8, 50e6 / 8};
constexpr Tier kDsl{"dsl", 1e6 / 8, 8e6 / 8};
constexpr Tier kSlow{"slow", 0.08e6 / 8, 0.08e6 / 8};

// Block validation cost per byte before a node relays (signature checks +
// UTXO lookups dominated 2013-era propagation alongside transmission).
constexpr double kVerifyUsPerByte = 1.2;

// Decker & Wattenhofer 2013 (P2P'13), measured on the live network at the
// then-average ~230 KB block: median 6.5 s, 90th percentile ~26 s.
constexpr double kDwBlockBytes = 230'000;
constexpr double kDwT50Sec = 6.5;
constexpr double kDwT90Sec = 26.0;

const Tier& pick_tier(sim::Rng& rng) {
  const std::uint64_t r = rng.uniform_int(100);
  if (r < 20) return kFiber;
  if (r < 73) return kCable;
  if (r < 88) return kDsl;
  return kSlow;
}

struct Params {
  std::size_t n = 1200;
  std::size_t degree = 8;  // edges added per node; mean adjacency ~2x
  std::uint64_t block_bytes = 230'000;
  net::TransportMode mode = net::TransportMode::Bandwidth;
  std::uint64_t queue_bytes = 0;          // 0 = unbounded sender queue
  const Tier* uniform_tier = nullptr;     // nullptr = 2013 mix
  std::uint64_t seed = 22;
};

// Bitcoin's 2013 relay protocol, as Decker & Wattenhofer describe it: a
// node announces a block with a tiny `inv`, peers that lack it answer
// `getdata`, and only then does the full block cross the link. The block
// therefore crosses each link at most once per request — the redundancy of
// a naive flood is in the 61-byte control messages, not the 230 KB payload.
enum WireKind : int { kInv = 1, kGetData = 2, kBlock = 3 };
constexpr std::uint64_t kCtrlBytes = 61;  // 24 B header + 37 B inv vector

/// Inv/getdata block relay: on first (verified) receipt, announce to every
/// neighbor except the provider. A requester whose block copy is lost to
/// queue overflow re-requests from the next announcing peer after a
/// timeout, so bounded-queue runs still converge.
class RelayNode final : public net::Host {
 public:
  RelayNode(net::Network& net, sim::Simulator& sim, net::NodeId self)
      : net_(net), sim_(sim), self_(self) {
    net_.attach(self_, this);
  }

  std::vector<net::NodeId> neighbors;
  std::function<void(sim::SimTime)> on_first;

  void originate(std::uint64_t block_bytes) {
    block_bytes_ = block_bytes;
    have_ = true;
    if (on_first) on_first(sim_.now());
    for (const auto& nb : neighbors) net_.send(self_, nb, kInv, kCtrlBytes);
  }

  void handle_message(const net::Message& msg) override {
    switch (net::payload_as<int>(msg)) {
      case kInv: {
        if (have_) return;
        providers_.push_back(msg.from);
        if (!waiting_) {
          request_next();
        } else if (sim_.now() - wait_since_ >= kImpatience) {
          // A fresh announcement after a long wait: fetch from the new
          // announcer too instead of staying head-of-line blocked behind a
          // slow provider. Caps the per-hop stall a slow link can cause.
          wait_since_ = sim_.now();
          net_.send(self_, msg.from, kGetData, kCtrlBytes);
        }
        return;
      }
      case kGetData: {
        if (have_) net_.send(self_, msg.from, kBlock, block_bytes_);
        return;
      }
      case kBlock: {
        if (have_) return;
        have_ = true;
        block_bytes_ = msg.size_bytes;
        if (on_first) on_first(sim_.now());
        const net::NodeId from = msg.from;
        const auto verify = static_cast<sim::SimDuration>(
            static_cast<double>(msg.size_bytes) * kVerifyUsPerByte);
        sim_.post(sim_.now() + verify, [this, from] {
          for (const auto& nb : neighbors) {
            if (nb == from) continue;
            net_.send(self_, nb, kInv, kCtrlBytes);
          }
        });
        return;
      }
    }
  }

  bool seen() const { return have_; }

 private:
  void request_next() {
    if (have_ || providers_.empty()) {
      waiting_ = false;
      return;
    }
    waiting_ = true;
    wait_since_ = sim_.now();
    net_.send(self_, providers_[next_provider_++ % providers_.size()],
              kGetData, kCtrlBytes);
    sim_.post(sim_.now() + kRetryAfter, [this] { request_next(); });
  }

  // Long enough that a slow-tier download (230 KB at 0.08 Mbit ~ 23 s)
  // usually completes before the requester gives up on its provider.
  static constexpr sim::SimDuration kRetryAfter = sim::seconds(20);
  static constexpr sim::SimDuration kImpatience = sim::seconds(2);

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId self_;
  std::uint64_t block_bytes_ = 0;
  std::vector<net::NodeId> providers_;  // peers that have announced
  std::size_t next_provider_ = 0;
  sim::SimTime wait_since_ = 0;  // when the outstanding getdata went out
  bool have_ = false;
  bool waiting_ = false;  // a getdata is outstanding (retry scheduled)
};

struct Row {
  double coverage;
  std::uint64_t t50_us;
  std::uint64_t t90_us;
  std::uint64_t dropped;  // copies lost to sender-queue overflow
  std::uint64_t events;
};

net::TransportConfig make_transport(const Params& p) {
  net::TransportConfig t;
  t.mode = p.mode;
  const Tier& def = p.uniform_tier ? *p.uniform_tier : kCable;
  t.link = net::LinkSpec{def.up_bps, def.down_bps, p.queue_bytes};
  return t;
}

Row summarize(std::vector<sim::SimTime>& cover_times, sim::SimTime t0,
              std::size_t n) {
  Row row{};
  std::sort(cover_times.begin(), cover_times.end());
  const std::size_t pop = cover_times.size();
  row.coverage = static_cast<double>(pop) / static_cast<double>(n);
  if (pop > 0) {
    const std::size_t k50 = (pop + 1) / 2;            // ceil(0.5 * pop)
    const std::size_t k90 = (pop * 9 + 9) / 10;       // ceil(0.9 * pop)
    row.t50_us = static_cast<std::uint64_t>(cover_times[k50 - 1] - t0);
    row.t90_us = static_cast<std::uint64_t>(cover_times[k90 - 1] - t0);
  }
  return row;
}

/// Latency floor with S > 1 shards: the kernel's lookahead window.
constexpr sim::SimDuration kShardedMinLatency = sim::millis(10);

/// One relay run on a sim::ShardedKernel of --sim-shards S shards (a
/// 1-shard kernel is the plain kernel). All transport state is sender-side
/// and single-writer per shard, so the artifact is byte-identical at any
/// --sim-threads.
Row run(const Params& p, sim::ExperimentHarness& ex) {
  const std::size_t shards = ex.sim_shards();
  const std::size_t threads = ex.sim_threads();
  sim::ShardedKernel kernel(p.seed, shards);
  ex.instrument(kernel);
  net::Network netw(
      kernel.shard(0),
      shards > 1 ? std::make_unique<net::LogNormalLatency>(
                       sim::millis(50), 0.4, kShardedMinLatency)
                 : std::make_unique<net::LogNormalLatency>(sim::millis(50),
                                                           0.4),
      net::NetworkConfig{.transport = make_transport(p),
                         .expected_nodes = p.n,
                         .track_spans = true},
      &ex.metrics());
  netw.enable_sharding(kernel);

  sim::Rng rng(p.seed ^ 0x7157);
  const net::AdjacencyList adj =
      net::TopologySpec{.kind = net::TopologySpec::Kind::Random,
                        .nodes = p.n,
                        .degree = p.degree}
          .build(rng);
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < p.n; ++i) addrs.push_back(netw.new_node_id());
  for (std::size_t i = 0; i < p.n; ++i) netw.register_node(addrs[i]);
  // First-receipt times per receiving shard — single writer each.
  std::vector<std::vector<sim::SimTime>> times(shards);
  std::vector<std::unique_ptr<RelayNode>> nodes;
  // Blocks originate at well-provisioned miners: the first fiber-tier node.
  // A slow-tier origin would serialize its first upload for ~18 s and shift
  // the whole distribution by a seed lottery.
  std::size_t origin = 0;
  for (std::size_t i = 0; i < p.n; ++i) {
    const Tier& tier = p.uniform_tier ? *p.uniform_tier : pick_tier(rng);
    if (origin == 0 && &tier == &kFiber) origin = i;
    netw.set_link(addrs[i],
                  net::LinkSpec{tier.up_bps, tier.down_bps, p.queue_bytes});
    sim::Simulator* nsim = &netw.simulator_for(addrs[i]);
    nodes.push_back(std::make_unique<RelayNode>(netw, *nsim, addrs[i]));
    for (const auto j : adj[i]) nodes.back()->neighbors.push_back(addrs[j]);
    const std::size_t sh = kernel.shard_of(addrs[i].value);
    nodes.back()->on_first = [&times, sh](sim::SimTime at) {
      times[sh].push_back(at);
    };
  }
  // --telemetry: network rates/transport gauges plus protocol health (nodes
  // holding the block per receiving shard, the origin's congestion window).
  // Registered after instrument() because attaching resets the registry.
  if (sim::Telemetry* const tel = ex.telemetry()) {
    netw.register_telemetry(*tel);
    for (std::size_t sh = 0; sh < shards; ++sh) {
      const std::vector<sim::SimTime>* const cov = &times[sh];
      tel->add_gauge("e22/covered", static_cast<std::uint32_t>(sh),
                     [cov](sim::SimTime) {
                       return static_cast<double>(cov->size());
                     });
    }
    const net::Transport* const tx = &netw.transport();
    const std::uint32_t oidx = netw.node_index(addrs[origin]);
    tel->add_gauge("e22/origin_cwnd_bytes", 0, [tx, oidx](sim::SimTime) {
      return tx->cwnd_bytes(oidx);
    });
  }
  const sim::SimTime t0 = sim::millis(1);
  netw.simulator_for(addrs[origin])
      .post_at(t0, [&, origin] { nodes[origin]->originate(p.block_bytes); });
  const std::uint64_t drops_before =
      ex.metrics().counter("net/queue_dropped").value();
  kernel.run_until(t0 + sim::seconds(240), threads);
  kernel.merge_metrics_into(ex.metrics());

  std::vector<sim::SimTime> cover_times;
  for (std::size_t sh = 0; sh < shards; ++sh) {
    cover_times.insert(cover_times.end(), times[sh].begin(), times[sh].end());
  }
  Row row = summarize(cover_times, t0, p.n);
  row.dropped =
      ex.metrics().counter("net/queue_dropped").value() - drops_before;
  row.events = kernel.total_events_processed();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E22_transport", argc, argv,
                              {.seed = 22,
                               .shard_aware = true,
                               .params = {{"timings_in_json", "1"}}});
  ex.describe(
      "E22: block propagation under byte-accurate transport",
      "(model-validation check) with per-link serialization, FIFO queueing "
      "and 2013-era link tiers, inv/getdata relay of a 230 KB block matches "
      "Decker & Wattenhofer's measured Bitcoin t50/t90 within 20%; a "
      "latency-only mesh underestimates it by an order of magnitude",
      "inv/getdata block relay over a ~1200-node random mesh; sweep "
      "block size and link tier under Latency/Bandwidth/Tcp transport");

  // timings_in_json=0 demotes the wall-clock/events-per-sec/peak-RSS cells
  // to table-only so BENCH_E22_transport.json is byte-identical across runs,
  // --jobs and --sim-threads (the determinism CI checks); the default 1
  // records them for tools/perf_gate.py.
  const bool json_timings = ex.cli_param_u64("timings_in_json") != 0;
  const std::size_t shards = ex.sim_shards();
  if (shards > 1) ex.set_param("sim_shards", std::uint64_t{shards});

  // Sweep 1: block size under the 2013 tier mix. The 230 KB row is the
  // calibration point against Decker & Wattenhofer's live measurements.
  bool calibrated = false;
  for (const std::uint64_t kb : {1u, 50u, 230u, 500u, 1000u}) {
    const bench::WallClock wall;
    Params p;
    p.block_bytes = kb * 1000;
    p.seed = ex.seed();
    const Row r = run(p, ex);
    std::vector<std::pair<std::string, bench::Value>> row{
        {"sweep", "block_size"},
        {"block_kb", kb},
        {"links", "2013 mix"},
        {"mode", net::transport_mode_name(net::TransportMode::Bandwidth)},
        {"coverage", bench::Value(r.coverage, 3)},
        {"t50_s", bench::Value(r.t50_us / 1e6, 2)},
        {"t90_s", bench::Value(r.t90_us / 1e6, 2)}};
    if (static_cast<double>(p.block_bytes) == kDwBlockBytes) {
      const double t50 = r.t50_us / 1e6;
      const double t90 = r.t90_us / 1e6;
      const bool ok = std::abs(t50 - kDwT50Sec) / kDwT50Sec <= 0.20 &&
                      std::abs(t90 - kDwT90Sec) / kDwT90Sec <= 0.20;
      calibrated = ok;
      row.push_back({"dw2013_t50_s", bench::Value(kDwT50Sec, 1)});
      row.push_back({"dw2013_t90_s", bench::Value(kDwT90Sec, 1)});
      row.push_back({"within_20pct", ok ? "yes" : "no"});
    }
    bench::append_timing_cells(row, wall, r.events, json_timings);
    ex.add_row(std::move(row));
  }

  // Sweep 2: uniform link tier at the 230 KB calibration size.
  for (const Tier* tier : {&kDsl, &kCable, &kFiber}) {
    const bench::WallClock wall;
    Params p;
    p.uniform_tier = tier;
    p.seed = ex.seed() + 1;
    const Row r = run(p, ex);
    std::vector<std::pair<std::string, bench::Value>> row{
        {"sweep", "link_tier"},
        {"block_kb", std::uint64_t{230}},
        {"links", tier->name},
        {"mode", net::transport_mode_name(net::TransportMode::Bandwidth)},
        {"coverage", bench::Value(r.coverage, 3)},
        {"t50_s", bench::Value(r.t50_us / 1e6, 2)},
        {"t90_s", bench::Value(r.t90_us / 1e6, 2)}};
    bench::append_timing_cells(row, wall, r.events, json_timings);
    ex.add_row(std::move(row));
  }

  // Sweep 3: transport mode at the calibration point. Latency-only shows
  // what E10-style meshes assume; bounded queues show overflow drops; Tcp
  // adds slow start + AIMD on top of the same links.
  struct ModeCase {
    const char* label;
    net::TransportMode mode;
    std::uint64_t queue_bytes;
  };
  const ModeCase cases[] = {
      {"latency-only", net::TransportMode::Latency, 0},
      {"bandwidth", net::TransportMode::Bandwidth, 0},
      {"bandwidth+queue", net::TransportMode::Bandwidth, 1'000'000},
      {"tcp+queue", net::TransportMode::Tcp, 1'000'000},
  };
  for (const ModeCase& mc : cases) {
    const bench::WallClock wall;
    Params p;
    p.mode = mc.mode;
    p.queue_bytes = mc.queue_bytes;
    p.seed = ex.seed() + 2;
    const Row r = run(p, ex);
    std::vector<std::pair<std::string, bench::Value>> row{
        {"sweep", "mode"},
        {"block_kb", std::uint64_t{230}},
        {"links", "2013 mix"},
        {"mode", mc.label},
        {"coverage", bench::Value(r.coverage, 3)},
        {"t50_s", bench::Value(r.t50_us / 1e6, 2)},
        {"t90_s", bench::Value(r.t90_us / 1e6, 2)},
        {"queue_dropped", r.dropped}};
    bench::append_timing_cells(row, wall, r.events, json_timings);
    ex.add_row(std::move(row));
  }

  const int rc = ex.finish();
  std::printf(
      "\nWith real link capacities a 230 KB block takes seconds to cross the\n"
      "mesh (%s Decker & Wattenhofer's 2013 measurements within 20%%); a\n"
      "latency-only model delivers it in under a second. Propagation delay\n"
      "— the root of E10's stale rate — is a bandwidth phenomenon, and any\n"
      "throughput argument built on latency-only meshes understates it.\n",
      calibrated ? "matching" : "missing");
  return rc;
}
