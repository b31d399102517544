// Ablation: kernel and crypto micro-costs.
//
// DESIGN.md calls out two engineering choices worth quantifying: the event
// queue (every protocol action pays this) and using real SHA-256 for
// integrity while *simulating* the mining search. These micros bound how
// large an experiment the DES can run per wall-clock second.
//
// The kernel rows measure the slab kernel (InlineFn callbacks, slot +
// generation handles, indexed 4-ary heap) across post/schedule/cancel mixes
// and queue depths 1e2-1e6.
//
// Timing cells are wall-clock and appear only in the table (excluded from
// the JSON artifact, which stays byte-deterministic); the JSON rows carry
// the deterministic work counts instead.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "chain/blocktree.hpp"
#include "chain/ledger.hpp"
#include "chain/types.hpp"
#include "chain/wallet.hpp"
#include "crypto/hash.hpp"
#include "crypto/merkle.hpp"
#include "sim/sharding.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"

using namespace decentnet;

namespace {

/// Run `body` repeatedly until ~0.4 s of wall time has accumulated (at
/// least twice); `body` returns the items it processed per rep, which is
/// accumulated into `items`. One untimed warmup rep first, so no cell pays
/// the process's cold page faults while a later cell runs on the heap the
/// earlier ones warmed. Returns {reps, seconds}.
template <typename F>
std::pair<std::uint64_t, double> measure(F&& body, std::uint64_t& items) {
  using clock = std::chrono::steady_clock;
  std::uint64_t reps = 0;
  items = 0;
  (void)body();  // warmup
  const auto start = clock::now();
  double elapsed = 0;
  while (reps < 2 || elapsed < 0.4) {
    items += body();
    ++reps;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  }
  return {reps, elapsed};
}

// Schedule `n` events (delays cycling over 1000 distinct times, so the heap
// carries ~n live entries), then drain. `detached` posts fire-and-forget
// events; otherwise every event gets a cancellable handle.
std::uint64_t run_fill_drain(std::size_t n, bool detached) {
  sim::Simulator simu;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (detached) {
      simu.post(static_cast<sim::SimDuration>(i % 1000), [&acc] { ++acc; });
    } else {
      (void)simu.schedule(static_cast<sim::SimDuration>(i % 1000),
                          [&acc] { ++acc; });
    }
  }
  simu.run_all();
  return acc;
}

// Delivery-shaped posts: each event carries a 56-byte capture (a counter
// reference plus a 48-byte payload, the size of a net::Message — what
// Network::deliver posts for every message in every experiment).
// std::function's small buffer (16 bytes in libstdc++) cannot hold it;
// InlineFn<64> keeps it inline in the slab.
struct MsgPayload {
  std::uint64_t w[6];
};

// Fill and drain `n` delivery-shaped posts, with sim-time telemetry
// optionally attached. tel == null runs the untouched hot loop; tel != null
// selects the instrumented loop with a cadence main() picks far past the
// run's horizon, so the measured delta is the instrumented loop's per-event
// cost (one load + compare) with zero sink I/O inside the timed region.
std::uint64_t run_fill_drain_msg(std::size_t n, sim::Telemetry* tel) {
  sim::Simulator simu;
  if (tel != nullptr) tel->attach(simu);
  std::uint64_t acc = 0;
  const MsgPayload p{{1, 2, 3, 4, 5, 6}};
  for (std::size_t i = 0; i < n; ++i) {
    simu.post(static_cast<sim::SimDuration>(i % 1000),
              [&acc, p] { acc += p.w[0]; });
  }
  simu.run_all();
  return acc;
}

// Steady-state hot path: `depth` self-re-posting chains, each re-posting
// itself `rounds` times. The queue holds `depth` events throughout — the
// message-delivery shape every experiment's inner loop reduces to.
std::uint64_t run_steady_state(std::size_t depth, std::size_t rounds) {
  sim::Simulator simu;
  std::uint64_t acc = 0;
  std::function<void(std::size_t)> chain = [&](std::size_t remaining) {
    ++acc;
    if (remaining > 0) {
      simu.post(1, [&chain, remaining] { chain(remaining - 1); });
    }
  };
  for (std::size_t d = 0; d < depth; ++d) {
    simu.post(1, [&chain, rounds] { chain(rounds); });
  }
  simu.run_all();
  return acc;
}

// Cancel mix: schedule `n` handled events, cancel every other one, drain.
// Exercises handle allocation + lazy reclamation.
std::uint64_t run_cancel_mix_slab(std::size_t n) {
  sim::Simulator simu;
  std::uint64_t acc = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    handles.push_back(simu.schedule(static_cast<sim::SimDuration>(i % 1000),
                                    [&acc] { ++acc; }));
  }
  for (std::size_t i = 0; i < n; i += 2) handles[i].cancel();
  simu.run_all();
  return n;  // count scheduled+cancelled work
}

// Sharded steady state: `depth` re-posting token chains spread round-robin
// over `shards` shards; every 16th hop crosses to the next shard through the
// deterministic mailbox at now + lookahead (the conservative window). The
// same workload runs on 1..8 shards and at 1..S worker threads, so the row
// pair quantifies both the barrier overhead (S>1, threads=1 vs the
// single-shard kernel) and the parallel speedup (threads=S vs threads=1).
// Returns the kernel's deterministic event count — identical at any thread
// count, which main() cross-checks.
std::uint64_t run_sharded_steady(std::size_t shards, std::size_t depth,
                                 std::size_t rounds, std::size_t threads) {
  sim::ShardedKernel kernel(0xAB1A7E, shards);
  const sim::SimDuration kWindow = 10;
  kernel.set_lookahead(kWindow);
  // Per-shard accumulators: each token step runs on the shard it names, so
  // every slot has a single writer.
  std::vector<std::uint64_t> acc(shards, 0);
  std::function<void(std::size_t, std::size_t)> step =
      [&](std::size_t s, std::size_t remaining) {
        ++acc[s];
        if (remaining == 0) return;
        if (shards > 1 && remaining % 16 == 0) {
          const std::size_t dst = (s + 1) % shards;
          kernel.post_cross(
              dst, kernel.shard(s).now() + kWindow,
              [&step, dst, remaining] { step(dst, remaining - 1); },
              "ablate/hop");
        } else {
          kernel.shard(s).post(
              1, [&step, s, remaining] { step(s, remaining - 1); },
              "ablate/step");
        }
      };
  for (std::size_t d = 0; d < depth; ++d) {
    const std::size_t s = d % shards;
    kernel.shard(s).post(1, [&step, s, rounds] { step(s, rounds); },
                         "ablate/step");
  }
  kernel.run_until(sim::hours(24 * 365), threads);
  std::uint64_t total = 0;
  for (const std::uint64_t a : acc) total += a;
  return total;
}

std::uint64_t run_periodic(std::size_t timers) {
  sim::Simulator simu;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < timers; ++i) {
    simu.schedule_periodic(sim::seconds(1), sim::seconds(1),
                           [&acc] { ++acc; });
  }
  simu.run_until(sim::minutes(1));
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("ablate_kernel", argc, argv);
  ex.describe(
      "Ablation: kernel and crypto micro-costs",
      "(engineering check, not a paper claim) the event queue and the real "
      "SHA-256 bound how much simulated protocol work fits in a wall-clock "
      "second",
      "each micro runs >=0.4 s of wall time; items/s is wall-clock (table "
      "only), the JSON rows carry deterministic work counts");

  const std::size_t kDepths[] = {100, 10'000, 100'000, 1'000'000};

  // Pre-warm the allocator into its steady regime (grown heap, raised
  // dynamic mmap threshold) so cell order can't leak into the numbers.
  run_fill_drain(1'000'000, true);

  // The headline: message-delivery-shaped posts (48-byte payload capture),
  // the kernel call every simulated network message turns into.
  for (const std::size_t n :
       {std::size_t{10'000}, std::size_t{100'000}, std::size_t{1'000'000}}) {
    std::uint64_t items = 0;
    auto [reps, secs] =
        measure([&] { return run_fill_drain_msg(n, nullptr); }, items);
    ex.add_row({{"micro", "sim_post_msg48"},
                {"kernel", "slab"},
                {"arg", std::uint64_t{n}},
                {"events_per_rep", items / reps},
                {"rate_per_s", bench::Value::timing(
                                   static_cast<double>(items) / secs, 0)}});
  }

  // Telemetry off/on ablation (observability must be pay-for-use). "off" is
  // the untouched hot drain loop — the same codegen every telemetry-less
  // run uses, and the row the release-bench perf gates hold against the
  // pre-telemetry baselines. "on" attaches a Telemetry whose cadence never
  // comes due inside the run, isolating the instrumented loop's per-event
  // cost (one load + compare) from sink I/O.
  {
    const std::size_t n = 1'000'000;
    std::uint64_t items = 0;
    auto [reps, secs] = measure(
        [&] { return run_fill_drain_msg(n, nullptr); }, items);
    double rate = static_cast<double>(items) / secs;
    ex.add_row({{"micro", "sim_telemetry"},
                {"kernel", "off"},
                {"arg", std::uint64_t{n}},
                {"events_per_rep", items / reps},
                {"rate_per_s", bench::Value::timing(rate, 0)}});

    const char* const scratch = "TELEMETRY_ablate_scratch.jsonl";
    {
      sim::SeriesSink sink(scratch);
      sim::Telemetry tel(sink, sim::seconds(10));
      std::uint64_t items_on = 0;
      auto [reps_on, secs_on] = measure(
          [&] { return run_fill_drain_msg(n, &tel); }, items_on);
      rate = static_cast<double>(items_on) / secs_on;
      ex.add_row({{"micro", "sim_telemetry"},
                  {"kernel", "on"},
                  {"arg", std::uint64_t{n}},
                  {"events_per_rep", items_on / reps_on},
                  {"rate_per_s", bench::Value::timing(rate, 0)}});
    }
    std::remove(scratch);
  }

  // Fill-then-drain, post (detached) and schedule (handled).
  for (const bool detached : {true, false}) {
    for (const std::size_t n : kDepths) {
      std::uint64_t items = 0;
      auto [reps, secs] =
          measure([&] { return run_fill_drain(n, detached); }, items);
      ex.add_row({{"micro", detached ? "sim_post_detached" : "sim_schedule"},
                  {"kernel", "slab"},
                  {"arg", std::uint64_t{n}},
                  {"events_per_rep", items / reps},
                  {"rate_per_s", bench::Value::timing(
                                     static_cast<double>(items) / secs, 0)}});
    }
  }

  // Steady-state re-posting chains (the message-delivery shape).
  for (const std::size_t depth : {std::size_t{100}, std::size_t{10'000}}) {
    const std::size_t rounds = 1'000'000 / depth;
    std::uint64_t items = 0;
    auto [reps, secs] =
        measure([&] { return run_steady_state(depth, rounds); }, items);
    ex.add_row({{"micro", "sim_steady_state"},
                {"kernel", "slab"},
                {"arg", std::uint64_t{depth}},
                {"events_per_rep", items / reps},
                {"rate_per_s",
                 bench::Value::timing(static_cast<double>(items) / secs, 0)}});
  }

  // Cancel-heavy mix: half the scheduled events are cancelled before firing.
  for (const std::size_t n : {std::size_t{10'000}, std::size_t{100'000}}) {
    std::uint64_t items = 0;
    auto [reps, secs] =
        measure([&] { return run_cancel_mix_slab(n); }, items);
    ex.add_row({{"micro", "sim_cancel_mix"},
                {"kernel", "slab"},
                {"arg", std::uint64_t{n}},
                {"events_per_rep", items / reps},
                {"rate_per_s",
                 bench::Value::timing(static_cast<double>(items) / secs, 0)}});
  }

  // Sharded vs single-shard mix: the same re-posting workload across shard
  // counts and depths, timed at 1 worker thread (barrier overhead) and at
  // S worker threads (parallel speedup). The JSON cells are the
  // deterministic event counts; rates stay table-only.
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t depth :
         {std::size_t{10'000}, std::size_t{100'000}, std::size_t{1'000'000}}) {
      const std::size_t rounds = std::max<std::size_t>(1, 2'000'000 / depth);
      std::uint64_t items = 0;
      auto [reps, secs] = measure(
          [&] { return run_sharded_steady(shards, depth, rounds, 1); }, items);
      const double rate_t1 = static_cast<double>(items) / secs;
      const std::uint64_t events_t1 = items / reps;
      std::uint64_t items_p = 0;
      auto [reps_p, secs_p] = measure(
          [&] { return run_sharded_steady(shards, depth, rounds, shards); },
          items_p);
      const double rate_ts = static_cast<double>(items_p) / secs_p;
      const std::uint64_t events_ts = items_p / reps_p;
      ex.add_row({{"micro", "sim_sharded_steady"},
                  {"kernel", "sharded"},
                  {"arg", std::uint64_t{depth}},
                  {"shards", std::uint64_t{shards}},
                  {"events_per_rep", events_t1},
                  // The determinism contract, checked in-band: the event
                  // count must not depend on the worker-thread count.
                  {"det_match", std::uint64_t{events_t1 == events_ts ? 1u : 0u}},
                  {"rate_per_s", bench::Value::timing(rate_t1, 0)},
                  {"rate_threads_per_s", bench::Value::timing(rate_ts, 0)}});
    }
  }

  for (const std::size_t timers : {std::size_t{100}, std::size_t{1000}}) {
    std::uint64_t items = 0;
    const auto [reps, secs] =
        measure([&] { return run_periodic(timers); }, items);
    ex.add_row({{"micro", "sim_periodic_timers"},
                {"kernel", "slab"},
                {"arg", std::uint64_t{timers}},
                {"events_per_rep", items / reps},
                {"rate_per_s",
                 bench::Value::timing(static_cast<double>(items) / secs,
                                      0)}});
  }

  // Real SHA-256 over message-sized payloads (rate column is MB/s here).
  for (const std::size_t size :
       {std::size_t{64}, std::size_t{1024}, std::size_t{65536}}) {
    const std::string payload(size, 'x');
    std::uint64_t items = 0;
    const auto [reps, secs] = measure(
        [&] {
          std::uint64_t acc = 0;
          for (int i = 0; i < 64; ++i) {
            acc += crypto::sha256(payload).bytes[0] & 1u;
          }
          return std::uint64_t{64} + (acc & 0u);
        },
        items);
    (void)reps;
    ex.add_row({{"micro", "sha256_mb_per_s"},
                {"kernel", "-"},
                {"arg", std::uint64_t{size}},
                {"events_per_rep", std::uint64_t{64}},
                {"rate_per_s",
                 bench::Value::timing(static_cast<double>(items) *
                                          static_cast<double>(size) / secs /
                                          1e6,
                                      1)}});
  }

  // Merkle root over leaf batches (per-block cost; rate is leaves/s).
  for (const std::size_t leaves_n :
       {std::size_t{16}, std::size_t{256}, std::size_t{4096}}) {
    std::vector<crypto::Hash256> leaves;
    for (std::size_t i = 0; i < leaves_n; ++i) {
      leaves.push_back(crypto::sha256(std::to_string(i)));
    }
    std::uint64_t items = 0;
    const auto [reps, secs] = measure(
        [&] {
          volatile auto first =
              crypto::MerkleTree::compute_root(leaves).bytes[0];
          (void)first;
          return leaves.size();
        },
        items);
    (void)reps;
    ex.add_row({{"micro", "merkle_root"},
                {"kernel", "-"},
                {"arg", std::uint64_t{leaves_n}},
                {"events_per_rep", std::uint64_t{leaves_n}},
                {"rate_per_s",
                 bench::Value::timing(static_cast<double>(items) / secs,
                                      0)}});
  }

  // Full signature-checked transaction validation, the per-tx cost every
  // full node pays in the E5 experiments.
  {
    const chain::Wallet alice = chain::Wallet::from_seed(0xBEEF1);
    const chain::Wallet bob = chain::Wallet::from_seed(0xBEEF2);
    chain::UtxoSet utxo;
    const auto genesis =
        chain::make_genesis_multi({{alice.address(), 1'000'000}}, 1.0);
    (void)utxo.apply_block(*genesis, 0);
    const auto tx = alice.pay(utxo, bob.address(), 1000, 10);
    std::uint64_t items = 0;
    const auto [reps, secs] = measure(
        [&] {
          std::uint64_t checked = 0;
          for (int i = 0; i < 64; ++i) {
            if (!utxo.check_transaction(*tx, false, 0).has_value()) ++checked;
          }
          return checked;
        },
        items);
    (void)reps;
    ex.add_row({{"micro", "tx_validate"},
                {"kernel", "-"},
                {"arg", std::uint64_t{1}},
                {"events_per_rep", std::uint64_t{64}},
                {"rate_per_s",
                 bench::Value::timing(static_cast<double>(items) / secs,
                                      0)}});
  }

  return ex.finish();
}
