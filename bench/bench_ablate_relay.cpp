// Ablation: full-block flooding vs compact (header+txids) relay.
//
// Bitcoin's answer to E10's propagation-delay forks was BIP152 compact
// blocks: once mempools are synchronized, a block announcement shrinks from
// ~1 MB to a few KB, which shortens propagation and cuts the stale rate —
// without touching the throughput ceiling (the block is still the block).
#include "bench_util.hpp"
#include "core/scenarios.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("ablate_relay", argc, argv, {.seed = 42});
  ex.describe(
      "Ablation: block relay encoding (full bodies vs compact)",
      "(design-choice check) compact relay reduces relay bytes and the "
      "stale rate, but does not change the E5 throughput ceiling",
      "same PoW mesh under saturating load with 2 Mbit/s uplinks modeled "
      "(full 100 KB blocks pay real serialization delay), 30 s blocks; "
      "compare stale rate and throughput");

  for (const bool compact : {false, true}) {
    core::PowScenarioConfig cfg;
    cfg.params.retarget_window = 0;
    cfg.params.initial_difficulty = 1e6;
    cfg.params.target_block_interval = sim::seconds(30);
    cfg.params.max_block_bytes = 100'000;
    cfg.total_hashrate = 1e6 / 30.0;
    cfg.nodes = 24;
    cfg.miners = 8;
    cfg.wallets = 32;
    cfg.tx_rate_per_sec = 12;
    cfg.common.latency = sim::millis(150);
    // Serialization delay is the story here: 2 Mbit/s consumer uplink.
    cfg.common.transport.mode = net::TransportMode::Bandwidth;
    cfg.common.transport.link.up_bps = 2e6 / 8;
    cfg.common.transport.link.down_bps = 16e6 / 8;
    cfg.common.duration = sim::minutes(90);
    cfg.compact_relay = compact;
    cfg.common.seed = ex.seed();
    const auto r = core::run_pow_scenario(cfg, core::ScenarioEnv::of(ex));
    ex.add_row({{"relay", compact ? "compact (header+txids)" : "full blocks"},
                {"tps", bench::Value(r.throughput_tps, 1)},
                {"stale_rate", bench::Value(r.stale_rate, 4)},
                {"blocks", std::uint64_t{r.blocks_on_chain}},
                {"submitted_txs", std::uint64_t{r.submitted_txs}}});
  }
  const int rc = ex.finish();
  std::printf(
      "\nWith consumer-grade uplinks, flooding a 100 KB body to every\n"
      "neighbor serializes for hundreds of milliseconds per hop and the\n"
      "stale rate shows it; the compact announcement is ~2%% of the bytes\n"
      "and propagates at latency speed. Throughput is unchanged either\n"
      "way: the ceiling is the protocol, not the encoding.\n");
  return rc;
}
