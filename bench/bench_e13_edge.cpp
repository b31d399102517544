// E13 — Edge-centric computing with permissioned trust (§V).
// "Modern services are data-intensive and latency-sensitive, sometimes
// making a centralized cloud a poor match for them ... Control must be at
// the edge ... The level of trust and the speed needed by decentralized edge
// services may be achieved through permissioned blockchains."
#include "bench_util.hpp"
#include "core/scenarios.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E13_edge", argc, argv, {.seed = 99});
  ex.describe(
      "E13: edge federation vs centralized cloud",
      "serving from in-region nano-datacenters cuts latency and keeps "
      "control in the user's administrative domain; a permissioned channel "
      "records cross-domain usage so federated orgs need no trusted third "
      "party",
      "5 regions, 2 nano-DCs each, 100 users, geo latency model; 2000 "
      "requests per policy; cross-domain usage settles on a fabric channel "
      "running on the same network");

  for (const auto policy :
       {edge::PlacementPolicy::CloudOnly, edge::PlacementPolicy::EdgeFirst}) {
    core::EdgeScenarioConfig cfg;
    cfg.policy = policy;
    cfg.common.seed = ex.seed();
    const auto r = core::run_edge_scenario(cfg, core::ScenarioEnv::of(ex));
    ex.add_row({{"policy", policy == edge::PlacementPolicy::CloudOnly
                               ? "cloud-only"
                               : "edge-first"},
                {"ok", r.ok},
                {"p50_ms", bench::Value(r.latency_p50_ms, 1)},
                {"p99_ms", bench::Value(r.latency_p99_ms, 1)},
                {"in_region_pct", bench::Value(r.in_region_pct, 1)},
                {"in_domain_pct", bench::Value(r.in_domain_pct, 1)},
                {"usage_records", r.usage_records}});
  }
  const int rc = ex.finish();
  std::printf(
      "\nEdge-first turns a transcontinental round trip into an in-region\n"
      "hop for ~90%% of requests, and the federation's cross-domain usage is\n"
      "accounted on the permissioned channel instead of a trusted broker —\n"
      "decentralized control (edge) + decentralized trust (permissioned\n"
      "ledger), the paper's closing proposal.\n");
  return rc;
}
