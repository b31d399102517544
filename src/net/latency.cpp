#include "net/latency.hpp"

#include <cmath>

namespace decentnet::net {

LogNormalLatency::LogNormalLatency(sim::SimDuration median, double sigma,
                                   sim::SimDuration floor)
    : mu_(std::log(static_cast<double>(median))),
      sigma_(sigma),
      floor_(floor) {}

sim::SimDuration LogNormalLatency::sample(NodeId, NodeId, sim::Rng& rng) {
  const double d = rng.lognormal(mu_, sigma_);
  const auto delay = static_cast<sim::SimDuration>(d);
  return delay < floor_ ? floor_ : delay;
}

GeoLatency::GeoLatency(double jitter_sigma) : jitter_sigma_(jitter_sigma) {
  // One-way base delays (ms) approximating public inter-region RTT/2
  // figures: {NA, EU, ASIA, SA, OC}.
  static constexpr double kBaseMs[kRegions][kRegions] = {
      {15, 45, 90, 70, 80},   // NA
      {45, 12, 110, 95, 130}, // EU
      {90, 110, 25, 160, 60}, // ASIA
      {70, 95, 160, 20, 140}, // SA
      {80, 130, 60, 140, 15}, // OC
  };
  for (std::size_t i = 0; i < kRegions; ++i) {
    for (std::size_t j = 0; j < kRegions; ++j) {
      base_[i][j] = sim::millis(kBaseMs[i][j]);
    }
  }
}

void GeoLatency::assign(NodeId node, std::size_t region) {
  assigned_[node] = region % kRegions;
}

std::size_t GeoLatency::region_of(NodeId node) const {
  const auto it = assigned_.find(node);
  if (it != assigned_.end()) return it->second;
  return NodeIdHasher{}(node) % kRegions;
}

sim::SimDuration GeoLatency::sample(NodeId a, NodeId b, sim::Rng& rng) {
  const sim::SimDuration base = base_[region_of(a)][region_of(b)];
  const double jitter = rng.lognormal(0.0, jitter_sigma_);
  const auto delay =
      static_cast<sim::SimDuration>(static_cast<double>(base) * jitter);
  return delay < sim::millis(1) ? sim::millis(1) : delay;
}

}  // namespace decentnet::net
