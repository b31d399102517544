// Propagation-latency models for the simulated network.
//
// The paper's arguments hinge on wide-area latency (block propagation, DHT
// hops) versus datacenter latency (VISA-style partitioned backends), so the
// model is pluggable per Network instance.
#pragma once

#include <unordered_map>
#include <utility>

#include "net/node_id.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace decentnet::net {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  /// One-way propagation delay from `a` to `b` for a single message.
  virtual sim::SimDuration sample(NodeId a, NodeId b, sim::Rng& rng) = 0;
  /// Hard lower bound on sample() over all node pairs — the conservative
  /// lookahead the sharded kernel may run ahead without a barrier (messages
  /// can never arrive sooner than this). Models that cannot promise a
  /// positive bound return 0, which forces the kernel's degenerate
  /// sequential fallback rather than an unsound window.
  virtual sim::SimDuration min_latency() const { return 0; }
};

/// Fixed one-way delay (datacenter-style or unit-test determinism).
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(sim::SimDuration delay) : delay_(delay) {}
  sim::SimDuration sample(NodeId, NodeId, sim::Rng&) override { return delay_; }
  sim::SimDuration min_latency() const override { return delay_; }

 private:
  sim::SimDuration delay_;
};

/// Uniform in [lo, hi].
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(sim::SimDuration lo, sim::SimDuration hi) : lo_(lo), hi_(hi) {}
  sim::SimDuration sample(NodeId, NodeId, sim::Rng& rng) override {
    return rng.uniform_int(lo_, hi_);
  }
  sim::SimDuration min_latency() const override { return lo_; }

 private:
  sim::SimDuration lo_, hi_;
};

/// Log-normal delay with a floor — a common fit for Internet RTT samples.
class LogNormalLatency final : public LatencyModel {
 public:
  /// `median` and `sigma` parameterize exp(N(ln median, sigma)); `floor` is
  /// the minimum physically possible delay.
  LogNormalLatency(sim::SimDuration median, double sigma,
                   sim::SimDuration floor = sim::millis(1));
  sim::SimDuration sample(NodeId, NodeId, sim::Rng& rng) override;
  sim::SimDuration min_latency() const override { return floor_; }

 private:
  double mu_;
  double sigma_;
  sim::SimDuration floor_;
};

/// Region-based wide-area model: nodes are assigned to geographic regions and
/// delay is drawn around a per-region-pair base RTT/2 with multiplicative
/// jitter. Default matrix approximates {NA, EU, ASIA, SA, OC}.
class GeoLatency final : public LatencyModel {
 public:
  static constexpr std::size_t kRegions = 5;

  /// `jitter_sigma` is the sigma of the log-normal multiplicative jitter.
  explicit GeoLatency(double jitter_sigma = 0.25);

  /// Assign a node to a region (0..kRegions-1). Unassigned nodes get a
  /// region derived deterministically from their id.
  void assign(NodeId node, std::size_t region);

  std::size_t region_of(NodeId node) const;

  sim::SimDuration sample(NodeId a, NodeId b, sim::Rng& rng) override;

 private:
  double jitter_sigma_;
  sim::SimDuration base_[kRegions][kRegions];
  std::unordered_map<NodeId, std::size_t, NodeIdHasher> assigned_;
};

}  // namespace decentnet::net
