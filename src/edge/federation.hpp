// Edge-centric computing (§V): a federation of cloud datacenters, nano
// datacenters and personal devices spanning administrative domains.
//
// Requests from users are served under a placement policy (cloud-only versus
// edge-first); the federation records cross-domain usage through a pluggable
// recorder, which examples wire to a permissioned-channel contract — the
// paper's "permissioned blockchains provide decentralized trust, edge
// provides decentralized control" composition. E13 measures request latency
// and control locality for both policies on the same topology.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace decentnet::edge {

enum class DeviceTier : std::uint8_t { Cloud, NanoDC, Personal };

/// Per-request compute time by tier (queueing: one request at a time per
/// service slot; cloud has many slots, a nano-DC a few, a device one).
struct TierProfile {
  sim::SimDuration service_time = sim::millis(2);
  std::size_t slots = 1;
};

struct EdgeConfig {
  TierProfile cloud{sim::millis(1), 64};
  TierProfile nano_dc{sim::millis(2), 8};
  TierProfile personal{sim::millis(5), 1};
  std::size_t request_bytes = 512;
  std::size_t reply_bytes = 2048;
  sim::SimDuration request_timeout = sim::seconds(10);
};

namespace edge_msg {
struct ServiceRequest {
  std::uint64_t id;
};
struct ServiceReply {
  std::uint64_t id;
};
}  // namespace edge_msg

/// A serving node (cloud DC, nano-DC or personal device).
class EdgeNode final : public net::Host {
 public:
  EdgeNode(net::Network& net, net::NodeId addr, DeviceTier tier,
           std::string domain, std::size_t region, const EdgeConfig& config);
  ~EdgeNode() override;

  EdgeNode(const EdgeNode&) = delete;
  EdgeNode& operator=(const EdgeNode&) = delete;

  net::NodeId addr() const { return addr_; }
  DeviceTier tier() const { return tier_; }
  const std::string& domain() const { return domain_; }
  std::size_t region() const { return region_; }
  std::uint64_t served() const { return served_; }

  void handle_message(const net::Message& msg) override;

 private:
  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  DeviceTier tier_;
  std::string domain_;
  std::size_t region_;
  TierProfile profile_;
  std::size_t reply_bytes_;
  std::vector<sim::SimTime> slot_free_at_;
  std::uint64_t served_ = 0;
};

/// A user issuing requests and recording end-to-end latency.
class UserAgent final : public net::Host {
 public:
  using DoneHook = std::function<void(bool ok, sim::SimDuration latency)>;

  UserAgent(net::Network& net, net::NodeId addr, std::string domain,
            std::size_t region, const EdgeConfig& config);
  ~UserAgent() override;

  net::NodeId addr() const { return addr_; }
  const std::string& domain() const { return domain_; }
  std::size_t region() const { return region_; }

  void request(EdgeNode& target, DoneHook done);

  void handle_message(const net::Message& msg) override;

 private:
  struct Pending {
    DoneHook done;
    sim::SimTime started = 0;
    sim::EventHandle timeout;
  };

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  std::string domain_;
  std::size_t region_;
  EdgeConfig config_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_;
};

enum class PlacementPolicy : std::uint8_t {
  CloudOnly,   // every request goes to the (remote) cloud DC
  EdgeFirst,   // nearest nano-DC in-region; cloud as fallback
};

/// Builder + request router for a whole federation on one Network.
class Federation {
 public:
  struct Topology {
    std::size_t regions = 5;
    std::size_t cloud_region = 0;      // where the hyperscaler lives
    std::size_t nano_dcs_per_region = 2;
    std::size_t users_per_region = 20;
    /// Fraction of requests needing data the local domain lacks (these go to
    /// the cloud even under EdgeFirst — nothing is fully disconnected).
    double cloud_fallback_fraction = 0.1;
  };

  Federation(net::Network& net, net::GeoLatency& geo, Topology topology,
             EdgeConfig config);

  /// Route one request from a random user under `policy`. The callback gets
  /// (ok, latency, served_in_region, served_in_domain).
  using RequestHook =
      std::function<void(bool, sim::SimDuration, bool, bool)>;
  void issue_request(PlacementPolicy policy, sim::Rng& rng, RequestHook done);

  /// Recorder for cross-domain usage (wired to a ledger in examples).
  using UsageRecorder = std::function<void(const std::string& provider_domain,
                                           const std::string& user_domain)>;
  void set_usage_recorder(UsageRecorder recorder) {
    recorder_ = std::move(recorder);
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t user_count() const { return users_.size(); }
  EdgeNode& cloud() { return *cloud_; }
  const std::vector<std::unique_ptr<EdgeNode>>& nodes() const {
    return nodes_;
  }

 private:
  net::Network& net_;
  Topology topology_;
  EdgeConfig config_;
  std::unique_ptr<EdgeNode> cloud_;
  std::vector<std::unique_ptr<EdgeNode>> nodes_;   // nano-DCs
  std::vector<std::unique_ptr<UserAgent>> users_;
  UsageRecorder recorder_;
};

}  // namespace decentnet::edge
