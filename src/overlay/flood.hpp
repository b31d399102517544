// Gnutella-style unstructured overlay with TTL-scoped query flooding.
//
// Nodes hold static neighbor links (from a topology generator), advertise
// local content items, and answer QUERY floods with QUERY_HIT routed back
// along the reverse path. Free riders (Problem 1) are nodes that consume but
// share nothing; E2 sweeps their fraction and measures search success and
// per-query message cost.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace decentnet::overlay {

using ContentId = std::uint64_t;

struct FloodConfig {
  std::uint32_t default_ttl = 7;   // classic Gnutella TTL
  sim::SimDuration query_deadline = sim::seconds(20);
  std::size_t query_bytes = 96;
  /// Stop forwarding a query once this node produced a hit (responders still
  /// forward in real Gnutella; making it configurable lets tests bound work).
  bool forward_after_hit = true;
};

namespace flood_msg {
struct Query;
struct QueryHit;
}  // namespace flood_msg

struct QueryOutcome {
  bool found = false;
  net::NodeId provider;            // first responder
  std::size_t hops = 0;            // hops to the first responder
  sim::SimDuration elapsed = 0;
};

class GnutellaNode final : public net::Host {
 public:
  using QueryCallback = std::function<void(QueryOutcome)>;

  GnutellaNode(net::Network& net, net::NodeId addr, FloodConfig config);
  ~GnutellaNode() override;

  GnutellaNode(const GnutellaNode&) = delete;
  GnutellaNode& operator=(const GnutellaNode&) = delete;

  net::NodeId addr() const { return addr_; }

  void join(std::vector<net::NodeId> neighbors);
  void leave();
  bool online() const { return online_; }

  /// Share or withdraw content (free riders simply never share).
  void add_content(ContentId item) { content_.insert(item); }
  void remove_content(ContentId item) { content_.erase(item); }
  bool has_content(ContentId item) const { return content_.count(item) > 0; }
  std::size_t shared_items() const { return content_.size(); }

  const std::vector<net::NodeId>& neighbors() const { return neighbors_; }

  /// Flood a query; `cb` fires once, with the first hit or a timeout miss.
  void query(ContentId item, QueryCallback cb);

  void handle_message(const net::Message& msg) override;

 private:
  struct ActiveQuery {
    QueryCallback cb;
    sim::SimTime started = 0;
    sim::EventHandle deadline;
  };

  void forward_query(const sim::Shared<flood_msg::Query>& q, std::uint32_t ttl,
                     std::uint32_t hops, net::NodeId origin_hop,
                     net::Span span);

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  FloodConfig config_;
  sim::Counter& m_queries_;       // queries originated (all nodes)
  sim::Counter& m_query_hits_;    // queries resolved with a provider
  sim::Counter& m_query_misses_;  // queries that hit the deadline
  bool online_ = false;
  std::vector<net::NodeId> neighbors_;
  std::unordered_set<ContentId> content_;
  // Query dedup + reverse-path routing state: qid -> upstream neighbor.
  std::unordered_map<std::uint64_t, net::NodeId> seen_queries_;
  std::unordered_map<std::uint64_t, ActiveQuery> own_queries_;
  std::uint64_t next_qid_base_;
};

namespace flood_msg {
/// Flooded once, shared by every relay: TTL and hop count ride in
/// Message::cookie (ttl << 32 | hops) so the whole flood aliases one
/// allocation.
struct Query {
  ContentId item;
  std::uint64_t qid;
};
struct QueryHit {
  ContentId item;
  std::uint64_t qid;
  net::NodeId provider;
  std::uint32_t hops;  // provider's distance from the origin
};
}  // namespace flood_msg

}  // namespace decentnet::overlay
