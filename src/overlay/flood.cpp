#include "overlay/flood.hpp"

namespace decentnet::overlay {

using flood_msg::Query;
using flood_msg::QueryHit;

GnutellaNode::GnutellaNode(net::Network& net, net::NodeId addr,
                           FloodConfig config)
    : net_(net),
      sim_(net.simulator()),
      addr_(addr),
      config_(config),
      m_queries_(net.metrics().counter("overlay/flood_queries")),
      m_query_hits_(net.metrics().counter("overlay/flood_query_hits")),
      m_query_misses_(net.metrics().counter("overlay/flood_query_misses")),
      next_qid_base_(addr.value << 24) {}

GnutellaNode::~GnutellaNode() {
  if (online_) leave();
}

void GnutellaNode::join(std::vector<net::NodeId> neighbors) {
  net_.attach(addr_, this);
  online_ = true;
  neighbors_ = std::move(neighbors);
}

void GnutellaNode::leave() {
  online_ = false;
  net_.detach(addr_);
  for (auto& [qid, q] : own_queries_) q.deadline.cancel();
  own_queries_.clear();
}

void GnutellaNode::query(ContentId item, QueryCallback cb) {
  const std::uint64_t qid = ++next_qid_base_;
  m_queries_.add();
  // Local hit short-circuits.
  if (content_.count(item) > 0) {
    m_query_hits_.add();
    QueryOutcome out;
    out.found = true;
    out.provider = addr_;
    cb(std::move(out));
    return;
  }
  ActiveQuery q;
  q.cb = std::move(cb);
  q.started = sim_.now();
  q.deadline = sim_.schedule(
      config_.query_deadline,
      [this, qid] {
        const auto it = own_queries_.find(qid);
        if (it == own_queries_.end()) return;
        auto cb = std::move(it->second.cb);
        const sim::SimTime started = it->second.started;
        own_queries_.erase(it);
        m_query_misses_.add();
        QueryOutcome out;
        out.found = false;
        out.elapsed = sim_.now() - started;
        cb(std::move(out));
      },
      "flood/deadline");
  own_queries_.emplace(qid, std::move(q));
  seen_queries_[qid] = net::NodeId::invalid();  // we are the origin
  forward_query(sim::Shared<Query>::make(Query{item, qid}),
                config_.default_ttl, 0, net::NodeId::invalid(),
                net_.new_span_root());
}

void GnutellaNode::forward_query(const sim::Shared<Query>& q,
                                 std::uint32_t ttl, std::uint32_t hops,
                                 net::NodeId origin_hop, net::Span span) {
  if (ttl == 0) return;
  const std::uint64_t cookie = (static_cast<std::uint64_t>(ttl) << 32) | hops;
  for (net::NodeId n : neighbors_) {
    if (n == origin_hop) continue;
    net_.send(addr_, n, q, config_.query_bytes, cookie, span);
  }
}

void GnutellaNode::handle_message(const net::Message& msg) {
  if (msg.is<Query>()) {
    const auto& q = net::payload_as<Query>(msg);
    // Dedup: first arrival wins and defines the reverse path.
    if (!seen_queries_.emplace(q.qid, msg.from).second) return;
    const auto ttl = static_cast<std::uint32_t>(msg.cookie >> 32);
    const std::uint32_t hops = static_cast<std::uint32_t>(msg.cookie) + 1;
    bool hit = false;
    if (content_.count(q.item) > 0) {
      hit = true;
      // The hit descends from the query hop that reached the provider, so
      // the full request/response path stays in one tree.
      net_.send(addr_, msg.from, QueryHit{q.item, q.qid, addr_, hops},
                config_.query_bytes, /*cookie=*/0, msg.span);
    }
    if ((!hit || config_.forward_after_hit) && ttl > 1) {
      forward_query(net::payload_shared<Query>(msg), ttl - 1, hops, msg.from,
                    msg.span);
    }
    return;
  }
  if (msg.is<QueryHit>()) {
    const auto& h = net::payload_as<QueryHit>(msg);
    const auto own = own_queries_.find(h.qid);
    if (own != own_queries_.end()) {
      auto cb = std::move(own->second.cb);
      own->second.deadline.cancel();
      const sim::SimTime started = own->second.started;
      own_queries_.erase(own);
      m_query_hits_.add();
      QueryOutcome out;
      out.found = true;
      out.provider = h.provider;
      out.hops = h.hops;
      out.elapsed = sim_.now() - started;
      cb(std::move(out));
      return;
    }
    // Route back along the reverse path, re-sharing the incoming payload.
    const auto it = seen_queries_.find(h.qid);
    if (it != seen_queries_.end() && it->second.valid()) {
      net_.send(addr_, it->second, net::payload_shared<QueryHit>(msg),
                config_.query_bytes, /*cookie=*/0, msg.span);
    }
    return;
  }
}

}  // namespace decentnet::overlay
