#include "edge/federation.hpp"

#include <algorithm>

namespace decentnet::edge {

namespace em = edge_msg;

// ---------------------------------------------------------------------------
// EdgeNode
// ---------------------------------------------------------------------------

EdgeNode::EdgeNode(net::Network& net, net::NodeId addr, DeviceTier tier,
                   std::string domain, std::size_t region,
                   const EdgeConfig& config)
    : net_(net),
      sim_(net.simulator()),
      addr_(addr),
      tier_(tier),
      domain_(std::move(domain)),
      region_(region),
      reply_bytes_(config.reply_bytes) {
  switch (tier) {
    case DeviceTier::Cloud:
      profile_ = config.cloud;
      break;
    case DeviceTier::NanoDC:
      profile_ = config.nano_dc;
      break;
    case DeviceTier::Personal:
      profile_ = config.personal;
      break;
  }
  slot_free_at_.assign(profile_.slots, 0);
  net_.attach(addr_, this);
}

EdgeNode::~EdgeNode() { net_.detach(addr_); }

void EdgeNode::handle_message(const net::Message& msg) {
  if (!msg.is<em::ServiceRequest>()) return;
  const auto& req = net::payload_as<em::ServiceRequest>(msg);
  // Pick the earliest-free slot; queue behind it if all are busy.
  auto earliest = std::min_element(slot_free_at_.begin(), slot_free_at_.end());
  const sim::SimTime start = std::max(sim_.now(), *earliest);
  const sim::SimTime done = start + profile_.service_time;
  *earliest = done;
  ++served_;
  const net::NodeId requester = msg.from;
  const std::uint64_t id = req.id;
  sim_.post_at(
      done,
      [this, requester, id] {
        net_.send(addr_, requester, em::ServiceReply{id}, reply_bytes_);
      },
      "edge/service_done");
}

// ---------------------------------------------------------------------------
// UserAgent
// ---------------------------------------------------------------------------

UserAgent::UserAgent(net::Network& net, net::NodeId addr, std::string domain,
                     std::size_t region, const EdgeConfig& config)
    : net_(net),
      sim_(net.simulator()),
      addr_(addr),
      domain_(std::move(domain)),
      region_(region),
      config_(config),
      next_id_(addr.value << 20) {
  net_.attach(addr_, this);
}

UserAgent::~UserAgent() { net_.detach(addr_); }

void UserAgent::request(EdgeNode& target, DoneHook done) {
  const std::uint64_t id = ++next_id_;
  Pending p;
  p.done = std::move(done);
  p.started = sim_.now();
  p.timeout = sim_.schedule(config_.request_timeout, [this, id] {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    auto done = std::move(it->second.done);
    const sim::SimDuration elapsed = sim_.now() - it->second.started;
    pending_.erase(it);
    if (done) done(false, elapsed);
  });
  pending_.emplace(id, std::move(p));
  net_.send(addr_, target.addr(), em::ServiceRequest{id},
            config_.request_bytes);
}

void UserAgent::handle_message(const net::Message& msg) {
  if (!msg.is<em::ServiceReply>()) return;
  const auto& r = net::payload_as<em::ServiceReply>(msg);
  const auto it = pending_.find(r.id);
  if (it == pending_.end()) return;
  auto done = std::move(it->second.done);
  it->second.timeout.cancel();
  const sim::SimDuration elapsed = sim_.now() - it->second.started;
  pending_.erase(it);
  if (done) done(true, elapsed);
}

// ---------------------------------------------------------------------------
// Federation
// ---------------------------------------------------------------------------

Federation::Federation(net::Network& net, net::GeoLatency& geo,
                       Topology topology, EdgeConfig config)
    : net_(net), topology_(topology), config_(config) {
  // The hyperscaler cloud.
  const net::NodeId cloud_addr = net.new_node_id();
  geo.assign(cloud_addr, topology.cloud_region);
  cloud_ = std::make_unique<EdgeNode>(net, cloud_addr, DeviceTier::Cloud,
                                      "hyperscaler", topology.cloud_region,
                                      config);
  // Nano-DCs: each belongs to a per-region organization ("org-R-K").
  for (std::size_t r = 0; r < topology.regions; ++r) {
    for (std::size_t k = 0; k < topology.nano_dcs_per_region; ++k) {
      const net::NodeId addr = net.new_node_id();
      geo.assign(addr, r);
      nodes_.push_back(std::make_unique<EdgeNode>(
          net, addr, DeviceTier::NanoDC,
          "org-" + std::to_string(r) + "-" + std::to_string(k), r, config));
    }
  }
  // Users, spread across regions; each user's home domain is its region org.
  for (std::size_t r = 0; r < topology.regions; ++r) {
    for (std::size_t u = 0; u < topology.users_per_region; ++u) {
      const net::NodeId addr = net.new_node_id();
      geo.assign(addr, r);
      users_.push_back(std::make_unique<UserAgent>(
          net, addr, "org-" + std::to_string(r) + "-0", r, config));
    }
  }
}

void Federation::issue_request(PlacementPolicy policy, sim::Rng& rng,
                               RequestHook done) {
  UserAgent& user = *users_[rng.uniform_int(users_.size())];
  EdgeNode* target = cloud_.get();
  if (policy == PlacementPolicy::EdgeFirst &&
      !rng.chance(topology_.cloud_fallback_fraction)) {
    // Load-balance between the region's nano-DCs.
    std::vector<EdgeNode*> local;
    for (auto& n : nodes_) {
      if (n->region() == user.region()) local.push_back(n.get());
    }
    if (!local.empty()) {
      target = local[rng.uniform_int(local.size())];
    }
  }
  const bool in_region = target->region() == user.region();
  const bool in_domain = target->domain() == user.domain();
  if (!in_domain && target->tier() == DeviceTier::NanoDC && recorder_) {
    recorder_(target->domain(), user.domain());
  }
  user.request(*target, [done = std::move(done), in_region, in_domain](
                            bool ok, sim::SimDuration latency) {
    if (done) done(ok, latency, in_region, in_domain);
  });
}

}  // namespace decentnet::edge
