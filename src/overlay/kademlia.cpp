#include "overlay/kademlia.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/buffer.hpp"

namespace decentnet::overlay {

using kademlia_msg::FindNode;
using kademlia_msg::FindNodeReply;
using kademlia_msg::Store;

namespace {
Key default_id(net::NodeId addr) {
  crypto::ByteWriter w;
  w.str("kad-node").u64(addr.value);
  return w.sha256();
}
}  // namespace

std::optional<std::string> KademliaConfig::validate() const {
  if (k == 0) return "KademliaConfig.k must be >= 1 (bucket size)";
  if (alpha == 0) return "KademliaConfig.alpha must be >= 1 (parallelism)";
  if (rpc_timeout <= 0) {
    return "KademliaConfig.rpc_timeout must be positive";
  }
  if (refresh_interval <= 0) {
    return "KademliaConfig.refresh_interval must be positive";
  }
  if (message_bytes == 0) {
    return "KademliaConfig.message_bytes must be nonzero (wire accounting)";
  }
  return std::nullopt;
}

KademliaNode::KademliaNode(net::Network& net, net::NodeId addr,
                           KademliaConfig config, std::optional<Key> id)
    // simulator_for/metrics_for: the node's timers and metric handles live
    // on the shard that owns its NodeId (the plain simulator()/metrics()
    // when the network is unsharded).
    : net_(net),
      sim_(net.simulator_for(addr)),
      addr_(addr),
      id_(id ? *id : default_id(addr)),
      config_(config),
      m_lookups_(net.metrics_for(addr).counter("overlay/kad_lookups")),
      m_rpcs_(net.metrics_for(addr).counter("overlay/kad_rpcs")),
      m_rpc_timeouts_(
          net.metrics_for(addr).counter("overlay/kad_rpc_timeouts")),
      m_path_len_(net.span_tracking()
                      ? &net.metrics_for(addr).histogram(
                            "overlay/lookup_path_len")
                      : nullptr) {
  if (const auto err = config_.validate()) {
    throw std::invalid_argument(*err);
  }
}

KademliaNode::~KademliaNode() {
  if (online_) leave();
}

void KademliaNode::join(const std::vector<Contact>& bootstrap) {
  net_.attach(addr_, this);
  online_ = true;
  for (const Contact& c : bootstrap) touch_contact(c);
  // Locate ourselves: populates buckets along the path to our own id.
  if (!bootstrap.empty()) {
    lookup(id_, [](LookupResult) {});
  }
  refresh_timer_ = sim_.schedule_periodic(
      config_.refresh_interval, config_.refresh_interval,
      [this] { refresh_buckets(); });
}

void KademliaNode::leave() {
  online_ = false;
  refresh_timer_.cancel();
  net_.detach(addr_);
  // Fail in-flight RPCs so outstanding lookups terminate promptly.
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [nonce, rpc] : pending) {
    rpc.timeout.cancel();
    rpc.on_done(false, nullptr);
  }
}

int KademliaNode::bucket_index(const Key& other) const {
  // 255 - 256 = -1 for our own id.
  return 255 - Key::leading_zero_bits(id_.distance_words(other));
}

KademliaNode::BucketPos KademliaNode::locate(int index) const {
  // A linear scan from the far end, subtracting counts on the way: a table
  // holds ~log2(N) slots, and half of all ids fall in bucket 255, a quarter
  // in 254, so most scans stop after a slot or two.
  BucketPos pos{slots_.size(), contacts_.size(), false};
  while (pos.slot > 0 && slots_[pos.slot - 1].index >= index) {
    --pos.slot;
    pos.begin -= slots_[pos.slot].count;
  }
  pos.found = pos.slot < slots_.size() && slots_[pos.slot].index == index;
  return pos;
}

void KademliaNode::erase_contact(std::size_t slot,
                                 std::vector<Contact>::const_iterator it) {
  contacts_.erase(it);
  --slots_[slot].count;
}

void KademliaNode::touch_contact(const Contact& c) {
  if (c.addr == addr_) return;
  const int idx = bucket_index(c.id);
  if (idx < 0) return;
  const BucketPos pos = locate(idx);
  if (!pos.found) {
    slots_.emplace(slots_.begin() + static_cast<std::ptrdiff_t>(pos.slot))
        ->index = static_cast<std::uint16_t>(idx);
  }
  BucketSlot& slot = slots_[pos.slot];
  const auto first = contacts_.begin() + static_cast<std::ptrdiff_t>(pos.begin);
  const auto last = first + slot.count;
  const auto it = std::find(first, last, c);
  if (it != last) {
    // Move to most-recently-seen position, refreshing the stored id.
    std::rotate(it, it + 1, last);
    *(last - 1) = c;
    return;
  }
  if (slot.count < config_.k) {
    contacts_.insert(last, c);
    ++slot.count;
    return;
  }
  if (config_.naive_eviction) {
    // Faulty-client behaviour: drop the oldest without verifying it.
    std::rotate(first, first + 1, last);
    *(last - 1) = c;
    return;
  }
  evict_or_keep(pos, c);
}

void KademliaNode::evict_or_keep(const BucketPos& pos,
                                 const Contact& candidate) {
  BucketSlot& slot = slots_[pos.slot];
  // Remember the candidate; ping the least-recently-seen contact. If it
  // answers, it stays (Kademlia's bias toward long-lived peers); if not, the
  // candidate replaces it.
  auto& cache = slot.replacement_cache;
  if (cache.size() < config_.k &&
      std::find(cache.begin(), cache.end(), candidate) == cache.end()) {
    cache.push_back(candidate);
  }
  if (slot.count == 0 || slot.eviction_ping_pending) return;
  slot.eviction_ping_pending = true;
  const Contact lru = contacts_[pos.begin];
  send_rpc(lru, make_request(/*find_value=*/false, id_),
           [this, bucket_idx = static_cast<int>(slot.index),
            lru](bool ok, const net::Message*) {
             // Re-locate: slot insertions and contact moves may have shifted
             // the bucket while the ping was in flight.
             const BucketPos p = locate(bucket_idx);
             if (!p.found) return;
             BucketSlot& b = slots_[p.slot];
             b.eviction_ping_pending = false;
             const auto first =
                 contacts_.begin() + static_cast<std::ptrdiff_t>(p.begin);
             const auto last = first + b.count;
             const auto it = std::find(first, last, lru);
             if (ok) {
               if (it != last) std::rotate(it, it + 1, last);
               return;
             }
             if (it != last) erase_contact(p.slot, it);
             // The newest cached candidate is promoted even when it is
             // already in the bucket, which then lists it twice.
             if (!b.replacement_cache.empty() && b.count < config_.k) {
               contacts_.insert(
                   contacts_.begin() +
                       static_cast<std::ptrdiff_t>(p.begin + b.count),
                   b.replacement_cache.back());
               ++b.count;
               b.replacement_cache.pop_back();
             }
           });
}

std::vector<Contact> KademliaNode::closest_contacts(const Key& target,
                                                    std::size_t count) const {
  // Bucket walk. With b = bucket_index(target), a contact in bucket a is at
  // XOR distance < 2^b from the target when a == b, in [2^b, 2^(b+1)) when
  // a < b, and in [2^a, 2^(a+1)) when a > b. So bucket b comes first, then
  // every lower bucket as one group, then each higher bucket in ascending
  // order. Only the group being taken is sorted, and XOR distances to one
  // target are unique per id, so this is the prefix of a full sort.
  struct Ranked {
    Key::Words distance;
    const Contact* contact;
  };
  std::vector<Contact> out;
  out.reserve(std::min(count, contacts_.size()));
  std::vector<Ranked> group;
  const auto take = [&](std::size_t first, std::size_t last) {
    if (first == last || out.size() >= count) return;
    group.clear();
    group.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) {
      group.push_back({contacts_[i].id.distance_words(target), &contacts_[i]});
    }
    const std::size_t n = std::min(count - out.size(), group.size());
    const auto closer = [](const Ranked& x, const Ranked& y) {
      return x.distance < y.distance;
    };
    const auto mid = group.begin() + static_cast<std::ptrdiff_t>(n);
    if (mid == group.end()) {
      std::sort(group.begin(), mid, closer);
    } else {
      std::partial_sort(group.begin(), mid, group.end(), closer);
    }
    for (auto r = group.begin(); r != mid; ++r) out.push_back(*r->contact);
  };

  const BucketPos home = locate(bucket_index(target));
  std::size_t slot = home.slot;
  std::size_t begin = home.begin;
  if (home.found) {
    take(begin, begin + slots_[slot].count);
    begin += slots_[slot].count;
    ++slot;
  }
  take(0, home.begin);
  for (; slot < slots_.size() && out.size() < count; ++slot) {
    take(begin, begin + slots_[slot].count);
    begin += slots_[slot].count;
  }
  return out;
}

std::vector<Contact> KademliaNode::routing_table() const { return contacts_; }

std::size_t KademliaNode::routing_table_size() const {
  return contacts_.size();
}

sim::Shared<FindNode> KademliaNode::make_request(bool find_value,
                                                 const Key& target) const {
  return sim::Shared<FindNode>::make(
      FindNode{target, Contact{id_, addr_}, find_value});
}

std::uint64_t KademliaNode::send_rpc(
    const Contact& to, const sim::Shared<FindNode>& request,
    std::function<void(bool, const net::Message*)> cb, net::Span span) {
  const std::uint64_t nonce = next_nonce_++;
  if (!online_) {
    // Caller left the network mid-lookup: fail asynchronously so the lookup
    // engine unwinds without reentrancy surprises. `cb` may point into this
    // node, so it runs only if the node still exists by then.
    if (!alive_) alive_ = std::make_shared<char>();
    sim_.post(0, [alive = std::weak_ptr<char>(alive_), cb = std::move(cb)] {
      if (!alive.expired()) cb(false, nullptr);
    });
    return nonce;
  }
  m_rpcs_.add();
  PendingRpc rpc;
  rpc.on_done = std::move(cb);
  rpc.timeout = sim_.schedule(
      config_.rpc_timeout,
      [this, nonce, to] {
        auto it = pending_.find(nonce);
        if (it == pending_.end()) return;
        auto done = std::move(it->second.on_done);
        pending_.erase(it);
        m_rpc_timeouts_.add();
        fail_contact(to);
        done(false, nullptr);
      },
      "kad/rpc_timeout");
  pending_.emplace(nonce, std::move(rpc));
  net_.send(addr_, to.addr, request, config_.message_bytes, /*cookie=*/nonce,
            span);
  return nonce;
}

void KademliaNode::fail_contact(const Contact& c) {
  if (!config_.evict_on_failure) return;  // "questionable" contacts linger
  const int idx = bucket_index(c.id);
  if (idx < 0) return;
  const BucketPos pos = locate(idx);
  if (!pos.found) return;
  const auto first = contacts_.begin() + static_cast<std::ptrdiff_t>(pos.begin);
  const auto last = first + slots_[pos.slot].count;
  const auto it = std::find(first, last, c);
  if (it != last) erase_contact(pos.slot, it);
}

// ---------------------------------------------------------------------------
// Iterative lookup engine
// ---------------------------------------------------------------------------

struct KademliaNode::LookupState {
  enum class Status : std::uint8_t { New, InFlight, Done, Failed };
  struct Entry {
    Contact contact;
    Key::Words distance;  // to `target`, computed once on insert
    Status status = Status::New;
    std::uint32_t depth = 1;  // 1 = from our table, d+1 = found at depth d
    std::size_t tries = 0;    // RPC attempts issued to this contact
  };

  Key target;
  bool want_value = false;
  LookupCallback cb;
  sim::SimTime started = 0;
  /// One FindNode allocation shared by every RPC of this lookup.
  sim::Shared<FindNode> request;
  std::vector<Entry> shortlist;  // kept sorted by XOR distance to target
  std::size_t in_flight = 0;
  std::size_t rpcs = 0;
  std::size_t timeouts = 0;
  bool finished = false;
  std::optional<std::string> value;
  /// Causal frontier: the span of the most recent reply (initially the
  /// lookup's root). New RPC rounds chain below it, so the lookup's
  /// request/reply alternation forms one tree whose depth is the RPC path
  /// length (request + reply per round => 2 hops per round).
  net::Span span;
  std::uint32_t max_span_depth = 0;

  bool contains(const Contact& c) const {
    return std::any_of(shortlist.begin(), shortlist.end(),
                       [&](const Entry& e) { return e.contact == c; });
  }

  void insert(const Contact& c, std::uint32_t depth) {
    if (contains(c)) return;
    const Key::Words distance = c.id.distance_words(target);
    const auto pos = std::lower_bound(
        shortlist.begin(), shortlist.end(), distance,
        [](const Entry& e, const Key::Words& d) { return e.distance < d; });
    shortlist.insert(pos, Entry{c, distance, Status::New, depth});
  }
};

void KademliaNode::lookup(const Key& target, LookupCallback cb) {
  start_lookup(target, /*want_value=*/false, std::move(cb));
}

void KademliaNode::find_value(const Key& key, LookupCallback cb) {
  // Serve from local storage first, as the protocol specifies.
  const auto it = storage_.find(key);
  if (it != storage_.end()) {
    LookupResult r;
    r.found_value = true;
    r.value = it->second;
    cb(std::move(r));
    return;
  }
  start_lookup(key, /*want_value=*/true, std::move(cb));
}

void KademliaNode::store(const Key& key, std::string value,
                         std::function<void(std::size_t)> cb) {
  start_lookup(key, /*want_value=*/false,
               [this, key, value = std::move(value),
                cb = std::move(cb)](LookupResult r) {
                 std::size_t replicas = 0;
                 if (!r.closest.empty()) {
                   // One allocation replicated to all k holders.
                   const auto shared = sim::Shared<Store>::make(
                       Store{key, value, Contact{id_, addr_}});
                   const std::size_t bytes =
                       config_.message_bytes + value.size();
                   for (const Contact& c : r.closest) {
                     net_.send(addr_, c.addr, shared, bytes);
                     ++replicas;
                   }
                 }
                 if (replicas == 0) {
                   // No peers known: keep it locally so the data survives.
                   storage_[key] = value;
                 }
                 if (cb) cb(replicas);
               });
}

void KademliaNode::start_lookup(const Key& target, bool want_value,
                                LookupCallback cb) {
  auto state = std::make_shared<LookupState>();
  state->target = target;
  state->want_value = want_value;
  state->cb = std::move(cb);
  state->started = sim_.now();
  for (const Contact& c : closest_contacts(target, config_.k)) {
    state->insert(c, /*depth=*/1);
  }
  if (state->shortlist.empty()) {
    finish_lookup(state);
    return;
  }
  state->request = make_request(want_value, target);
  state->span = net_.new_span_root();
  lookup_step(state);
}

void KademliaNode::lookup_step(const std::shared_ptr<LookupState>& state) {
  if (state->finished) return;
  using Status = LookupState::Status;

  // Termination: the k closest non-failed entries are all Done.
  std::size_t considered = 0;
  bool all_done = true;
  bool any_new = false;
  for (const auto& e : state->shortlist) {
    if (e.status == Status::Failed) continue;
    if (considered++ >= config_.k) break;
    if (e.status != Status::Done) all_done = false;
    if (e.status == Status::New) any_new = true;
  }
  if ((all_done && considered > 0) || (!any_new && state->in_flight == 0)) {
    finish_lookup(state);
    return;
  }

  // Issue RPCs to the closest New entries, up to alpha in flight.
  for (auto& e : state->shortlist) {
    if (state->in_flight >= config_.alpha) break;
    if (e.status != Status::New) continue;
    // Only probe within the k closest non-failed window.
    e.status = Status::InFlight;
    ++e.tries;
    ++state->in_flight;
    ++state->rpcs;
    const Contact peer = e.contact;
    send_rpc(peer, state->request,
             [this, state, peer](bool ok, const net::Message* reply) {
               --state->in_flight;
               auto it = std::find_if(
                   state->shortlist.begin(), state->shortlist.end(),
                   [&](const LookupState::Entry& en) {
                     return en.contact == peer;
                   });
               if (!ok) {
                 ++state->timeouts;
                 if (it != state->shortlist.end()) {
                   // Retry-with-timeout: put the contact back in the New
                   // pool while it has attempts left; transient faults
                   // (loss bursts, latency spikes) should not strike
                   // reachable peers from the shortlist.
                   it->status = it->tries <= config_.rpc_retries
                                    ? Status::New
                                    : Status::Failed;
                 }
                 lookup_step(state);
                 return;
               }
               std::uint32_t depth = 1;
               if (it != state->shortlist.end()) {
                 it->status = Status::Done;
                 depth = it->depth;
               }
               // Advance the causal frontier: the next RPC round descends
               // from this reply's hop.
               state->span = reply->span;
               state->max_span_depth = std::max(
                   state->max_span_depth, net_.span_depth(reply->span.hop));
               const auto& r = net::payload_as<FindNodeReply>(*reply);
               if (state->want_value && r.has_value && !state->finished) {
                 state->value = r.value;
                 finish_lookup(state);
                 return;
               }
               for (const Contact& c : r.contacts) {
                 if (c.addr != addr_) state->insert(c, depth + 1);
               }
               lookup_step(state);
             },
             state->span);
  }
}

void KademliaNode::finish_lookup(const std::shared_ptr<LookupState>& state) {
  if (state->finished) return;
  state->finished = true;
  m_lookups_.add();
  if (m_path_len_) m_path_len_->record(state->max_span_depth);
  LookupResult r;
  r.found_value = state->value.has_value();
  r.value = state->value;
  r.rpcs_sent = state->rpcs;
  r.timeouts = state->timeouts;
  r.elapsed = sim_.now() - state->started;
  using Status = LookupState::Status;
  for (const auto& e : state->shortlist) {
    if (e.status == Status::Done && r.closest.size() < config_.k) {
      r.closest.push_back(e.contact);
      r.hops = std::max<std::size_t>(r.hops, e.depth);
    }
  }
  state->cb(std::move(r));
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void KademliaNode::handle_message(const net::Message& msg) {
  if (msg.is<FindNode>()) {
    const auto& req = net::payload_as<FindNode>(msg);
    touch_contact(req.sender);
    FindNodeReply reply;
    reply.sender = Contact{id_, addr_};
    reply.has_value = false;
    if (req.want_value) {
      const auto it = storage_.find(req.target);
      if (it != storage_.end()) {
        reply.has_value = true;
        reply.value = it->second;
      }
    }
    if (!reply.has_value) {
      reply.contacts = closest_contacts(req.target, config_.k);
      // Do not hand the requester itself back.
      std::erase_if(reply.contacts,
                    [&](const Contact& c) { return c.addr == msg.from; });
    }
    const std::size_t bytes =
        100 + 40 * reply.contacts.size() + reply.value.size();
    net_.send(addr_, msg.from, std::move(reply), bytes,
              /*cookie=*/msg.cookie, msg.span);
    return;
  }
  if (msg.is<FindNodeReply>()) {
    const auto& r = net::payload_as<FindNodeReply>(msg);
    // Per the Kademlia spec only the *responding* node earns a routing-table
    // slot; contacts merely mentioned in a reply must answer a query of ours
    // first. (Blind insertion would also let one poisoned reply trigger a
    // cascade of eviction probes.)
    touch_contact(r.sender);
    const auto it = pending_.find(msg.cookie);
    if (it == pending_.end()) return;  // late reply after timeout
    auto done = std::move(it->second.on_done);
    it->second.timeout.cancel();
    pending_.erase(it);
    done(true, &msg);
    return;
  }
  if (msg.is<Store>()) {
    const auto& s = net::payload_as<Store>(msg);
    touch_contact(s.sender);
    storage_[s.key] = s.value;
    return;
  }
}

void KademliaNode::refresh_buckets() {
  if (!online_) return;
  sim::Rng& rng = sim_.rng();
  // Slots are sorted by index, so iteration visits populated buckets in the
  // same ascending order (and draws the same rng sequence) as the old dense
  // scan that skipped empties.
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    const std::size_t i = slots_[slot].index;
    if (slots_[slot].count == 0) continue;
    // Random target inside bucket i's range: shares exactly (255 - i) prefix
    // bits with our id, differs at bit (255 - i).
    Key target = id_;
    const int diff_bit = 255 - static_cast<int>(i);
    const auto byte = static_cast<std::size_t>(diff_bit / 8);
    const int bit_in_byte = 7 - diff_bit % 8;
    target.bytes[byte] ^= static_cast<std::uint8_t>(1u << bit_in_byte);
    for (std::size_t b = byte + 1; b < 32; ++b) {
      target.bytes[b] = static_cast<std::uint8_t>(rng.next());
    }
    lookup(target, [](LookupResult) {});
  }
}

}  // namespace decentnet::overlay
