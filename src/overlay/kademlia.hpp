// Kademlia DHT (Maymounkov & Mazières, 2002) over the simulated network.
//
// Implements the full iterative protocol: 256-bit XOR metric, k-buckets with
// least-recently-seen eviction pings, alpha-parallel iterative FIND_NODE /
// FIND_VALUE lookups with per-RPC timeouts, STORE replication to the k
// closest nodes, and periodic bucket refresh. Unresponsive ("dead") contacts
// are what make open DHT lookups slow in practice — the paper's E1 claim —
// so the timeout machinery here is deliberately faithful.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/hash.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/metrics.hpp"

namespace decentnet::overlay {

using Key = crypto::Hash256;

struct Contact {
  Key id;
  net::NodeId addr;

  bool operator==(const Contact& o) const { return addr == o.addr; }
};

struct KademliaConfig {
  std::size_t k = 8;               // bucket size / replication factor
  std::size_t alpha = 3;           // lookup parallelism
  sim::SimDuration rpc_timeout = sim::seconds(1.5);
  /// Actionable description of the first invalid field, or nullopt when the
  /// config is usable. KademliaNode's constructor rejects invalid configs.
  std::optional<std::string> validate() const;
  /// Extra attempts per shortlist contact after a timed-out lookup RPC.
  /// 0 (the default, and the classic behavior) fails the contact on its
  /// first timeout; 1-2 rides out transient loss bursts / latency spikes at
  /// the cost of slower failure detection on genuinely dead peers.
  std::size_t rpc_retries = 0;
  sim::SimDuration refresh_interval = sim::minutes(15);
  std::size_t message_bytes = 120;  // nominal wire size per RPC
  /// Spec-correct Kademlia pings the least-recently-seen contact before
  /// replacing it (biasing tables toward proven-reachable peers). Many real
  /// BitTorrent-DHT clients skipped the ping and just replaced — letting
  /// send-only NATed peers pollute tables (E1's slow-lookup mechanism).
  bool naive_eviction = false;
  /// Spec-correct clients drop a contact after an RPC timeout. Naive ones
  /// kept "questionable" entries around and retried them — the second half
  /// of the BT-DHT slow-lookup pathology.
  bool evict_on_failure = true;
};

namespace kademlia_msg {
struct FindNode;
struct FindNodeReply;
struct Store;
}  // namespace kademlia_msg

/// Result of an iterative lookup.
struct LookupResult {
  bool found_value = false;
  std::optional<std::string> value;
  std::vector<Contact> closest;    // k closest contacts discovered
  std::size_t rpcs_sent = 0;
  std::size_t timeouts = 0;
  /// Iterative depth: 1 = answered from contacts we already knew, each
  /// reply-discovered contact adds one (the E1/E20 hop-count metric).
  std::size_t hops = 0;
  sim::SimDuration elapsed = 0;
};

class KademliaNode final : public net::Host {
 public:
  using LookupCallback = std::function<void(LookupResult)>;

  /// `id` defaults to sha256(addr); sybil attackers pass a chosen id.
  KademliaNode(net::Network& net, net::NodeId addr, KademliaConfig config,
               std::optional<Key> id = std::nullopt);
  /// Leaves the network if online. A lookup that does not finish inside
  /// the destructor never reports: its callback is dropped, not run later
  /// on the destroyed node.
  ~KademliaNode() override;

  KademliaNode(const KademliaNode&) = delete;
  KademliaNode& operator=(const KademliaNode&) = delete;

  const Key& id() const { return id_; }
  net::NodeId addr() const { return addr_; }
  bool online() const { return online_; }

  /// Attach to the network and populate the routing table via a lookup of
  /// our own id through `bootstrap` (may be empty for the first node).
  void join(const std::vector<Contact>& bootstrap);

  /// Detach (churn). Pending lookups fail by timeout at the callers.
  void leave();

  /// Iterative FIND_NODE toward `target`.
  void lookup(const Key& target, LookupCallback cb);

  /// Store `value` under `key` on the k closest nodes.
  void store(const Key& key, std::string value,
             std::function<void(std::size_t replicas)> cb = {});

  /// Iterative FIND_VALUE.
  void find_value(const Key& key, LookupCallback cb);

  /// Routing-table snapshot (for tests and attack analysis).
  std::vector<Contact> routing_table() const;
  std::size_t routing_table_size() const;

  /// Local portion of the DHT keyspace.
  const std::unordered_map<Key, std::string, crypto::Hash256Hasher>& storage()
      const {
    return storage_;
  }

  /// Force-insert a contact (tests; also used by attack drivers).
  void observe(const Contact& c) { touch_contact(c); }

  void handle_message(const net::Message& msg) override;

  /// The `count` known contacts closest to `target` by XOR distance,
  /// closest first (what lookups start from and FindNode replies carry).
  std::vector<Contact> closest_contacts(const Key& target,
                                        std::size_t count) const;

 private:
  /// The routing table is one flat array. `contacts_` holds every contact,
  /// grouped by bucket in ascending prefix-length order and least recently
  /// seen first within a bucket, so routing_table() is a plain copy. Each
  /// bucket ever touched has a BucketSlot, and a bucket's contacts start
  /// where the preceding slots' counts end. Only ~log2(N) of the 256
  /// buckets ever hold a contact, so slots are few; they stay sorted by
  /// index and are never erased. Callbacks name a bucket by index, since
  /// inserting a slot moves the ones after it.
  struct BucketSlot {
    std::uint16_t index = 0;
    bool eviction_ping_pending = false;  // throttle: one probe per bucket
    std::uint32_t count = 0;             // this bucket's run in contacts_
    std::vector<Contact> replacement_cache;
  };

  /// Where bucket `index` is: its slot (or where that slot would go) and
  /// the offset of its first contact in contacts_.
  struct BucketPos {
    std::size_t slot;
    std::size_t begin;
    bool found;
  };

  struct PendingRpc {
    std::function<void(bool ok, const net::Message*)> on_done;
    sim::EventHandle timeout;
  };

  struct LookupState;

  // Routing-table maintenance.
  int bucket_index(const Key& other) const;
  BucketPos locate(int index) const;
  void touch_contact(const Contact& c);
  void evict_or_keep(const BucketPos& pos, const Contact& candidate);
  void erase_contact(std::size_t slot,
                     std::vector<Contact>::const_iterator it);

  // RPC plumbing. The request payload is shared by every recipient of one
  // lookup; only the nonce (Message::cookie) differs per send.
  sim::Shared<kademlia_msg::FindNode> make_request(bool find_value,
                                                   const Key& target) const;
  std::uint64_t send_rpc(const Contact& to,
                         const sim::Shared<kademlia_msg::FindNode>& request,
                         std::function<void(bool, const net::Message*)> cb,
                         net::Span span = {});
  void fail_contact(const Contact& c);

  // Iterative lookup engine (shared by lookup/find_value/store).
  void start_lookup(const Key& target, bool want_value, LookupCallback cb);
  void lookup_step(const std::shared_ptr<LookupState>& state);
  void finish_lookup(const std::shared_ptr<LookupState>& state);

  void refresh_buckets();

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  Key id_;
  KademliaConfig config_;
  sim::Counter& m_lookups_;      // finished iterative lookups (all nodes)
  sim::Counter& m_rpcs_;         // FIND_NODE/FIND_VALUE RPCs sent
  sim::Counter& m_rpc_timeouts_; // RPCs that expired unanswered
  // Span-derived: deepest hop in each finished lookup's request/reply chain.
  // Bound only while the network tracks spans (null otherwise).
  sim::Histogram* m_path_len_;
  bool online_ = false;
  std::vector<Contact> contacts_;   // every bucket's contacts, in slot order
  std::vector<BucketSlot> slots_;   // sparse, sorted by prefix length
  std::unordered_map<Key, std::string, crypto::Hash256Hasher> storage_;
  std::unordered_map<std::uint64_t, PendingRpc> pending_;
  std::uint64_t next_nonce_ = 1;
  /// Expires with the node. An RPC failure that send_rpc posts while the
  /// node is offline holds a weak reference and is dropped if the node is
  /// gone by the time it runs. Created on first use.
  std::shared_ptr<char> alive_;
  sim::EventHandle refresh_timer_;
};

/// Wire messages (public so attack drivers in p2p/ can craft them). The RPC
/// nonce rides in Message::cookie rather than the payload, so one FindNode
/// allocation serves a whole alpha-parallel fan-out; replies echo the
/// request's cookie.
namespace kademlia_msg {
struct FindNode {
  Key target;
  Contact sender;
  bool want_value;
};
struct FindNodeReply {
  Contact sender;
  bool has_value;
  std::string value;
  std::vector<Contact> contacts;
};
struct Store {
  Key key;
  std::string value;
  Contact sender;
};
}  // namespace kademlia_msg

}  // namespace decentnet::overlay
