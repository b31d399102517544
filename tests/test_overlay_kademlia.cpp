// Kademlia tests: joins populate routing tables, iterative lookups converge
// to the globally closest nodes, store/find_value round-trips, bucket
// eviction prefers live long-lived contacts, offline nodes surface as
// timeouts rather than hangs, destroyed nodes drop their unfinished lookups,
// and the flat routing table's bucket walk matches a brute-force sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "overlay/kademlia.hpp"

namespace dn = decentnet::net;
namespace ds = decentnet::sim;
namespace ov = decentnet::overlay;

namespace {

struct KadNet {
  ds::Simulator sim{12345};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(20))};
  ov::KademliaConfig config;
  std::vector<std::unique_ptr<ov::KademliaNode>> nodes;

  explicit KadNet(std::size_t n, ov::KademliaConfig cfg = {}) : config(cfg) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<ov::KademliaNode>(
          net, net.new_node_id(), config));
    }
    // Join sequentially through node 0.
    nodes[0]->join({});
    for (std::size_t i = 1; i < n; ++i) {
      nodes[i]->join({{nodes[0]->id(), nodes[0]->addr()}});
      sim.run_until(sim.now() + ds::seconds(2));
    }
    sim.run_until(sim.now() + ds::seconds(10));
  }

  /// Ground truth: the k closest online node ids to `target`.
  std::vector<ov::Key> true_closest(const ov::Key& target,
                                    std::size_t k) const {
    std::vector<ov::Key> ids;
    for (const auto& n : nodes) {
      if (n->online()) ids.push_back(n->id());
    }
    std::sort(ids.begin(), ids.end(), [&](const ov::Key& a, const ov::Key& b) {
      return a.distance_to(target) < b.distance_to(target);
    });
    if (ids.size() > k) ids.resize(k);
    return ids;
  }
};

}  // namespace

TEST(Kademlia, JoinPopulatesRoutingTables) {
  KadNet kad(30);
  for (const auto& n : kad.nodes) {
    EXPECT_GE(n->routing_table_size(), 5u) << "node has too few contacts";
  }
}

TEST(Kademlia, LookupFindsGloballyClosestNodes) {
  KadNet kad(40);
  const ov::Key target = decentnet::crypto::sha256("some random target");
  bool done = false;
  ov::LookupResult result;
  kad.nodes[7]->lookup(target, [&](ov::LookupResult r) {
    done = true;
    result = std::move(r);
  });
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  ASSERT_TRUE(done);
  ASSERT_FALSE(result.closest.empty());
  // The best discovered contact must be the true global best (or within the
  // true top-k, allowing for routing-table staleness at this small scale).
  const auto truth = kad.true_closest(target, kad.config.k);
  EXPECT_EQ(result.closest.front().id, truth.front());
}

TEST(Kademlia, StoreThenFindValueFromAnyNode) {
  KadNet kad(25);
  const ov::Key key = decentnet::crypto::sha256("the-key");
  bool stored = false;
  kad.nodes[3]->store(key, "the-value", [&](std::size_t replicas) {
    stored = true;
    EXPECT_GT(replicas, 0u);
  });
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  ASSERT_TRUE(stored);
  // Retrieve from a different node.
  bool found = false;
  kad.nodes[17]->find_value(key, [&](ov::LookupResult r) {
    found = r.found_value;
    if (r.found_value) EXPECT_EQ(*r.value, "the-value");
  });
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  EXPECT_TRUE(found);
}

TEST(Kademlia, FindValueMissesForUnknownKey) {
  KadNet kad(15);
  bool done = false;
  kad.nodes[2]->find_value(decentnet::crypto::sha256("never stored"),
                           [&](ov::LookupResult r) {
                             done = true;
                             EXPECT_FALSE(r.found_value);
                           });
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  EXPECT_TRUE(done);
}

TEST(Kademlia, DeadContactsCauseTimeoutsNotHangs) {
  KadNet kad(30);
  // Kill half the network abruptly (no graceful leave).
  for (std::size_t i = 15; i < 30; ++i) kad.nodes[i]->leave();
  bool done = false;
  ov::LookupResult result;
  kad.nodes[1]->lookup(decentnet::crypto::sha256("target-after-crash"),
                       [&](ov::LookupResult r) {
                         done = true;
                         result = std::move(r);
                       });
  kad.sim.run_until(kad.sim.now() + ds::minutes(5));
  ASSERT_TRUE(done);
  EXPECT_GT(result.timeouts, 0u) << "lookup should have hit dead contacts";
}

TEST(Kademlia, LookupLatencyGrowsWithDeadFraction) {
  // The E1 mechanism in miniature: more dead contacts => slower lookups.
  auto run = [](double dead_fraction) {
    KadNet kad(40);
    ds::Rng rng(7);
    for (auto& n : kad.nodes) {
      if (rng.chance(dead_fraction)) n->leave();
    }
    double total_ms = 0;
    int completed = 0;
    for (int q = 0; q < 10; ++q) {
      ov::KademliaNode* src = nullptr;
      for (auto& n : kad.nodes) {
        if (n->online()) {
          src = n.get();
          break;
        }
      }
      bool done = false;
      src->lookup(decentnet::crypto::sha256("q" + std::to_string(q)),
                  [&](ov::LookupResult r) {
                    done = true;
                    total_ms += ds::to_millis(r.elapsed);
                  });
      kad.sim.run_until(kad.sim.now() + ds::minutes(2));
      if (done) ++completed;
    }
    return completed > 0 ? total_ms / completed : 1e18;
  };
  const double fresh = run(0.0);
  const double stale = run(0.4);
  EXPECT_GT(stale, fresh * 2) << "dead contacts should slow lookups markedly";
}

TEST(Kademlia, ObserveInsertsContact) {
  KadNet kad(5);
  ov::Contact fake{decentnet::crypto::sha256("fake-id"), dn::NodeId{9999}};
  const std::size_t before = kad.nodes[0]->routing_table_size();
  kad.nodes[0]->observe(fake);
  EXPECT_EQ(kad.nodes[0]->routing_table_size(), before + 1);
}

TEST(Kademlia, SelfIsNeverInRoutingTable) {
  KadNet kad(10);
  for (const auto& n : kad.nodes) {
    for (const auto& c : n->routing_table()) {
      EXPECT_NE(c.addr, n->addr());
    }
  }
}

TEST(Kademlia, BucketsBoundedByK) {
  ov::KademliaConfig cfg;
  cfg.k = 4;
  KadNet kad(50, cfg);
  for (const auto& n : kad.nodes) {
    // No bucket may exceed k; total table is at most 256*k but in a 50-node
    // network the far bucket dominates; just assert the far bucket cap via
    // the contact count per distance class.
    std::map<int, int> per_bucket;
    for (const auto& c : n->routing_table()) {
      const int lz = n->id().distance_to(c.id).leading_zero_bits();
      ++per_bucket[255 - lz];
    }
    for (const auto& [bucket, count] : per_bucket) {
      EXPECT_LE(count, 4) << "bucket " << bucket << " exceeds k";
    }
  }
}

TEST(Kademlia, RejoinAfterLeaveWorks) {
  KadNet kad(20);
  kad.nodes[5]->leave();
  kad.sim.run_until(kad.sim.now() + ds::seconds(30));
  kad.nodes[5]->join({{kad.nodes[0]->id(), kad.nodes[0]->addr()}});
  kad.sim.run_until(kad.sim.now() + ds::seconds(30));
  EXPECT_TRUE(kad.nodes[5]->online());
  EXPECT_GE(kad.nodes[5]->routing_table_size(), 3u);
}

TEST(Kademlia, DestroyedNodeDropsUnfinishedLookups) {
  // A node destroyed mid-lookup, online or after leave(), must not have a
  // failure it posted run on it later (a use-after-free under ASan).
  int reported = 0;  // declared before the nodes, whose callbacks write it
  bool done = false;
  KadNet kad(40);
  for (std::size_t who : {7u, 9u}) {
    for (int q = 0; q < 5; ++q) {
      kad.nodes[who]->lookup(
          decentnet::crypto::sha256("gone-" + std::to_string(who * 10 + q)),
          [&](ov::LookupResult) { ++reported; });
    }
  }
  kad.sim.run_until(kad.sim.now() + ds::millis(25));
  kad.nodes[7].reset();   // online: the destructor leaves
  kad.nodes[9]->leave();  // posts the failures of the lookups' next RPCs
  kad.nodes[9].reset();
  const int reported_at_destruction = reported;
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  EXPECT_EQ(reported, reported_at_destruction);

  // The rest of the network still resolves lookups.
  kad.nodes[3]->lookup(decentnet::crypto::sha256("after"),
                       [&](ov::LookupResult r) {
                         done = true;
                         EXPECT_FALSE(r.closest.empty());
                       });
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  EXPECT_TRUE(done);
}

namespace {

/// Bucket of `c` in `self`'s table, computed from distance_to() rather
/// than the word-wise metric the table uses.
int bucket_of(const ov::Key& self, const ov::Key& c) {
  return 255 - self.distance_to(c).leading_zero_bits();
}

/// `self` with bit `255 - bucket` flipped and every lower bit random: an id
/// in the given bucket of `self`'s table.
ov::Key id_in_bucket(const ov::Key& self, int bucket, ds::Rng& rng) {
  ov::Key id = self;
  const int bit = 255 - bucket;  // 0 = most significant
  const auto byte = static_cast<std::size_t>(bit / 8);
  id.bytes[byte] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
  const auto low_mask = static_cast<std::uint8_t>((0x80u >> (bit % 8)) - 1);
  id.bytes[byte] = static_cast<std::uint8_t>(
      (id.bytes[byte] & ~low_mask) | (rng.next() & low_mask));
  for (std::size_t b = byte + 1; b < 32; ++b) {
    id.bytes[b] = static_cast<std::uint8_t>(rng.next());
  }
  return id;
}

/// Reference model of observe(): the flat table after touching `c`.
std::vector<ov::Contact> expect_observe(std::vector<ov::Contact> table,
                                        const ov::Key& self,
                                        const ov::Contact& c, std::size_t k,
                                        bool naive) {
  const int b = bucket_of(self, c.id);
  const auto first =
      std::find_if(table.begin(), table.end(), [&](const ov::Contact& x) {
        return bucket_of(self, x.id) >= b;
      });
  const auto last = std::find_if(first, table.end(), [&](const ov::Contact& x) {
    return bucket_of(self, x.id) > b;
  });
  const auto it = std::find(first, last, c);
  const std::ptrdiff_t begin_at = first - table.begin();
  const std::ptrdiff_t end_at = last - table.begin();
  if (it != last) {  // move to the most-recently-seen end
    table.erase(it);
    table.insert(table.begin() + end_at - 1, c);
  } else if (static_cast<std::size_t>(end_at - begin_at) < k) {
    table.insert(table.begin() + end_at, c);
  } else if (naive) {  // drop the least recently seen unverified
    table.erase(table.begin() + begin_at);
    table.insert(table.begin() + end_at - 1, c);
  }  // else: full bucket, the eviction ping decides later
  return table;
}

void expect_same(const std::vector<ov::Contact>& got,
                 const std::vector<ov::Contact>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].addr, want[i].addr) << what << " at " << i;
    EXPECT_EQ(got[i].id, want[i].id) << what << " at " << i;
  }
}

/// Table invariants plus closest_contacts against a brute-force sort.
void check_table(const ov::KademliaNode& node, std::size_t k, ds::Rng& rng) {
  const std::vector<ov::Contact> table = node.routing_table();
  ASSERT_EQ(table.size(), node.routing_table_size());
  std::map<int, std::size_t> per_bucket;
  int prev = -1;
  for (const ov::Contact& c : table) {
    const int b = bucket_of(node.id(), c.id);
    ASSERT_GE(b, 0);
    EXPECT_GE(b, prev) << "buckets out of ascending order";
    prev = b;
    EXPECT_LE(++per_bucket[b], k) << "bucket " << b << " exceeds k";
  }

  std::vector<ov::Key> targets = {
      node.id(),
      decentnet::crypto::sha256("target-" + std::to_string(rng.next())),
      id_in_bucket(node.id(), 0, rng),
      id_in_bucket(node.id(), static_cast<int>(rng.uniform_int(16)), rng),
      id_in_bucket(node.id(), 255, rng)};
  if (!table.empty()) {
    const ov::Key& near = table[rng.uniform_int(table.size())].id;
    targets.push_back(near);
    targets.push_back(id_in_bucket(near, static_cast<int>(rng.uniform_int(8)),
                                   rng));
  }
  for (const ov::Key& target : targets) {
    std::vector<ov::Contact> sorted = table;
    std::sort(sorted.begin(), sorted.end(),
              [&](const ov::Contact& a, const ov::Contact& b) {
                return a.id.distance_to(target) < b.id.distance_to(target);
              });
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, k,
                              table.size() + 5}) {
      std::vector<ov::Contact> want(
          sorted.begin(),
          sorted.begin() + static_cast<std::ptrdiff_t>(
                               std::min(count, sorted.size())));
      expect_same(node.closest_contacts(target, count), want,
                  "closest_contacts");
    }
  }
}

}  // namespace

TEST(Kademlia, BucketWalkMatchesBruteForceSort) {
  // Seeded differential test of the flat routing table: a scripted mix of
  // observes, answered and timed-out eviction pings, and lookups whose RPC
  // timeouts evict dead contacts, under spec and naive eviction. After every
  // step the table keeps its layout invariants and closest_contacts equals
  // a brute-force sort of routing_table().
  for (const bool naive : {false, true}) {
    SCOPED_TRACE(naive ? "naive eviction" : "spec eviction");
    ds::Simulator sim{77};
    dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(20))};
    ov::KademliaConfig cfg;
    cfg.k = 4;
    cfg.naive_eviction = naive;
    ds::Rng rng(naive ? 2 : 1);
    // Declared before the subject: its lookups' callbacks write here.
    std::uint64_t lookup_rpcs = 0;
    std::uint64_t lookup_timeouts = 0;
    ov::Key self;
    for (auto& b : self.bytes) b = static_cast<std::uint8_t>(rng.next());
    ov::KademliaNode subject(net, net.new_node_id(), cfg, self);
    subject.join({});

    // Peers spread over high, middle and near-self buckets; ids are unique.
    // Every other one answers (a joined node); the rest never attach.
    const int buckets[] = {255, 255, 255, 255, 254, 254, 254, 253, 253,
                           252, 250, 240, 200, 129, 64, 9, 3, 1, 0};
    std::vector<std::unique_ptr<ov::KademliaNode>> live;
    std::vector<ov::Contact> pool;
    for (int round = 0; round < 3; ++round) {
      for (const int b : buckets) {
        if (b == 0 && round > 0) continue;  // bucket 0 holds a single id
        const ov::Key id = id_in_bucket(self, b, rng);
        if (std::any_of(pool.begin(), pool.end(),
                        [&](const ov::Contact& c) { return c.id == id; })) {
          continue;
        }
        if (pool.size() % 2 == 0) {
          live.push_back(std::make_unique<ov::KademliaNode>(
              net, net.new_node_id(), cfg, id));
          live.back()->join({});
          pool.push_back({id, live.back()->addr()});
        } else {
          pool.push_back({id, net.new_node_id()});
        }
      }
    }

    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.uniform_int(20);
      if (op < 12) {
        const std::vector<ov::Contact> before = subject.routing_table();
        const ov::Contact c = op < 3 && !before.empty()
                                  ? before[rng.uniform_int(before.size())]
                                  : pool[rng.uniform_int(pool.size())];
        subject.observe(c);
        expect_same(subject.routing_table(),
                    expect_observe(before, self, c, cfg.k, naive), "observe");
      } else if (op < 19) {
        const auto ms = static_cast<double>(200 + rng.uniform_int(3000));
        sim.run_until(sim.now() + ds::millis(ms));
      } else {
        subject.lookup(
            decentnet::crypto::sha256("walk-" + std::to_string(step)),
            [&](ov::LookupResult r) {
              lookup_rpcs += r.rpcs_sent;
              lookup_timeouts += r.timeouts;
            });
      }
      check_table(subject, cfg.k, rng);
      if (HasFatalFailure()) return;
    }
    // Let every lookup and ping resolve. The subject is the only node that
    // sends RPCs, so what its lookups did not send were eviction pings.
    sim.run_until(sim.now() + ds::minutes(1));
    check_table(subject, cfg.k, rng);
    auto& m = net.metrics();
    const std::uint64_t pings =
        m.counter("overlay/kad_rpcs").value() - lookup_rpcs;
    const std::uint64_t ping_timeouts =
        m.counter("overlay/kad_rpc_timeouts").value() - lookup_timeouts;
    EXPECT_GT(lookup_timeouts, 0u) << "no contact failed by RPC timeout";
    if (naive) {
      EXPECT_EQ(pings, 0u);
    } else {
      EXPECT_GT(ping_timeouts, 0u) << "no eviction ping timed out";
      EXPECT_GT(pings, ping_timeouts) << "no eviction ping was answered";
    }
  }
}
