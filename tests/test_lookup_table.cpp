// LookupTable contract tests: a seeded differential run against
// std::unordered_map under a hasher that collides on purpose (long probe
// chains that wrap past the end of the slot array, erases in mid-chain),
// growth across many resizes and by reserve, copies independent of their
// source, moves that leave the source empty, and the no-iteration contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <ranges>
#include <unordered_map>
#include <utility>

#include "chain/types.hpp"
#include "crypto/hash.hpp"
#include "sim/lookup_table.hpp"
#include "sim/rng.hpp"

namespace ds = decentnet::sim;

namespace {

/// Only 13 distinct hashes: every key shares its home slot with about one
/// thirteenth of the table, so chains run long and cover the slot array.
struct CollidingHasher {
  std::size_t operator()(std::uint64_t k) const { return k % 13; }
};

struct IdentityHasher {
  std::size_t operator()(std::uint64_t k) const { return k; }
};

using Table = ds::LookupTable<std::uint64_t, std::uint64_t, CollidingHasher>;

// The contract that keeps the table's layout out of every result.
static_assert(!std::ranges::range<Table>);
static_assert(!std::ranges::range<const Table>);
static_assert(!std::ranges::range<
              ds::LookupSet<decentnet::chain::TxId,
                            decentnet::crypto::Hash256Hasher>>);
static_assert(!std::ranges::range<
              ds::LookupTable<decentnet::chain::OutPoint,
                              decentnet::chain::TxOutput,
                              decentnet::chain::OutPointHasher>>);

/// Every key in [0, key_space) agrees between the table and the reference.
void expect_same(const Table& table,
                 const std::unordered_map<std::uint64_t, std::uint64_t>& ref,
                 std::uint64_t key_space) {
  ASSERT_EQ(table.size(), ref.size());
  for (std::uint64_t k = 0; k < key_space; ++k) {
    const auto it = ref.find(k);
    const std::uint64_t* v = table.find(k);
    if (it == ref.end()) {
      ASSERT_EQ(v, nullptr) << "key " << k;
      ASSERT_FALSE(table.contains(k));
    } else {
      ASSERT_NE(v, nullptr) << "key " << k;
      ASSERT_EQ(*v, it->second) << "key " << k;
    }
  }
}

}  // namespace

TEST(LookupTable, DifferentialAgainstUnorderedMap) {
  constexpr std::uint64_t kKeySpace = 1500;
  Table table;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  ds::Rng rng(0x100C7AB1Eull);
  for (int op = 0; op < 100'000; ++op) {
    const std::uint64_t key = rng.uniform_int(kKeySpace);
    const std::uint64_t value = rng.next();
    // Out of 10: `inserts`, then 2 assigns, erases up to 8, then 2 finds.
    // The fill level drifts between about 3/4 and 1/2 of the key space, so
    // the table grows through several resizes and then drains.
    const std::uint64_t inserts = (op / 20'000) % 2 == 0 ? 4 : 2;
    const std::uint64_t dice = rng.uniform_int(10);
    if (dice < inserts) {
      const bool fresh = ref.emplace(key, value).second;
      ASSERT_EQ(table.insert(key, value), fresh) << "op " << op;
    } else if (dice < inserts + 2) {
      ref.insert_or_assign(key, value);
      table.insert_or_assign(key, value);
    } else if (dice < 8) {
      ASSERT_EQ(table.erase(key), ref.erase(key) == 1) << "op " << op;
    } else {
      const auto it = ref.find(key);
      const std::uint64_t* v = table.find(key);
      ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << op;
      if (v != nullptr) {
        ASSERT_EQ(*v, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(table.size(), ref.size()) << "op " << op;
    if (op % 5'000 == 0) expect_same(table, ref, kKeySpace);
  }
  expect_same(table, ref, kKeySpace);
  // Drain completely: every erase lands somewhere inside a chain.
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    ASSERT_EQ(table.erase(k), ref.erase(k) == 1);
  }
  EXPECT_EQ(table.size(), 0u);
  expect_same(table, ref, kKeySpace);
}

TEST(LookupTable, GrowsAcrossManyResizes) {
  ds::LookupTable<std::uint64_t, std::uint64_t, IdentityHasher> table;
  EXPECT_EQ(table.find(7), nullptr);  // no slots allocated yet
  EXPECT_FALSE(table.erase(7));
  constexpr std::uint64_t kCount = 50'000;  // about 20 1.5x steps from 16
  for (std::uint64_t k = 0; k < kCount; ++k) {
    ASSERT_TRUE(table.insert(k * 3, k));
  }
  EXPECT_EQ(table.size(), kCount);
  for (std::uint64_t k = 0; k < kCount; ++k) {
    const std::uint64_t* v = table.find(k * 3);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
    EXPECT_FALSE(table.contains(k * 3 + 1));
  }
  // insert never overwrites; insert_or_assign does.
  EXPECT_FALSE(table.insert(0, 99));
  EXPECT_EQ(*table.find(0), 0u);
  table.insert_or_assign(0, 99);
  EXPECT_EQ(*table.find(0), 99u);
  for (std::uint64_t k = 0; k < kCount; k += 2) {
    ASSERT_TRUE(table.erase(k * 3));
  }
  EXPECT_EQ(table.size(), kCount / 2);
  for (std::uint64_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(table.contains(k * 3), k % 2 == 1);
  }
}

TEST(LookupTable, ReserveKeepsEntriesAndLeavesRoom) {
  Table table;
  table.reserve(0);
  EXPECT_EQ(table.size(), 0u);
  for (std::uint64_t k = 0; k < 100; ++k) table.insert(k, k);
  table.reserve(3000);
  EXPECT_EQ(table.size(), 100u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    ASSERT_NE(table.find(k), nullptr);
    EXPECT_EQ(*table.find(k), k);
  }
  for (std::uint64_t k = 100; k < 3000; ++k) ASSERT_TRUE(table.insert(k, k));
  table.reserve(10);  // never shrinks
  EXPECT_EQ(table.size(), 3000u);
  for (std::uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(table.contains(k));
  EXPECT_FALSE(table.contains(3000));
}

TEST(LookupTable, CopyIsIndependentOfItsSource) {
  Table source;
  for (std::uint64_t k = 0; k < 200; ++k) source.insert(k, k + 1000);
  Table copy = source;
  EXPECT_EQ(copy.size(), 200u);
  for (std::uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(copy.erase(k));
  copy.insert_or_assign(150, 7);
  copy.insert(500, 8);
  // The source still holds exactly what it held.
  EXPECT_EQ(source.size(), 200u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    ASSERT_NE(source.find(k), nullptr);
    EXPECT_EQ(*source.find(k), k + 1000);
  }
  EXPECT_FALSE(source.contains(500));
  // And changes to the source do not reach the copy.
  source.erase(150);
  source.insert(600, 9);
  EXPECT_EQ(*copy.find(150), 7u);
  EXPECT_FALSE(copy.contains(600));
  EXPECT_EQ(copy.size(), 101u);
  // Assignment replaces the whole content.
  copy = source;
  EXPECT_EQ(copy.size(), 200u);
  EXPECT_FALSE(copy.contains(150));
  EXPECT_TRUE(copy.contains(600));
}

TEST(LookupTable, MoveLeavesTheSourceEmptyAndUsable) {
  Table source;
  for (std::uint64_t k = 0; k < 100; ++k) source.insert(k, k);
  Table moved = std::move(source);
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_EQ(*moved.find(42), 42u);
  EXPECT_EQ(source.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(source.contains(42));
  EXPECT_TRUE(source.insert(42, 1));
  Table target;
  target.insert(1, 1);
  target = std::move(moved);
  EXPECT_EQ(target.size(), 100u);
  EXPECT_FALSE(target.contains(100));
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(LookupTable, SetOfChainIds) {
  ds::LookupSet<decentnet::chain::TxId, decentnet::crypto::Hash256Hasher>
      seen;
  const auto id = decentnet::crypto::sha256("tx");
  EXPECT_TRUE(seen.insert(id));
  EXPECT_FALSE(seen.insert(id));
  EXPECT_TRUE(seen.contains(id));
  EXPECT_FALSE(seen.contains(decentnet::crypto::sha256("other")));
  EXPECT_TRUE(seen.erase(id));
  EXPECT_FALSE(seen.contains(id));
  EXPECT_EQ(seen.size(), 0u);
}
