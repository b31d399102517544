// Open-addressing hash table for state that is only ever looked up.
//
// LookupTable<K, V, Hash> stores keys and values in one flat slot array with
// linear probing, so a find costs one hash, a short scan of a byte array of
// tags, and usually one key compare, with no per-entry allocation. It has
// deliberately no iteration API (no begin/end, no visitor): its slot order
// is a function of the hash and the insert/erase history, so a result that
// could depend on it would tie simulation output to this table's layout.
// State whose order reaches a result stays in a container with a defined or
// pinned order.
//
// Layout: one tag byte per slot (0 = empty, otherwise 0x80 | 7 hash bits)
// beside the slot array. The home slot is the high half of the 128-bit
// product of the mixed hash and the capacity ("multiply-high" indexing),
// which works for any capacity, so the table grows in 1.5x steps instead of
// doubling and a growing table stays between 7/12 and 7/8 full. Erase shifts
// the rest of the probe chain back instead of leaving tombstones, so a table
// that erases as often as it inserts (a UTXO set) never degrades.
//
// Keys and values must be trivially copyable (ids, outpoints, amounts):
// slots are copied freely on growth and backward shift, and an empty slot
// may hold a stale copy. A set is the same table with `NoValue`, which
// takes no space in a slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace decentnet::sim {

/// Value type of a LookupTable used as a set.
struct NoValue {};

template <class K, class V, class Hash>
class LookupTable {
  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_copyable_v<V>,
                "LookupTable holds plain data: slots are copied freely");

 public:
  LookupTable() = default;
  LookupTable(const LookupTable&) = default;
  LookupTable& operator=(const LookupTable&) = default;
  // A moved-from table is empty (a stale size over no slots would probe out
  // of bounds).
  LookupTable(LookupTable&& other) noexcept
      : tags_(std::exchange(other.tags_, {})),
        slots_(std::exchange(other.slots_, {})),
        size_(std::exchange(other.size_, 0)) {}
  LookupTable& operator=(LookupTable&& other) noexcept {
    tags_ = std::exchange(other.tags_, {});
    slots_ = std::exchange(other.slots_, {});
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  std::size_t size() const { return size_; }

  /// The value stored under `key`, or null. The pointer is valid until the
  /// table next changes.
  const V* find(const K& key) const {
    if (size_ == 0) return nullptr;
    const Probe p = probe(key, hash_of(key));
    return p.found ? &slots_[p.index].value : nullptr;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  /// Insert `key` -> `value` unless `key` is present (which keeps its
  /// value). Returns whether it inserted.
  bool insert(const K& key, const V& value = V{}) {
    const Probe p = claim(key);
    if (!p.found) slots_[p.index].value = value;
    return !p.found;
  }

  /// Insert `key` -> `value`, or overwrite the value of a present `key`.
  void insert_or_assign(const K& key, const V& value) {
    slots_[claim(key).index].value = value;
  }

  /// Make room for `n` entries in total, so that inserting up to that many
  /// allocates and rehashes at most once.
  void reserve(std::size_t n) {
    std::size_t capacity = tags_.size();
    while (n * 8 > capacity * 7) capacity = next_capacity(capacity);
    if (capacity != tags_.size()) rehash(capacity);
  }

  /// Remove `key`; returns whether it was present.
  bool erase(const K& key) {
    if (size_ == 0) return false;
    const Probe p = probe(key, hash_of(key));
    if (!p.found) return false;
    // Backward shift: walk the rest of the chain and move each entry whose
    // probe path crosses the hole into it, so no lookup ever needs to step
    // over a deleted slot.
    std::size_t hole = p.index;
    for (std::size_t j = next(hole); tags_[j] != kEmpty; j = next(j)) {
      const std::size_t home = home_of(hash_of(slots_[j].key));
      if (distance(home, j) >= distance(hole, j)) {
        tags_[hole] = tags_[j];
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    tags_[hole] = kEmpty;
    --size_;
    return true;
  }

 private:
  struct Slot {
    K key;
    [[no_unique_address]] V value;
  };
  struct Probe {
    std::size_t index;  // the key's slot if found, else the empty slot
    bool found;
  };

  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::size_t kMinCapacity = 16;

  static std::uint64_t hash_of(const K& key) {
    // Multiply-shift mixing: the project hashers return raw key bytes (or
    // an xor of them), and the home slot is taken from the product's high
    // bits, which depend on every bit of the hash.
    return static_cast<std::uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ull;
  }
  static std::uint8_t tag_of(std::uint64_t h) {
    // Middle bits: independent of the high bits that pick the home slot.
    return static_cast<std::uint8_t>(0x80 | ((h >> 32) & 0x7F));
  }
  std::size_t home_of(std::uint64_t h) const {
    __extension__ using U128 = unsigned __int128;
    return static_cast<std::size_t>(
        (static_cast<U128>(h) * tags_.size()) >> 64);
  }
  std::size_t next(std::size_t i) const {
    return i + 1 == tags_.size() ? 0 : i + 1;
  }
  /// Forward distance from slot `from` to slot `to`, wrapping at the end.
  std::size_t distance(std::size_t from, std::size_t to) const {
    return to >= from ? to - from : to + tags_.size() - from;
  }

  /// Requires a non-empty slot array; it always holds an empty slot, since
  /// the table never fills past 7/8.
  Probe probe(const K& key, std::uint64_t h) const {
    const std::uint8_t tag = tag_of(h);
    for (std::size_t i = home_of(h);; i = next(i)) {
      if (tags_[i] == kEmpty) return {i, false};
      if (tags_[i] == tag && slots_[i].key == key) return {i, true};
    }
  }

  static std::size_t next_capacity(std::size_t capacity) {
    return capacity == 0 ? kMinCapacity : capacity + capacity / 2;
  }

  /// `key`'s slot, and whether it was already there. An absent key gets a
  /// slot (growing first if it would pass 7/8 load) holding it and a stale
  /// value for the caller to set.
  Probe claim(const K& key) {
    const std::uint64_t h = hash_of(key);
    Probe p{0, false};
    if (!tags_.empty()) {
      p = probe(key, h);
      if (p.found) return p;
    }
    if ((size_ + 1) * 8 > tags_.size() * 7) {
      rehash(next_capacity(tags_.size()));
      p = probe(key, h);
    }
    tags_[p.index] = tag_of(h);
    slots_[p.index].key = key;
    ++size_;
    return p;
  }

  void rehash(std::size_t capacity) {
    LookupTable bigger;
    bigger.tags_.assign(capacity, kEmpty);
    bigger.slots_.resize(capacity);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] == kEmpty) continue;
      std::size_t j = bigger.home_of(hash_of(slots_[i].key));
      while (bigger.tags_[j] != kEmpty) j = bigger.next(j);
      bigger.tags_[j] = tags_[i];
      bigger.slots_[j] = slots_[i];
    }
    bigger.size_ = size_;
    *this = std::move(bigger);
  }

  std::vector<std::uint8_t> tags_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// A LookupTable that stores keys only.
template <class K, class Hash>
using LookupSet = LookupTable<K, NoValue, Hash>;

}  // namespace decentnet::sim
