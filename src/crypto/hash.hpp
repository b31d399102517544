// 256-bit hash value type shared by the DHT (Kademlia XOR metric), the
// blockchain (block/tx ids, Merkle roots) and the membership service.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace decentnet::crypto {

/// A 256-bit digest. Comparisons treat the value as a big-endian unsigned
/// integer, which is what both Kademlia distances and PoW targets need.
struct Hash256 {
  std::array<std::uint8_t, 32> bytes{};

  auto operator<=>(const Hash256&) const = default;

  bool is_zero() const {
    for (auto b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  /// XOR distance (Kademlia metric).
  Hash256 distance_to(const Hash256& other) const {
    Hash256 d;
    for (std::size_t i = 0; i < 32; ++i) d.bytes[i] = bytes[i] ^ other.bytes[i];
    return d;
  }

  /// A 256-bit value as four big-endian 64-bit words, most significant
  /// first: comparing two Words orders like comparing the Hash256 values.
  using Words = std::array<std::uint64_t, 4>;

  Words words() const {
    Words w{};
    for (std::size_t i = 0; i < 4; ++i) {
      // Spelled out so the compiler emits one load and a byte swap.
      const std::uint8_t* p = bytes.data() + 8 * i;
      w[i] = (std::uint64_t{p[0]} << 56) | (std::uint64_t{p[1]} << 48) |
             (std::uint64_t{p[2]} << 40) | (std::uint64_t{p[3]} << 32) |
             (std::uint64_t{p[4]} << 24) | (std::uint64_t{p[5]} << 16) |
             (std::uint64_t{p[6]} << 8) | std::uint64_t{p[7]};
    }
    return w;
  }

  /// `distance_to(other).words()`, the form the Kademlia routing table
  /// compares: four word compares instead of a 32-byte memcmp.
  Words distance_words(const Hash256& other) const {
    const Words a = words();
    const Words b = other.words();
    return {a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]};
  }

  /// Index of the highest set bit of `w` (0 = most significant), or 256 if
  /// zero. Kademlia's bucket for a peer is 255 minus this value for
  /// `distance_words(peer)`.
  static int leading_zero_bits(const Words& w) {
    for (std::size_t i = 0; i < 4; ++i) {
      if (w[i] != 0) return static_cast<int>(64 * i) + std::countl_zero(w[i]);
    }
    return 256;
  }

  int leading_zero_bits() const { return leading_zero_bits(words()); }

  /// Bit at position `i` (0 = most significant).
  bool bit(int i) const {
    return (bytes[static_cast<std::size_t>(i / 8)] >> (7 - i % 8)) & 1;
  }

  /// First 8 bytes as a big-endian integer — handy as a compact map key or a
  /// human-readable prefix. Not a substitute for full equality.
  std::uint64_t prefix64() const { return words()[0]; }

  std::string hex() const;

  /// Hash with every byte 0xFF (the maximum value / easiest PoW target).
  static Hash256 max_value() {
    Hash256 h;
    h.bytes.fill(0xFF);
    return h;
  }
};

struct Hash256Hasher {
  std::size_t operator()(const Hash256& h) const {
    std::uint64_t v;
    std::memcpy(&v, h.bytes.data(), sizeof v);
    return static_cast<std::size_t>(v);
  }
};

/// SHA-256 of arbitrary bytes (FIPS 180-4, implemented in sha256.cpp).
Hash256 sha256(std::span<const std::uint8_t> data);
Hash256 sha256(std::string_view data);
/// Double SHA-256 (Bitcoin-style block/tx ids).
Hash256 sha256d(std::span<const std::uint8_t> data);

/// HMAC-SHA256 (RFC 2104); backs the simulation signature scheme.
Hash256 hmac_sha256(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> message);

inline std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace decentnet::crypto
