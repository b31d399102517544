// SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104).
//
// A real hash function, not a toy: the blockchain's integrity checks, Merkle
// proofs and identity derivations all go through here, and the unit tests
// validate against the NIST test vectors.
//
// The block compression has two implementations (sha256_detail.hpp):
//   - sha256_compress_portable, plain C++ for every target. It is the
//     reference: the tests hold the other one to it bit for bit.
//   - sha256_compress_shani (x86-64 only), on the SHA extensions
//     (sha256rnds2, sha256msg1, sha256msg2). A function attribute enables
//     those instructions for it alone, so the build flags stay generic.
// The first hash picks one: the SHA extensions when CPUID reports SHA,
// SSE4.1 and SSSE3, the portable code otherwise. Every later hash reuses the
// choice. Both give the same bytes, so the choice never changes a result.
#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/hash.hpp"
#include "crypto/sha256_detail.hpp"

namespace decentnet::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

/// The compression this CPU runs, chosen on first use. It is a function-local
/// static, so a hash taken from another translation unit's static initializer
/// still finds it set, and its initialization is thread-safe.
CompressFn compress_fn() {
  static const CompressFn fn = [] {
#if defined(__x86_64__)
    if (detail::cpu_has_sha_extensions()) return detail::sha256_compress_shani;
#endif
    return detail::sha256_compress_portable;
  }();
  return fn;
}

/// SHA-256 of `first_block` (64 bytes, or nothing when null) followed by
/// `data`. HMAC passes its padded key as the first block. Whole blocks are
/// compressed where they lie; only the tail is copied, into the buffer that
/// takes the padding: 0x80, zeros, then the message length in bits as a
/// big-endian u64 that ends a block.
Hash256 sha256_after(const std::uint8_t* first_block,
                     std::span<const std::uint8_t> data) {
  const CompressFn compress = compress_fn();
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::uint64_t total = data.size();
  if (first_block != nullptr) {
    compress(h, first_block, 1);
    total += 64;
  }
  const std::size_t blocks = data.size() / 64;
  if (blocks > 0) compress(h, data.data(), blocks);
  const std::size_t tail = data.size() % 64;
  // The padding needs a second block when fewer than 9 bytes are free.
  const std::size_t end = tail < 56 ? 64 : 128;
  std::uint8_t buf[128] = {};
  std::copy_n(data.data() + 64 * blocks, tail, buf);
  buf[tail] = 0x80;
  const std::uint64_t bit_len = total * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    buf[end - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(h, buf, end / 64);
  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(h[i] >> 24);
    out.bytes[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(h[i] >> 16);
    out.bytes[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(h[i] >> 8);
    out.bytes[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(h[i]);
  }
  return out;
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[4 * i]} << 24) |
             (std::uint32_t{data[4 * i + 1]} << 16) |
             (std::uint32_t{data[4 * i + 2]} << 8) |
             std::uint32_t{data[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3_sse41 = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3_sse41 && (ebx & bit_SHA) != 0;
}

__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  const auto load = [](const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  };
  // Swaps the bytes of each 32-bit lane: message words are big-endian.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // sha256rnds2 holds the state as ABEF and CDGH, A and C in the top lane
  // (lanes are named high to low below).
  const __m128i cdab = _mm_shuffle_epi32(load(state), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(load(state + 4), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[j % 4] holds message words W[4j .. 4j+3] while group j runs.
    __m128i w[4] = {_mm_shuffle_epi8(load(data), byte_swap),
                    _mm_shuffle_epi8(load(data + 16), byte_swap),
                    _mm_shuffle_epi8(load(data + 32), byte_swap),
                    _mm_shuffle_epi8(load(data + 48), byte_swap)};
    // Group j runs rounds 4j .. 4j+3: each sha256rnds2 does two rounds on
    // the low two lanes of W+K. Unrolled, every w index is a constant and
    // w stays in registers.
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      const __m128i wk = _mm_add_epi32(w[j % 4], load(kK + 4 * j));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (j >= 3 && j < 15) {
        // Finish W[4j+4 .. 4j+7]: msg1 started them two groups ago, add
        // W[t-7], then msg2 adds sigma1(W[t-2]).
        __m128i& next = w[(j + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[j % 4], w[(j + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[j % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (j >= 1 && j < 13) {
        // Start W[4j+12 .. 4j+15] = W[t-16] + sigma0(W[t-15]) + ...
        w[(j + 3) % 4] = _mm_sha256msg1_epu32(w[(j + 3) % 4], w[j % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

#else

bool cpu_has_sha_extensions() { return false; }

#endif

}  // namespace detail

Hash256 sha256(std::span<const std::uint8_t> data) {
  return sha256_after(nullptr, data);
}

Hash256 sha256(std::string_view data) { return sha256(as_bytes(data)); }

Hash256 sha256d(std::span<const std::uint8_t> data) {
  const Hash256 first = sha256(data);
  return sha256(std::span<const std::uint8_t>(first.bytes));
}

Hash256 hmac_sha256(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> message) {
  std::uint8_t key_block[64] = {};
  if (key.size() > 64) {
    const Hash256 kh = sha256(key);
    std::memcpy(key_block, kh.bytes.data(), 32);
  } else {
    std::copy(key.begin(), key.end(), key_block);
  }
  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  const Hash256 inner = sha256_after(ipad, message);
  return sha256_after(opad, inner.bytes);
}

std::string Hash256::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (auto b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace decentnet::crypto
