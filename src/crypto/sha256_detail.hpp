// SHA-256 block compression, the one step sha256.cpp implements twice.
//
// Internal to the crypto library: callers hash through crypto/hash.hpp. The
// compressions are declared here so tests can run both on the same input.
#pragma once

#include <cstddef>
#include <cstdint>

namespace decentnet::crypto::detail {

/// Runs the SHA-256 compression function over `blocks` consecutive 64-byte
/// blocks at `data`, updating `state` (H0..H7). The portable version is the
/// reference; every other one must match it bit for bit.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks);

#if defined(__x86_64__)
/// The same compression on the x86 SHA extensions. Call it only when
/// cpu_has_sha_extensions() is true.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t blocks);
#endif

/// True when CPUID reports SHA, SSE4.1 and SSSE3, which
/// sha256_compress_shani needs. Always false on other targets.
bool cpu_has_sha_extensions();

}  // namespace decentnet::crypto::detail
