// Link-time crypto spans for perfbench_traced.
//
// CMakeLists.txt links this executable with `--wrap=<symbol>` for each crypto
// entry point, so every call another translation unit makes to, say,
// crypto::sha256 resolves to __wrap_<symbol> below, which counts the call,
// opens a kCrypto span and forwards to __real_<symbol> (the library's own
// definition). Calls inside sha256.cpp itself stay direct, so a sha256d or an
// HMAC counts as one entry call. The asm labels spell the Itanium-mangled
// names of the declarations in crypto/hash.hpp and crypto/keys.hpp.
#include <span>
#include <string_view>

#include "crypto/hash.hpp"
#include "crypto/keys.hpp"
#include "tracer.hpp"

namespace crypto = decentnet::crypto;
using Bytes = std::span<const std::uint8_t>;

#define PERFBENCH_SHA256 "_ZN9decentnet6crypto6sha256ESt4spanIKhLm18446744073709551615EE"
#define PERFBENCH_SHA256_SV \
  "_ZN9decentnet6crypto6sha256ESt17basic_string_viewIcSt11char_traitsIcEE"
#define PERFBENCH_SHA256D \
  "_ZN9decentnet6crypto7sha256dESt4spanIKhLm18446744073709551615EE"
#define PERFBENCH_HMAC \
  "_ZN9decentnet6crypto11hmac_sha256ESt4spanIKhLm18446744073709551615EES3_"
#define PERFBENCH_VERIFY                                                  \
  "_ZNK9decentnet6crypto12KeyAuthority6verifyERKNS0_7Hash256ESt4spanIKhL" \
  "m18446744073709551615EES4_"

crypto::Hash256 real_sha256(Bytes) __asm__("__real_" PERFBENCH_SHA256);
crypto::Hash256 wrap_sha256(Bytes) __asm__("__wrap_" PERFBENCH_SHA256);
crypto::Hash256 real_sha256_sv(std::string_view) __asm__(
    "__real_" PERFBENCH_SHA256_SV);
crypto::Hash256 wrap_sha256_sv(std::string_view) __asm__(
    "__wrap_" PERFBENCH_SHA256_SV);
crypto::Hash256 real_sha256d(Bytes) __asm__("__real_" PERFBENCH_SHA256D);
crypto::Hash256 wrap_sha256d(Bytes) __asm__("__wrap_" PERFBENCH_SHA256D);
crypto::Hash256 real_hmac(Bytes, Bytes) __asm__("__real_" PERFBENCH_HMAC);
crypto::Hash256 wrap_hmac(Bytes, Bytes) __asm__("__wrap_" PERFBENCH_HMAC);
// A const member function takes `this` as its first argument.
bool real_verify(const crypto::KeyAuthority*, const crypto::PublicKey&, Bytes,
                 const crypto::Signature&) __asm__("__real_" PERFBENCH_VERIFY);
bool wrap_verify(const crypto::KeyAuthority*, const crypto::PublicKey&, Bytes,
                 const crypto::Signature&) __asm__("__wrap_" PERFBENCH_VERIFY);

namespace {

using perfbench::CryptoCounts;
using perfbench::SpanKind;
using perfbench::SpanScope;
using perfbench::Tracer;

/// Count one entry call (plus `hashed` bytes for the sha256 family) and run
/// `call` inside a crypto span, when a traced window is open.
template <typename Call>
auto counted(std::uint64_t CryptoCounts::*calls, std::uint64_t hashed,
             Call&& call) {
  Tracer* const tracer = Tracer::active();
  if (tracer == nullptr) return call();
  CryptoCounts& counts = tracer->crypto();
  ++(counts.*calls);
  counts.sha256_bytes += hashed;
  const SpanScope span(SpanKind::kCrypto);
  return call();
}

}  // namespace

crypto::Hash256 wrap_sha256(Bytes data) {
  return counted(&CryptoCounts::sha256_calls, data.size(),
                 [&] { return real_sha256(data); });
}

crypto::Hash256 wrap_sha256_sv(std::string_view data) {
  return counted(&CryptoCounts::sha256_calls, data.size(),
                 [&] { return real_sha256_sv(data); });
}

crypto::Hash256 wrap_sha256d(Bytes data) {
  return counted(&CryptoCounts::sha256_calls, data.size(),
                 [&] { return real_sha256d(data); });
}

crypto::Hash256 wrap_hmac(Bytes key, Bytes message) {
  return counted(&CryptoCounts::hmac_calls, 0,
                 [&] { return real_hmac(key, message); });
}

bool wrap_verify(const crypto::KeyAuthority* self, const crypto::PublicKey& pub,
                 Bytes message, const crypto::Signature& sig) {
  return counted(&CryptoCounts::verify_calls, 0,
                 [&] { return real_verify(self, pub, message, sig); });
}

namespace perfbench {
bool crypto_spans_linked() { return true; }
}  // namespace perfbench
