// Crypto substrate tests: SHA-256 against FIPS/NIST vectors and known answers
// at the padding edges, the SHA-extension block compression against the
// portable one, HMAC-SHA256 against RFC 4231 vectors and key-length edges,
// Merkle proofs across tree sizes, and the simulation signature scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/buffer.hpp"
#include "crypto/hash.hpp"
#include "crypto/keys.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256_detail.hpp"

namespace dc = decentnet::crypto;

TEST(Sha256, NistVectorEmpty) {
  EXPECT_EQ(dc::sha256("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, NistVectorAbc) {
  EXPECT_EQ(dc::sha256("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, NistVectorTwoBlocks) {
  EXPECT_EQ(
      dc::sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  const std::string input(1000000, 'a');
  EXPECT_EQ(dc::sha256(input).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

namespace {

// Bytes (i * mul + add) mod 256 for i in [0, n): a fixed pattern for the
// known-answer tests below.
std::vector<std::uint8_t> pattern(std::size_t n, unsigned mul, unsigned add) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * mul + add) % 256);
  }
  return out;
}

}  // namespace

TEST(Sha256, PaddingEdgeKnownAnswers) {
  // Lengths where the padding changes shape: at 55 and 119 the 0x80 byte
  // and the 8-byte length still fit the last block, at 56, 63 and 120 they
  // spill into one more, and 64, 65 and 128 sit on or just past a block
  // boundary. 1,000 bytes take many whole blocks straight from the input.
  // Expected values are Python hashlib's.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879"},
      {55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
      {56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
      {63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
      {64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
      {65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
      {119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
      {120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"},
      {128, "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356"},
      {1000,
       "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179"},
  };
  for (const auto& [len, want] : cases) {
    EXPECT_EQ(dc::sha256(pattern(len, 31, 7)).hex(), want) << "length " << len;
  }
}

TEST(Sha256, DoubleHashDiffersFromSingle) {
  const auto once = dc::sha256("payload");
  const auto twice = dc::sha256d(dc::as_bytes("payload"));
  EXPECT_NE(once, twice);
  EXPECT_EQ(twice, dc::sha256(std::span<const std::uint8_t>(once.bytes)));
}

TEST(HmacSha256, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(dc::hmac_sha256(key, dc::as_bytes("Hi There")).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(dc::hmac_sha256(dc::as_bytes("Jefe"),
                            dc::as_bytes("what do ya want for nothing?"))
                .hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(dc::hmac_sha256(
                key, dc::as_bytes("Test Using Larger Than Block-Size Key - "
                                  "Hash Key First"))
                .hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeyLengthEdgeKnownAnswers) {
  // An empty key, a key of exactly one block (used as is) and one byte over
  // (hashed first). Expected values are Python hmac's.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "033a15e05358d09cb3899783741a7f472d5f2cba73dbd780776dd17e909d8a5b"},
      {64, "c59c31c59cabf77207b9d0145cf7f5dfbccc495f8178d3dfb1c9256fa0a1372d"},
      {65, "bebcf62cdd0365131ac9e6055c1ea7f67bf935455f7537e4ed9fd6d0211a1604"},
  };
  const std::vector<std::uint8_t> message = pattern(32, 31, 7);
  for (const auto& [key_len, want] : cases) {
    EXPECT_EQ(dc::hmac_sha256(pattern(key_len, 13, 5), message).hex(), want)
        << "key length " << key_len;
  }
}

TEST(Sha256, ShaExtensionsMatchPortableCompression) {
  if (!dc::detail::cpu_has_sha_extensions()) {
    GTEST_SKIP() << "CPU lacks the x86 SHA extensions; only the portable "
                    "compression runs here";
  }
#if defined(__x86_64__)
  // Random states and blocks, not only the initial state: the SHA path
  // reorders the state into lanes and back, and schedules the message in
  // four-word groups, so a slip in either shows on almost any input.
  std::mt19937_64 rng(20190707);
  for (int trial = 0; trial < 10000; ++trial) {
    std::uint32_t want[8] = {};
    for (auto& word : want) word = static_cast<std::uint32_t>(rng());
    std::uint32_t got[8] = {};
    std::copy(std::begin(want), std::end(want), std::begin(got));
    std::uint8_t block[64] = {};
    for (auto& byte : block) byte = static_cast<std::uint8_t>(rng());
    dc::detail::sha256_compress_portable(want, block, 1);
    dc::detail::sha256_compress_shani(got, block, 1);
    ASSERT_TRUE(std::equal(std::begin(want), std::end(want), std::begin(got)))
        << "trial " << trial;
  }
  // Several blocks in one call carry the state across blocks in registers.
  std::uint8_t blocks[3 * 64] = {};
  for (auto& byte : blocks) byte = static_cast<std::uint8_t>(rng());
  std::uint32_t want[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint32_t got[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  dc::detail::sha256_compress_portable(want, blocks, 3);
  dc::detail::sha256_compress_shani(got, blocks, 3);
  EXPECT_TRUE(std::equal(std::begin(want), std::end(want), std::begin(got)));
#endif
}

TEST(Hash256, ComparisonIsBigEndianNumeric) {
  dc::Hash256 small, big;
  small.bytes[31] = 1;
  big.bytes[0] = 1;
  EXPECT_LT(small, big);
  EXPECT_TRUE(dc::Hash256{}.is_zero());
  EXPECT_FALSE(small.is_zero());
}

TEST(Hash256, XorDistanceProperties) {
  const auto a = dc::sha256("a");
  const auto b = dc::sha256("b");
  EXPECT_TRUE(a.distance_to(a).is_zero());
  EXPECT_EQ(a.distance_to(b), b.distance_to(a));
}

TEST(Hash256, LeadingZeroBits) {
  dc::Hash256 h;
  EXPECT_EQ(h.leading_zero_bits(), 256);
  h.bytes[0] = 0x80;
  EXPECT_EQ(h.leading_zero_bits(), 0);
  h.bytes[0] = 0x01;
  EXPECT_EQ(h.leading_zero_bits(), 7);
  h.bytes[0] = 0;
  h.bytes[2] = 0x10;
  EXPECT_EQ(h.leading_zero_bits(), 16 + 3);
}

TEST(Hash256, BitAccessor) {
  dc::Hash256 h;
  h.bytes[0] = 0x80;
  EXPECT_TRUE(h.bit(0));
  EXPECT_FALSE(h.bit(1));
  h.bytes[1] = 0x01;
  EXPECT_TRUE(h.bit(15));
}

TEST(ByteWriter, DeterministicDigest) {
  dc::ByteWriter w1, w2;
  w1.str("hello").u64(42).u32(7).u8(1);
  w2.str("hello").u64(42).u32(7).u8(1);
  EXPECT_EQ(w1.sha256(), w2.sha256());
  dc::ByteWriter w3;
  w3.str("hello").u64(43).u32(7).u8(1);
  EXPECT_NE(w1.sha256(), w3.sha256());
}

TEST(Keys, SignVerifyRoundTrip) {
  auto& authority = dc::KeyAuthority::global();
  const dc::PrivateKey key = authority.issue(12345);
  const auto sig = key.sign("message");
  EXPECT_TRUE(authority.verify(key.public_key(), "message", sig));
  EXPECT_FALSE(authority.verify(key.public_key(), "other message", sig));
}

TEST(Keys, UnknownKeyFailsVerification) {
  const dc::PrivateKey unregistered = dc::PrivateKey::from_seed(999999999);
  const auto sig = unregistered.sign("m");
  // The authority never saw this key pair.
  EXPECT_FALSE(dc::KeyAuthority::global().verify(unregistered.public_key(),
                                                 "m", sig));
}

TEST(Keys, WrongKeyCannotForge) {
  auto& authority = dc::KeyAuthority::global();
  const dc::PrivateKey alice = authority.issue(111);
  const dc::PrivateKey mallory = authority.issue(222);
  const auto forged = mallory.sign("pay mallory");
  EXPECT_FALSE(authority.verify(alice.public_key(), "pay mallory", forged));
}

TEST(Keys, DeterministicFromSeed) {
  EXPECT_EQ(dc::PrivateKey::from_seed(7).public_key(),
            dc::PrivateKey::from_seed(7).public_key());
  EXPECT_NE(dc::PrivateKey::from_seed(7).public_key(),
            dc::PrivateKey::from_seed(8).public_key());
}

TEST(Keys, ConcurrentIssueAndVerify) {
  // Parallel sweep points share one authority: while one thread issues
  // wallet keys (rehashing the key map), another verifies.
  dc::KeyAuthority authority;
  constexpr std::uint64_t kKeys = 2000;
  auto issue_and_verify = [&authority](std::uint64_t first_seed) {
    bool ok = true;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      const dc::PrivateKey key = authority.issue(first_seed + i);
      ok &= authority.known(key.public_key());
      ok &= authority.verify(key.public_key(), "message", key.sign("message"));
    }
    return ok;
  };
  bool ok_a = false;
  bool ok_b = false;
  std::thread a([&] { ok_a = issue_and_verify(1'000'000); });
  std::thread b([&] { ok_b = issue_and_verify(2'000'000); });
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
  EXPECT_EQ(authority.size(), 2 * kKeys);
}

// --- Merkle trees, parameterized over leaf counts ---------------------------

class MerkleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizes, AllProofsVerify) {
  const std::size_t n = GetParam();
  std::vector<dc::Hash256> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(dc::sha256("leaf-" + std::to_string(i)));
  }
  dc::MerkleTree tree(leaves);
  EXPECT_EQ(tree.leaf_count(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto proof = tree.prove(i);
    EXPECT_TRUE(dc::MerkleTree::verify(leaves[i], i, proof, tree.root()))
        << "leaf " << i << " of " << n;
    // A different leaf must not verify with this proof.
    const auto wrong = dc::sha256("tampered");
    EXPECT_FALSE(dc::MerkleTree::verify(wrong, i, proof, tree.root()));
  }
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33,
                                           100));

TEST(Merkle, EmptyTreeHasZeroRoot) {
  dc::MerkleTree tree({});
  EXPECT_TRUE(tree.root().is_zero());
  EXPECT_TRUE(dc::MerkleTree::compute_root({}).is_zero());
}

TEST(Merkle, ComputeRootMatchesTree) {
  std::vector<dc::Hash256> leaves;
  for (int i = 0; i < 13; ++i) leaves.push_back(dc::sha256(std::to_string(i)));
  dc::MerkleTree tree(leaves);
  EXPECT_EQ(dc::MerkleTree::compute_root(leaves), tree.root());
}

TEST(Merkle, ProofWithWrongIndexFails) {
  std::vector<dc::Hash256> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(dc::sha256(std::to_string(i)));
  dc::MerkleTree tree(leaves);
  const auto proof = tree.prove(3);
  EXPECT_FALSE(dc::MerkleTree::verify(leaves[3], 4, proof, tree.root()));
}

TEST(Merkle, ProveOutOfRangeThrows) {
  dc::MerkleTree tree({dc::sha256("only")});
  EXPECT_THROW(tree.prove(1), std::out_of_range);
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  std::vector<dc::Hash256> leaves;
  for (int i = 0; i < 6; ++i) leaves.push_back(dc::sha256(std::to_string(i)));
  const auto root = dc::MerkleTree::compute_root(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i] = dc::sha256("mutated");
    EXPECT_NE(dc::MerkleTree::compute_root(mutated), root);
  }
}
