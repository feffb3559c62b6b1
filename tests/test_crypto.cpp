// Unit tests: SHA-256 (FIPS vectors and padding boundaries), SipHash-2-4,
// structured hashing, the simulated PKI and the (k, n)-threshold signature
// scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "valcon/crypto/hash.hpp"
#include "valcon/crypto/sha256.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/crypto/siphash.hpp"

using namespace valcon;
using namespace valcon::crypto;

namespace {

std::string hex(const Sha256::Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const auto b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0x0f]);
  }
  return out;
}

}  // namespace

TEST(Sha256, FipsVectorEmpty) {
  EXPECT_EQ(hex(Sha256::hash("", 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, FipsVectorAbc) {
  EXPECT_EQ(hex(Sha256::hash("abc", 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, FipsVectorTwoBlocks) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(hex(Sha256::hash(msg.data(), msg.size())),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk.data(), chunk.size());
  EXPECT_EQ(hex(ctx.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "partially synchronous byzantine consensus";
  Sha256 ctx;
  for (const char c : msg) ctx.update(&c, 1);
  EXPECT_EQ(ctx.digest(), Sha256::hash(msg.data(), msg.size()));
}

// Messages that end just before, on and just after the points where the
// padding needs a second block (56 bytes) or the input fills a block (64).
// Digests from Python's hashlib.sha256(b"a" * L).
TEST(Sha256, PaddingBoundaries) {
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [len, want] : cases) {
    const std::string msg(len, 'a');
    EXPECT_EQ(hex(Sha256::hash(msg.data(), msg.size())), want) << len;
  }
}

TEST(Sha256, ChunkedUpdatesMatchOneShot) {
  std::vector<std::uint8_t> msg(200);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const Sha256::Digest want = Sha256::hash(msg.data(), len);
    for (const std::size_t chunk : {1, 63, 64, 65}) {
      Sha256 ctx;
      for (std::size_t at = 0; at < len; at += chunk) {
        ctx.update(msg.data() + at, std::min(chunk, len - at));
      }
      EXPECT_EQ(ctx.digest(), want) << "len " << len << " chunk " << chunk;
    }
  }
}

TEST(Sha256, CountersTallyBlocksAndDigests) {
  const auto cost = [](std::size_t len) {
    const std::string msg(len, 'x');
    const HashCounters before = hash_counters();
    static_cast<void>(Sha256::hash(msg.data(), msg.size()));
    return std::pair{hash_counters().blocks - before.blocks,
                     hash_counters().digests - before.digests};
  };
  // The 0x80 byte and the 8-byte length fit behind at most 55 bytes.
  EXPECT_EQ(cost(0), std::pair(std::uint64_t{1}, std::uint64_t{1}));
  EXPECT_EQ(cost(55), std::pair(std::uint64_t{1}, std::uint64_t{1}));
  EXPECT_EQ(cost(56), std::pair(std::uint64_t{2}, std::uint64_t{1}));
  EXPECT_EQ(cost(64), std::pair(std::uint64_t{2}, std::uint64_t{1}));
  EXPECT_EQ(cost(119), std::pair(std::uint64_t{2}, std::uint64_t{1}));
  EXPECT_EQ(cost(120), std::pair(std::uint64_t{3}, std::uint64_t{1}));
}

std::vector<std::uint8_t> byte_range(std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = static_cast<std::uint8_t>(i);
  return out;
}

// The key 00 01 .. 0f, read as two little-endian words.
constexpr std::uint64_t kSipK0 = 0x0706050403020100;
constexpr std::uint64_t kSipK1 = 0x0f0e0d0c0b0a0908;

TEST(SipHash, PaperAppendixVector) {
  // SipHash paper, Appendix A: the 15-byte message 00 01 .. 0e.
  EXPECT_EQ(siphash24(kSipK0, kSipK1, byte_range(15)), 0xa129ca6149be45e5u);
}

TEST(SipHash, ThirtyTwoByteVector) {
  // The MAC input length: a 32-byte digest, here 00 01 .. 1f.
  EXPECT_EQ(siphash24(kSipK0, kSipK1, byte_range(32)), 0x7127512f72f27cceu);
}

TEST(Hasher, DomainSeparation) {
  const Hash a = Hasher("domain-a").add(std::int64_t{42}).finish();
  const Hash b = Hasher("domain-b").add(std::int64_t{42}).finish();
  EXPECT_NE(a, b);
}

TEST(Hasher, LengthPrefixingPreventsConcatenationCollisions) {
  const Hash a = Hasher("d").add("ab").add("c").finish();
  const Hash b = Hasher("d").add("a").add("bc").finish();
  EXPECT_NE(a, b);
}

TEST(Hasher, Deterministic) {
  const auto make = [] {
    return Hasher("d").add(std::int64_t{-7}).add("x").finish();
  };
  EXPECT_EQ(make(), make());
}

TEST(Hash, HexPrefix) {
  Hash h;
  h.bytes[0] = 0xab;
  h.bytes[1] = 0xcd;
  EXPECT_EQ(h.hex_prefix(4), "abcd");
}

TEST(Signatures, SignVerifyRoundtrip) {
  const KeyRegistry keys(4, 3, 99);
  const Hash digest = Hasher("msg").add("hello").finish();
  const Signature sig = keys.signer_for(2).sign(digest);
  EXPECT_EQ(sig.signer, 2);
  EXPECT_TRUE(keys.verify(sig));
}

TEST(Signatures, TamperedMacRejected) {
  const KeyRegistry keys(4, 3, 99);
  Signature sig = keys.signer_for(1).sign(Hasher("m").add("x").finish());
  sig.mac ^= 1;
  EXPECT_FALSE(keys.verify(sig));
}

TEST(Signatures, WrongSignerClaimRejected) {
  const KeyRegistry keys(4, 3, 99);
  Signature sig = keys.signer_for(1).sign(Hasher("m").add("x").finish());
  sig.signer = 2;  // forged identity: mac no longer matches
  EXPECT_FALSE(keys.verify(sig));
}

TEST(Signatures, DifferentSeedsDifferentKeys) {
  const KeyRegistry keys_a(4, 3, 1);
  const KeyRegistry keys_b(4, 3, 2);
  const Hash digest = Hasher("m").add("x").finish();
  const Signature sig = keys_a.signer_for(0).sign(digest);
  EXPECT_FALSE(keys_b.verify(sig));
}

TEST(Threshold, CombineRequiresKDistinctSigners) {
  const KeyRegistry keys(4, 3, 7);
  const Hash digest = Hasher("m").add("t").finish();
  std::vector<Signature> partials;
  partials.push_back(keys.signer_for(0).sign(digest));
  partials.push_back(keys.signer_for(1).sign(digest));
  EXPECT_FALSE(keys.combine(partials).has_value());  // only 2 < k = 3
  partials.push_back(keys.signer_for(0).sign(digest));
  EXPECT_FALSE(keys.combine(partials).has_value());  // duplicate signer
  partials.pop_back();
  partials.push_back(keys.signer_for(2).sign(digest));
  const auto tsig = keys.combine(partials);
  ASSERT_TRUE(tsig.has_value());
  EXPECT_TRUE(keys.verify(*tsig));
  EXPECT_EQ(tsig->digest, digest);
}

TEST(Threshold, MixedDigestsRejected) {
  const KeyRegistry keys(4, 3, 7);
  const Hash d1 = Hasher("m").add("a").finish();
  const Hash d2 = Hasher("m").add("b").finish();
  std::vector<Signature> partials = {keys.signer_for(0).sign(d1),
                                     keys.signer_for(1).sign(d1),
                                     keys.signer_for(2).sign(d2)};
  EXPECT_FALSE(keys.combine(partials).has_value());
}

TEST(Threshold, InvalidPartialRejected) {
  const KeyRegistry keys(4, 3, 7);
  const Hash digest = Hasher("m").add("t").finish();
  std::vector<Signature> partials = {keys.signer_for(0).sign(digest),
                                     keys.signer_for(1).sign(digest),
                                     keys.signer_for(2).sign(digest)};
  partials[1].mac ^= 1;
  EXPECT_FALSE(keys.combine(partials).has_value());
}

TEST(Threshold, ForgedThresholdSigRejected) {
  const KeyRegistry keys(4, 3, 7);
  ThresholdSignature forged;
  forged.digest = Hasher("m").add("t").finish();
  forged.mac = 0xdeadbeef;
  EXPECT_FALSE(keys.verify(forged));
}

TEST(KeyRegistry, RejectsSignerOutsideTheRegistry) {
  const KeyRegistry keys(4, 3, 7);
  EXPECT_THROW(static_cast<void>(keys.signer_for(-1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(keys.signer_for(4)), std::out_of_range);
  EXPECT_NO_THROW(static_cast<void>(keys.signer_for(3)));
}

TEST(KeyRegistry, RejectsEmptySystem) {
  EXPECT_THROW(KeyRegistry(0, 1, 7), std::invalid_argument);
  EXPECT_THROW(KeyRegistry(-3, 1, 7), std::invalid_argument);
}

TEST(KeyRegistry, RejectsThresholdOutsideOneToN) {
  EXPECT_THROW(KeyRegistry(4, 0, 7), std::invalid_argument);
  EXPECT_THROW(KeyRegistry(4, -1, 7), std::invalid_argument);
  EXPECT_THROW(KeyRegistry(4, 5, 7), std::invalid_argument);
  // With k >= 1 an empty partial set is just too few partials.
  const KeyRegistry keys(1, 1, 7);
  EXPECT_FALSE(keys.combine({}).has_value());
}

// Secrets are derived on first use, and registries are shared across sweep
// worker threads. Eight threads race through every first touch of one
// fresh registry; each must sign the same tags, and those tags must match
// a registry that derived its secrets on one thread.
TEST(KeyRegistry, ConcurrentFirstTouchesAgree) {
  constexpr int kN = 64;
  constexpr int kThreads = 8;
  const KeyRegistry shared(kN, 43, 5);
  ASSERT_EQ(shared.key_derivations(), 0u);
  const Hash digest = Hasher("m").add("race").finish();

  std::vector<std::vector<std::uint64_t>> macs(
      kThreads, std::vector<std::uint64_t>(kN));
  std::vector<int> verified(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::vector<std::uint64_t>& mine = macs[static_cast<std::size_t>(w)];
      // Each thread starts at a different id, so it derives some secrets
      // itself and reads the rest as other threads publish them.
      for (int i = 0; i < kN; ++i) {
        const ProcessId id = (i + w * kN / kThreads) % kN;
        const Signature sig = shared.signer_for(id).sign(digest);
        mine[static_cast<std::size_t>(id)] = sig.mac;
        if (shared.verify(sig)) ++verified[static_cast<std::size_t>(w)];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const KeyRegistry reference(kN, 43, 5);
  std::vector<std::uint64_t> expected;
  for (ProcessId id = 0; id < kN; ++id) {
    expected.push_back(reference.signer_for(id).sign(digest).mac);
  }
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(macs[static_cast<std::size_t>(w)], expected) << "thread " << w;
    EXPECT_EQ(verified[static_cast<std::size_t>(w)], kN) << "thread " << w;
  }
  EXPECT_GE(shared.key_derivations(), static_cast<std::uint64_t>(kN));
}
