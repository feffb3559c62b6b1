// Simulated public-key infrastructure (PKI) and (k,n)-threshold signatures.
//
// The paper assumes a PKI in which faulty processes cannot forge signatures
// of correct processes (Section 3.1), and Quad / vector dissemination use a
// (n-t, n)-threshold signature scheme (Appendix B.3). Real asymmetric
// cryptography is irrelevant to any claim in the paper, so we substitute a
// registry-backed MAC construction over the 32-byte SHA-256 digest d:
//
//   sig(i, d)   = SipHash-2-4 keyed (secret_i, D_sig)         -- per process
//   tsig(d)     = SipHash-2-4 keyed (root_secret, D_tsig ^ k)  -- combine()
//   agg(S, d)   = sum over i in S of sig(i, d)  (mod 2^64)
//
// D_sig and D_tsig are fixed domain constants; each secret is derived
// once, with SHA-256, from (seed, id) or from the seed alone.
//
// Why a 64-bit keyed PRF is enough: a tag only has to be unguessable to
// code that does not hold the key, and no code outside the registry ever
// holds one. Secrets never leave the registry; processes interact through
// a Signer handle bound to their own identity, and only the registry can
// make one, so a Byzantine process implemented in this codebase is
// structurally unable to sign for anyone else. Tags are 64 bits, so a
// blind guess passes with probability 2^-64. SipHash-2-4 is a PRF built
// for short inputs, and one pass over the digest costs far less than a
// SHA-256 compression. No outcome byte depends on tag values: the six
// tests/golden/ digests, pinned under a truncated SHA-256 MAC, hold
// unchanged under SipHash.
//
// combine() refuses to emit a threshold signature unless presented with k
// valid partial signatures from k distinct signers, mirroring the real
// scheme's guarantee.
//
// The aggregatable scheme (VoterBitset + AggregateSignature) is the second
// backend: aggregate() folds any set of same-digest partials into one
// 64-bit aggregate MAC by modular addition — a pure function of the
// partials, mirroring BLS aggregation — and verify_aggregate() recomputes
// the expected sum over exactly the processes named by the bitset, so an
// inflated bitset or a tampered aggregate fails with one check instead of
// one check per vote. Quorum-certificate payloads (core/quorum.hpp) carry
// a (bitset, aggregate) pair where the per-vote scheme would carry a
// vector of Signatures.
//
// Both Signature and ThresholdSignature count as one "word" in communication
// accounting, matching the paper's convention (footnote 4); an
// AggregateSignature is one word plus the bitset's ceil(n/64) words.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "valcon/common.hpp"
#include "valcon/crypto/hash.hpp"

namespace valcon::crypto {

/// A digital signature by `signer` over `digest`.
struct Signature {
  ProcessId signer = -1;
  Hash digest;
  std::uint64_t mac = 0;

  bool operator==(const Signature&) const = default;
};

/// A combined (k, n)-threshold signature over `digest`.
struct ThresholdSignature {
  Hash digest;
  std::uint64_t mac = 0;

  bool operator==(const ThresholdSignature&) const = default;
};

/// Dense voter set: bit i is process i, packed into ceil(n/64) uint64
/// words. Certificates carry one for aggregate verification, and the
/// protocol layer keeps its vote tallies in them. The capacity n travels
/// with the bitset so a verifier can reject a certificate whose voter
/// universe does not match its registry (a truncated or widened bitset is
/// a forgery, not a format variant).
///
/// Up to two words (n <= 128) live inside the object, so building
/// and filling a small set never touches the heap. The set-bit count is
/// kept on every insert, so count() is O(1).
class VoterBitset {
 public:
  VoterBitset() = default;
  /// Bitset over voter ids [0, n). Throws std::invalid_argument for n < 1.
  explicit VoterBitset(int n);

  /// The voter universe size the bitset was built for (0 when default-made).
  [[nodiscard]] int capacity() const { return n_; }

  /// Sets bit `id`. Throws std::out_of_range outside [0, capacity()).
  void set(ProcessId id) { static_cast<void>(insert(id)); }

  /// Sets bit `id` and returns true iff it was clear. Throws
  /// std::out_of_range outside [0, capacity()).
  bool insert(ProcessId id) {
    if (id < 0 || id >= n_) throw_out_of_range();
    std::uint64_t& word = data()[static_cast<std::size_t>(id) / 64];
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<std::size_t>(id) % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++count_;
    return true;
  }

  /// Tests bit `id`; ids outside [0, capacity()) read as false.
  [[nodiscard]] bool test(ProcessId id) const {
    if (id < 0 || id >= n_) return false;
    return ((data()[static_cast<std::size_t>(id) / 64] >>
             (static_cast<std::size_t>(id) % 64)) &
            1) != 0;
  }

  /// Number of set bits.
  [[nodiscard]] int count() const { return count_; }

  /// The packed words, for wire-size accounting (one word each).
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return {data(), word_count()};
  }

  bool operator==(const VoterBitset&) const = default;

 private:
  static constexpr std::size_t kInlineWords = 2;

  [[nodiscard]] std::size_t word_count() const {
    return (static_cast<std::size_t>(n_) + 63) / 64;
  }
  [[nodiscard]] bool spilled() const { return !heap_.empty(); }
  [[nodiscard]] std::uint64_t* data() {
    return spilled() ? heap_.data() : inline_.data();
  }
  [[nodiscard]] const std::uint64_t* data() const {
    return spilled() ? heap_.data() : inline_.data();
  }
  [[noreturn]] static void throw_out_of_range();

  int n_ = 0;
  int count_ = 0;
  std::array<std::uint64_t, kInlineWords> inline_{};
  std::vector<std::uint64_t> heap_;  // the words when n > 64 * kInlineWords
};

/// One aggregated signature over `digest` by the processes named in a
/// companion VoterBitset. Valid only as a (bitset, aggregate) pair.
struct AggregateSignature {
  Hash digest;
  std::uint64_t mac = 0;

  bool operator==(const AggregateSignature&) const = default;
};

/// Folds partial signatures over one digest into an aggregate. Returns
/// nullopt for an empty input, mixed digests, or a duplicate signer —
/// aggregation never repairs a malformed vote set. The partials are NOT
/// verified here (aggregation is key-free, like BLS point addition);
/// soundness comes from verify_aggregate recomputing the sum under the
/// registry's keys.
[[nodiscard]] std::optional<AggregateSignature> aggregate(
    const std::vector<Signature>& partials);

/// Per-thread tally of signature checks, the unit behind
/// RunResult::verifies_total and perfbench's crypto.verify_*_per_cell
/// metrics. Every KeyRegistry verify path bumps exactly one counter;
/// run_universal snapshots the thread's counters around a run (each
/// sweep cell runs on one thread), so the delta is a deterministic
/// function of (configuration, seed) at any job count. hash_counters()
/// (sha256.hpp) is the matching tally of SHA-256 work.
struct VerifyCounters {
  std::uint64_t signature = 0;
  std::uint64_t threshold = 0;
  std::uint64_t aggregate = 0;

  [[nodiscard]] std::uint64_t total() const {
    return signature + threshold + aggregate;
  }
};

/// The calling thread's verify tally (monotone; consumers take deltas).
[[nodiscard]] VerifyCounters& verify_counters();

class Signer;

/// Holds every process's signing secret plus the threshold-scheme root.
/// One registry per simulated deployment. Per-process secrets are derived
/// lazily on first use — each is an independent pure function of
/// (seed, id), so a registry for n=1000 costs O(touched processes), not
/// O(n), which is what lets large-n committee scenarios share one registry
/// per (n, k, seed) without materializing a thousand keypairs up front.
/// Derivation is thread-safe (registries are shared across sweep worker
/// threads): a release/acquire ready flag guards each slot, and a racing
/// double-derivation writes the identical value.
class KeyRegistry {
 public:
  /// `k` is the combining threshold (the paper uses k = n - t). Throws
  /// std::invalid_argument unless 1 <= k <= n.
  KeyRegistry(int n, int k, std::uint64_t seed);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int threshold_k() const { return k_; }
  /// The seed the registry was generated from. A registry is an immutable
  /// pure function of (n, threshold_k, seed), which is what makes sharing
  /// one instance across simulators sound; the seed is kept so a consumer
  /// can verify it was handed the registry it asked for.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Verifies an individual signature.
  [[nodiscard]] bool verify(const Signature& sig) const;

  /// Combines k valid partial signatures from distinct signers over the same
  /// digest into a threshold signature. Returns nullopt if the preconditions
  /// are not met (wrong count, duplicate signer, invalid partial, mixed
  /// digests).
  [[nodiscard]] std::optional<ThresholdSignature> combine(
      const std::vector<Signature>& partials) const;

  /// Verifies a combined threshold signature.
  [[nodiscard]] bool verify(const ThresholdSignature& tsig) const;

  /// Verifies an aggregate signature against exactly the voter set named by
  /// `voters`: recomputes the expected MAC sum over the set bits and
  /// compares once. False when the bitset's capacity is not this registry's
  /// n (mismatched voter universe), when the bitset is empty, or when the
  /// sum differs (inflated bitset, dropped voter, tampered aggregate).
  /// Thresholds are the caller's contract — see core::QuorumCollector.
  [[nodiscard]] bool verify_aggregate(const VoterBitset& voters,
                                      const AggregateSignature& agg) const;

  /// Returns the signer handle for process `id`. The handle only signs with
  /// `id`'s key: this is the structural unforgeability boundary. Throws
  /// std::out_of_range outside [0, n).
  [[nodiscard]] Signer signer_for(ProcessId id) const;

  /// How many per-process secrets have been derived so far. Purely an
  /// observability hook for the laziness regression tests (a clean run that
  /// signs with c processes must derive exactly the secrets those paths
  /// touch); the count is monotone and approximate under concurrent first
  /// touches of the same slot.
  [[nodiscard]] std::uint64_t key_derivations() const {
    return derivations_.load(std::memory_order_relaxed);
  }

 private:
  friend class Signer;

  [[nodiscard]] std::uint64_t secret_for(ProcessId id) const;
  [[nodiscard]] std::uint64_t mac_for(ProcessId id, const Hash& digest) const;
  [[nodiscard]] std::uint64_t threshold_mac(const Hash& digest) const;

  /// One lazily derived secret: `ready` (release/acquire) publishes
  /// `value`. Racing derivations write the same bytes, so the worst case
  /// is redundant hashing, never a torn or divergent key.
  struct LazySecret {
    std::atomic<std::uint64_t> value{0};
    std::atomic<bool> ready{false};
  };

  int n_;
  int k_;
  std::uint64_t seed_;
  std::uint64_t root_secret_;
  mutable std::unique_ptr<LazySecret[]> secrets_;
  mutable std::atomic<std::uint64_t> derivations_{0};
};

/// Per-process signing capability, made only by KeyRegistry::signer_for.
class Signer {
 public:
  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] Signature sign(const Hash& digest) const;

 private:
  friend class KeyRegistry;

  Signer(const KeyRegistry* registry, ProcessId id)
      : registry_(registry), id_(id) {}

  const KeyRegistry* registry_;
  ProcessId id_;
};

}  // namespace valcon::crypto
