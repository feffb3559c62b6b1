// SHA-256 (FIPS 180-4). Used as the collision-resistant hash function the
// paper assumes for Appendix B.3 (vector dissemination and ADD), for the
// digests the simulated signature scheme signs, and to derive its secrets.
// The signature tags themselves are SipHash MACs (siphash.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace valcon::crypto {

/// Per-thread tally of SHA-256 work: 64-byte compression blocks and
/// finished digests. Like verify_counters() (signatures.hpp), the counts
/// are monotone; a consumer snapshots them around a single-threaded run
/// and takes the delta, which is then a deterministic function of the
/// run's inputs.
struct HashCounters {
  std::uint64_t blocks = 0;
  std::uint64_t digests = 0;
};

/// The calling thread's hashing tally.
[[nodiscard]] HashCounters& hash_counters();

/// Incremental SHA-256 context. Feed bytes with update(), finish with
/// digest(). A context must not be updated after digest() is called.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  void update(const void* data, std::size_t len);
  [[nodiscard]] Digest digest();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(const void* data, std::size_t len);

 private:
  static constexpr std::size_t kBlockSize = 64;

  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace valcon::crypto
