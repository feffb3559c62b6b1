// SipHash-2-4 (Aumasson and Bernstein, "SipHash: a fast short-input
// PRF", 2012): a keyed 64-bit pseudorandom function. It is the MAC under
// the simulated signature scheme (signatures.hpp); SHA-256 stays the
// collision-resistant hash for content digests.
#pragma once

#include <cstdint>
#include <span>

namespace valcon::crypto {

/// SipHash-2-4 of `message` under the 128-bit key (k0, k1), where k0 holds
/// key bytes 0..7 and k1 bytes 8..15, each read little-endian.
[[nodiscard]] std::uint64_t siphash24(std::uint64_t k0, std::uint64_t k1,
                                      std::span<const std::uint8_t> message);

}  // namespace valcon::crypto
