#include "valcon/crypto/siphash.hpp"

#include <cstddef>

namespace valcon::crypto {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, unsigned s) {
  return (x << s) | (x >> (64 - s));
}

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  void round() {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  }

  /// Absorbs one message word with the two compression rounds of 2-4.
  void absorb(std::uint64_t m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }
};

std::uint64_t load_le(const std::uint8_t* p, std::size_t len) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < len; ++i) {
    out |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return out;
}

}  // namespace

std::uint64_t siphash24(std::uint64_t k0, std::uint64_t k1,
                        std::span<const std::uint8_t> message) {
  SipState s{k0 ^ 0x736f6d6570736575, k1 ^ 0x646f72616e646f6d,
             k0 ^ 0x6c7967656e657261, k1 ^ 0x7465646279746573};
  const std::size_t len = message.size();
  const std::size_t whole = len - len % 8;
  for (std::size_t i = 0; i < whole; i += 8) {
    s.absorb(load_le(message.data() + i, 8));
  }
  // The last word carries the length's low byte on top of the tail bytes.
  s.absorb((static_cast<std::uint64_t>(len) << 56) |
           load_le(message.data() + whole, len - whole));
  s.v2 ^= 0xff;
  for (int i = 0; i < 4; ++i) s.round();
  return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

}  // namespace valcon::crypto
