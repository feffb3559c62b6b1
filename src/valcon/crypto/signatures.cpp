#include "valcon/crypto/signatures.hpp"

#include <stdexcept>
#include <string>
#include <unordered_set>

#include "valcon/crypto/siphash.hpp"

namespace valcon::crypto {

namespace {

// The second half of each MAC key: ASCII "valcon/s" and "valcon/t". They
// keep a process's signature tags and the threshold tags apart even if a
// process secret ever equalled the root secret.
constexpr std::uint64_t kSignatureDomain = 0x76616c636f6e2f73;
constexpr std::uint64_t kThresholdDomain = 0x76616c636f6e2f74;

std::uint64_t truncate(const Hash& h) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < 8; ++i) out = (out << 8) | h.bytes[i];
  return out;
}

}  // namespace

VoterBitset::VoterBitset(int n) : n_(n) {
  if (n < 1) throw std::invalid_argument("VoterBitset: need n >= 1");
  if (word_count() > kInlineWords) heap_.assign(word_count(), 0);
}

void VoterBitset::throw_out_of_range() {
  throw std::out_of_range("VoterBitset: id outside [0, n)");
}

std::optional<AggregateSignature> aggregate(
    const std::vector<Signature>& partials) {
  if (partials.empty()) return std::nullopt;
  const Hash& digest = partials.front().digest;
  std::unordered_set<ProcessId> seen;
  std::uint64_t sum = 0;
  for (const Signature& partial : partials) {
    if (partial.digest != digest) return std::nullopt;
    if (!seen.insert(partial.signer).second) return std::nullopt;
    sum += partial.mac;  // mod 2^64 by unsigned wraparound
  }
  return AggregateSignature{digest, sum};
}

VerifyCounters& verify_counters() {
  thread_local VerifyCounters counters;
  return counters;
}

KeyRegistry::KeyRegistry(int n, int k, std::uint64_t seed)
    : n_(n), k_(k), seed_(seed) {
  if (n < 1 || k < 1 || k > n) {
    throw std::invalid_argument("KeyRegistry: need 1 <= k <= n, got n=" +
                                std::to_string(n) + " k=" + std::to_string(k));
  }
  root_secret_ =
      truncate(Hasher("valcon/root-secret").add(seed).finish());
  // Per-process secrets are derived on first use (secret_for); the slot
  // array is value-initialized (atomics zeroed, ready=false) and that is
  // the only O(n) cost a registry pays up front.
  secrets_ = std::make_unique<LazySecret[]>(static_cast<std::size_t>(n));
}

std::uint64_t KeyRegistry::secret_for(ProcessId id) const {
  LazySecret& slot = secrets_[static_cast<std::size_t>(id)];
  if (slot.ready.load(std::memory_order_acquire)) {
    return slot.value.load(std::memory_order_relaxed);
  }
  const std::uint64_t secret = truncate(
      Hasher("valcon/process-secret").add(seed_).add(id).finish());
  slot.value.store(secret, std::memory_order_relaxed);
  slot.ready.store(true, std::memory_order_release);
  derivations_.fetch_add(1, std::memory_order_relaxed);
  return secret;
}

std::uint64_t KeyRegistry::mac_for(ProcessId id, const Hash& digest) const {
  return siphash24(secret_for(id), kSignatureDomain, digest.bytes);
}

std::uint64_t KeyRegistry::threshold_mac(const Hash& digest) const {
  return siphash24(root_secret_,
                   kThresholdDomain ^ static_cast<std::uint64_t>(k_),
                   digest.bytes);
}

bool KeyRegistry::verify(const Signature& sig) const {
  ++verify_counters().signature;
  if (sig.signer < 0 || sig.signer >= n_) return false;
  return sig.mac == mac_for(sig.signer, sig.digest);
}

std::optional<ThresholdSignature> KeyRegistry::combine(
    const std::vector<Signature>& partials) const {
  if (static_cast<int>(partials.size()) < k_) return std::nullopt;
  std::unordered_set<ProcessId> seen;
  const Hash& digest = partials.front().digest;
  for (const Signature& partial : partials) {
    if (partial.digest != digest) return std::nullopt;
    if (!verify(partial)) return std::nullopt;
    if (!seen.insert(partial.signer).second) return std::nullopt;
  }
  if (static_cast<int>(seen.size()) < k_) return std::nullopt;
  return ThresholdSignature{digest, threshold_mac(digest)};
}

bool KeyRegistry::verify(const ThresholdSignature& tsig) const {
  ++verify_counters().threshold;
  return tsig.mac == threshold_mac(tsig.digest);
}

bool KeyRegistry::verify_aggregate(const VoterBitset& voters,
                                   const AggregateSignature& agg) const {
  ++verify_counters().aggregate;
  if (voters.capacity() != n_) return false;
  std::uint64_t expected = 0;
  int set_bits = 0;
  for (ProcessId id = 0; id < n_; ++id) {
    if (!voters.test(id)) continue;
    expected += mac_for(id, agg.digest);  // mod 2^64, mirroring aggregate()
    ++set_bits;
  }
  if (set_bits == 0) return false;
  return agg.mac == expected;
}

Signer KeyRegistry::signer_for(ProcessId id) const {
  if (id < 0 || id >= n_) {
    throw std::out_of_range("KeyRegistry: signer id " + std::to_string(id) +
                            " outside [0, " + std::to_string(n_) + ")");
  }
  return Signer(this, id);
}

Signature Signer::sign(const Hash& digest) const {
  return Signature{id_, digest, registry_->mac_for(id_, digest)};
}

}  // namespace valcon::crypto
