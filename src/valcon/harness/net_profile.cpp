#include "valcon/harness/net_profile.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace valcon::harness {

namespace {

/// Any finite time past every horizon: the network clamps it down to the
/// model bound max(send, GST) + delta, which is the point — "as late as
/// the model allows" without the profile re-deriving the bound.
constexpr Time kModelBound = std::numeric_limits<Time>::max();

/// kSlowTarget: the process whose links crawl.
constexpr ProcessId kSlowProcess = 0;
/// kSampledOverlay: the overlay sampling seed and the per-mille
/// probability that a given undirected link is kept fast (self-links
/// always are).
constexpr std::uint64_t kOverlaySeed = 1;
constexpr std::uint64_t kOverlayKeepPermille = 500;

/// splitmix64 finalizer: the overlay membership hash. Statistically flat,
/// pure, and cheap enough to evaluate per delivery (the policy is called
/// on the hot path, so no table is materialized — O(1) memory at any n).
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

sim::Network::DelayPolicy NetworkProfile::make_delay_policy(Time gst) const {
  switch (policy) {
    case Policy::kNone: return {};
    case Policy::kStarvePreGst:
      return [gst](ProcessId /*from*/, ProcessId /*to*/,
                   Time send_time) -> std::optional<Time> {
        if (send_time < gst) return kModelBound;
        return std::nullopt;
      };
    case Policy::kSlowTarget:
      return [](ProcessId from, ProcessId to,
                Time /*send_time*/) -> std::optional<Time> {
        if (from == kSlowProcess || to == kSlowProcess) return kModelBound;
        return std::nullopt;
      };
    case Policy::kSampledOverlay:
      return [](ProcessId from, ProcessId to,
                Time /*send_time*/) -> std::optional<Time> {
        if (from == to) return std::nullopt;  // self-links stay fast
        // Undirected membership: hash the sorted endpoint pair, so both
        // directions of a link agree on overlay membership.
        const auto lo = static_cast<std::uint64_t>(std::min(from, to));
        const auto hi = static_cast<std::uint64_t>(std::max(from, to));
        const std::uint64_t h =
            mix64(kOverlaySeed ^ (lo * 0x9e3779b97f4a7c15ULL) ^ mix64(hi));
        if (h % 1000 < kOverlayKeepPermille) return std::nullopt;
        return kModelBound;
      };
  }
  return {};
}

NetworkProfile named_network_profile(const std::string& name) {
  if (name == "uniform") return NetworkProfile{};
  if (name == "pre-gst-starve") {
    NetworkProfile profile;
    profile.name = name;
    profile.policy = NetworkProfile::Policy::kStarvePreGst;
    return profile;
  }
  if (name == "targeted-slow-links") {
    NetworkProfile profile;
    profile.name = name;
    profile.policy = NetworkProfile::Policy::kSlowTarget;
    return profile;
  }
  if (name == "sampled-overlay") {
    NetworkProfile profile;
    profile.name = name;
    profile.policy = NetworkProfile::Policy::kSampledOverlay;
    return profile;
  }
  std::string known;
  for (const std::string& n : network_profile_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("unknown network profile '" + name +
                              "' (known: " + known + ")");
}

std::vector<std::string> network_profile_names() {
  return {"pre-gst-starve", "sampled-overlay", "targeted-slow-links",
          "uniform"};
}

}  // namespace valcon::harness
