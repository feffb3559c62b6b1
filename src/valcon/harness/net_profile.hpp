// Network adversary profiles.
//
// The partially synchronous model gives the adversary real scheduling
// power — anything up to max(send, GST) + delta — and Dolev-Reischuk-style
// lower-bound arguments are driven by exactly that power. A NetworkProfile
// names one deterministic per-link DelayPolicy (or none, the stock
// network); run_universal installs it on the simulator's Network via
// set_delay_policy, and the sweep matrix enumerates profiles as a
// first-class dimension. The network itself has only the model's two
// parameters, GST and delta (sim::NetworkConfig).
//
// Profiles are deterministic: a policy computes arrival times from
// (from, to, send_time) alone, and the network clamps whatever it returns
// to the model bounds — a profile can never break partial synchrony, only
// exhaust it.
#pragma once

#include <string>
#include <vector>

#include "valcon/common.hpp"
#include "valcon/sim/network.hpp"

namespace valcon::harness {

/// One network adversary profile. Named built-ins
/// (named_network_profile()):
///
///   "uniform"             — the stock network, no policy: delays are
///                           drawn uniformly from the model's allowed
///                           window (pre-GST delays capped at
///                           sim::Network::kPreGstCap)
///   "pre-gst-starve"      — every message sent before GST arrives exactly
///                           at the model bound max(send, GST) + delta:
///                           the pre-GST scheduler is maximally hostile
///   "targeted-slow-links" — every link touching process 0 is delivered at
///                           the model bound; the rest of the network is
///                           untouched — a targeted slowdown of one
///                           participant
///   "sampled-overlay"     — a seeded sparse overlay: each undirected link
///                           is kept fast with probability 1/2 (a pure
///                           hash of a fixed seed and the endpoints —
///                           deterministic and symmetric, both directions
///                           agree); every non-overlay link is delivered
///                           at the model bound. The large-n regime where
///                           only a sampled subgraph is fast while the
///                           mesh itself stays within partial synchrony
struct NetworkProfile {
  enum class Policy {
    kNone,            // no per-link policy
    kStarvePreGst,    // pre-GST sends arrive at the model bound
    kSlowTarget,      // links touching process 0 arrive at the model bound
    kSampledOverlay,  // links outside a seeded sampled overlay crawl
  };

  std::string name = "uniform";
  Policy policy = Policy::kNone;

  /// The per-link policy for this profile, or an empty function for
  /// kNone. Arrival times it returns are clamped by the network to
  /// [send + Network::kMinDelay, max(send, GST) + delta].
  [[nodiscard]] sim::Network::DelayPolicy make_delay_policy(Time gst) const;
};

/// The named built-in profiles documented above. Throws
/// std::invalid_argument for unknown names, listing what exists.
[[nodiscard]] NetworkProfile named_network_profile(const std::string& name);

/// Names of the built-in profiles, sorted.
[[nodiscard]] std::vector<std::string> network_profile_names();

}  // namespace valcon::harness
