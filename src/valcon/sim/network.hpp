// The partially synchronous network of Dwork-Lynch-Stockmeyer [42], as used
// in Section 3.1:
//
//  * there is a Global Stabilization Time (GST) and a bound delta such that
//    every message sent by a correct process at time s is delivered by
//    max(s, GST) + delta;
//  * before GST the adversary schedules deliveries arbitrarily (within that
//    bound); after GST it still chooses delays, but only within delta.
//
// The adversary surface: per-link holds (delay a link until a given time,
// clipped to the model bound) and a custom delay policy hook. The network
// never drops a message; a faulty process that omits sends does so in its
// own shim (sim::omit_to on a FilterShim).
//
// The hold table is a hash map keyed by the row-major link index, filled
// lazily by hold(): memory is O(active links), a clean run (no adversary)
// pays zero bytes, and arrival_time skips the lookup while the map is
// empty. arrival_time assumes in-range ids (its only caller,
// Simulator::do_send, validates the destination and owns the source);
// installing a hold validates the ids.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "valcon/common.hpp"
#include "valcon/sim/rng.hpp"

namespace valcon::sim {

struct NetworkConfig {
  Time gst = 0.0;
  Time delta = 1.0;
  /// Minimum network latency (> 0 keeps event ordering sane).
  Time min_delay = 1e-3;
  /// Default cap on adversarial pre-GST delays when no hold is installed.
  /// The model allows anything up to (GST - s) + delta; experiments that
  /// need long pre-GST delays install holds explicitly.
  Time default_pre_gst_cap = 3.0;
};

class Network {
 public:
  /// `n` fixes the process-id space [0, n) the per-link table covers.
  Network(NetworkConfig config, int n, std::uint64_t seed)
      : config_(config), n_(n), rng_(seed) {}

  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Delay all (from -> to) deliveries so they arrive no earlier than
  /// `until` (clipped to the model bound max(send, GST) + delta). A later
  /// hold on the same link overwrites the earlier one. Throws
  /// std::out_of_range for ids outside [0, n).
  void hold(ProcessId from, ProcessId to, Time until) {
    holds_[link(from, to)] = until;
  }

  /// Symmetric hold between two groups of processes.
  template <typename GroupA, typename GroupB>
  void hold_between(const GroupA& a, const GroupB& b, Time until) {
    for (ProcessId x : a) {
      for (ProcessId y : b) {
        hold(x, y, until);
        hold(y, x, until);
      }
    }
  }

  /// Optional custom policy: returns the desired arrival time for a message
  /// (before clamping to the model bounds), or nullopt to use the default.
  using DelayPolicy = std::function<std::optional<Time>(
      ProcessId from, ProcessId to, Time send_time)>;
  void set_delay_policy(DelayPolicy policy) { policy_ = std::move(policy); }

  /// Returns the arrival time for a message. Hot path: `from` and `to` must
  /// be in [0, n) — Simulator::do_send guarantees this.
  [[nodiscard]] Time arrival_time(ProcessId from, ProcessId to,
                                  Time send_time) {
    const Time lower = send_time + config_.min_delay;
    const Time upper = model_bound(send_time);

    Time arrival;
    std::optional<Time> custom;
    if (policy_) custom = policy_(from, to, send_time);
    if (custom.has_value()) {
      arrival = *custom;
    } else if (send_time >= config_.gst) {
      arrival = send_time + rng_.uniform(config_.min_delay, config_.delta);
    } else {
      // The cap is clamped to `lower` so a pre-GST cap smaller than the
      // minimum latency (an adversary profile starving the window shut)
      // degrades to prompt delivery instead of an inverted uniform range.
      const Time cap = std::max(
          lower, std::min(upper, send_time + config_.default_pre_gst_cap));
      arrival = rng_.uniform(lower, cap);
    }
    if (!holds_.empty()) {
      const auto it = holds_.find(static_cast<std::size_t>(from) *
                                      static_cast<std::size_t>(n_) +
                                  static_cast<std::size_t>(to));
      if (it != holds_.end()) arrival = std::max(arrival, it->second);
    }
    if (arrival < lower) arrival = lower;
    if (arrival > upper) arrival = upper;
    return arrival;
  }

  /// max(s, GST) + delta: the latest the model permits delivery.
  [[nodiscard]] Time model_bound(Time send_time) const {
    return std::max(send_time, config_.gst) + config_.delta;
  }

  /// Bytes held by the hold table right now: 0 until the first hold(),
  /// then O(active links). Approximate (buckets are not counted); used by
  /// tests to pin the lazy behavior, not for accounting.
  [[nodiscard]] std::size_t link_table_bytes() const {
    return holds_.size() * (sizeof(std::size_t) + sizeof(Time));
  }

 private:
  /// Row-major (from, to) index with validation — hold() goes through
  /// here; arrival_time trusts its caller.
  [[nodiscard]] std::size_t link(ProcessId from, ProcessId to) const {
    if (from < 0 || from >= n_ || to < 0 || to >= n_) {
      throw std::out_of_range("link (" + std::to_string(from) + " -> " +
                              std::to_string(to) + ") outside [0, " +
                              std::to_string(n_) + ")^2");
    }
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(to);
  }

  NetworkConfig config_;
  int n_;
  Rng rng_;
  // Keyed by the row-major link index. Lookup-only (never iterated), so
  // unordered storage stays deterministic.
  std::unordered_map<std::size_t, Time> holds_;
  DelayPolicy policy_;
};

}  // namespace valcon::sim
