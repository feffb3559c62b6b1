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
// The hold table is hybrid: below kDenseThreshold it is a dense n x n array
// (branch-and-index on the hot path, exactly as before), above it a hash
// map keyed by the same row-major link index so memory is O(active links)
// instead of O(n^2) at n in the thousands. Either way it is allocated
// lazily on the first hold() — a clean run (no adversary) pays zero bytes
// and skips the lookup entirely via the any_holds_ flag. An absent entry
// means "no hold" (kNoHold, -infinity), so the two backends are observably
// identical; tests force Storage::kSparse at small n and compare verbatim
// against dense. arrival_time assumes in-range ids (its only caller,
// Simulator::do_send, validates the destination and owns the source);
// installing a hold validates the ids.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
  /// Hold-table backend. kAuto picks a dense array at n <= kDenseThreshold
  /// and sparse hash storage above; the explicit values exist so property
  /// tests can run the sparse structure at small n in lockstep against the
  /// dense one. Both are lazy: nothing is allocated until the first hold().
  enum class Storage { kAuto, kDense, kSparse };

  /// Largest n for which kAuto keeps the dense n x n table. 64 x 64 links
  /// is 32 KiB of hold floors — cheap; past that the quadratic table
  /// dominates a run's footprint while sweeps rarely touch more than a few
  /// hundred links.
  static constexpr int kDenseThreshold = 64;

  /// `n` fixes the process-id space [0, n) the per-link table covers.
  Network(NetworkConfig config, int n, std::uint64_t seed,
          Storage storage = Storage::kAuto)
      : config_(config),
        n_(n),
        rng_(seed),
        dense_(storage == Storage::kDense ||
               (storage == Storage::kAuto && n <= kDenseThreshold)) {}

  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Delay all (from -> to) deliveries so they arrive no earlier than
  /// `until` (clipped to the model bound max(send, GST) + delta). A later
  /// hold on the same link overwrites the earlier one. Throws
  /// std::out_of_range for ids outside [0, n).
  void hold(ProcessId from, ProcessId to, Time until) {
    const std::size_t idx = link(from, to);
    if (dense_) {
      if (holds_.empty()) {
        holds_.assign(
            static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
            kNoHold);
      }
      holds_[idx] = until;
    } else {
      sparse_holds_[idx] = until;
    }
    any_holds_ = true;
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
    const std::size_t idx = static_cast<std::size_t>(from) *
                                static_cast<std::size_t>(n_) +
                            static_cast<std::size_t>(to);
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
    // kNoHold is -infinity, so an un-held link takes the max unchanged;
    // skipping the lookup when no hold was ever installed is therefore
    // observably identical, not a shortcut.
    if (any_holds_) arrival = std::max(arrival, hold_floor(idx));
    if (arrival < lower) arrival = lower;
    if (arrival > upper) arrival = upper;
    return arrival;
  }

  /// max(s, GST) + delta: the latest the model permits delivery.
  [[nodiscard]] Time model_bound(Time send_time) const {
    return std::max(send_time, config_.gst) + config_.delta;
  }

  /// True when this instance uses the dense n x n table (kAuto resolved at
  /// construction). Exposed for the hybrid-equivalence tests.
  [[nodiscard]] bool dense_storage() const { return dense_; }

  /// Bytes held by the hold table right now — 0 until the first hold(),
  /// O(active links) in sparse mode. Approximate for the hash backend
  /// (buckets are not counted); used by tests and benches to pin the
  /// lazy/sparse behavior, not for accounting.
  [[nodiscard]] std::size_t link_table_bytes() const {
    return holds_.capacity() * sizeof(Time) +
           sparse_holds_.size() * (sizeof(std::size_t) + sizeof(Time));
  }

 private:
  static constexpr Time kNoHold = -std::numeric_limits<Time>::infinity();

  [[nodiscard]] Time hold_floor(std::size_t idx) const {
    if (dense_) return holds_[idx];
    const auto it = sparse_holds_.find(idx);
    return it == sparse_holds_.end() ? kNoHold : it->second;
  }

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
  bool dense_;
  bool any_holds_ = false;  // false => no hold lookup at all
  std::vector<Time> holds_;  // dense backend, lazily sized n x n
  // Sparse backend: keyed by the same row-major link index. Lookup-only on
  // the hot path (never iterated), so unordered storage stays deterministic.
  std::unordered_map<std::size_t, Time> sparse_holds_;
  DelayPolicy policy_;
};

}  // namespace valcon::sim
