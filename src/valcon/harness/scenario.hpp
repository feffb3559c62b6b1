// Deployment harness: spins up a simulated system running Universal on a
// chosen vector-consensus implementation, injects faults, runs to
// quiescence, and collects decisions plus the paper's complexity metrics.
// Used by the tests, the benches (EXPERIMENTS.md E2, E4-E8) and the
// examples.
#pragma once

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "valcon/core/quorum.hpp"
#include "valcon/core/universal.hpp"
#include "valcon/harness/net_profile.hpp"
#include "valcon/harness/topology.hpp"
#include "valcon/sim/simulator.hpp"

namespace valcon::harness {

enum class VcKind {
  kAuthenticated,     // Algorithm 1 (signed proposals + Quad)
  kNonAuthenticated,  // Algorithm 3 (BRB + n binary consensus instances)
  kFast,              // Algorithm 6 (dissemination + Quad-on-hashes + ADD)
};

[[nodiscard]] std::string to_string(VcKind kind);

/// One fault assignment: the name of a registered adversary strategy
/// (harness/strategy.hpp) plus its parameters. Built-in strategies:
///
///   "silent"               — no computational steps at all
///   "crash"                — correct until crash_time, then silent
///   "equivocate"           — split-brain: two full correct stacks, one per
///                            half of the process set, proposing the
///                            configured value to the lower half and
///                            equivocal_value to the upper half
///   "delay"                — correct behavior, but every outbound link
///                            (except the self-link) is held until
///                            release_time — messages sent before GST
///                            surface only afterwards
///   "mutate"               — correct stack whose outbound messages are
///                            randomly dropped / garbled / duplicated with
///                            probability mutate_rate
///   "equivocate-scheduled" — everyone sees face 0 until switch_time, then
///                            the upper half is switched to a second stack
///                            proposing equivocal_value
///   "adaptive"             — correct stack that watches inbound traffic
///                            and, after `observe` deliveries, permanently
///                            omits sends to the `victims` busiest senders
///   "collude-equivocate"   — coordinated split-brain: ALL processes with
///                            this strategy share one partition plan;
///                            colluder-to-colluder traffic is face-tagged
///                            so both world views stay consistent across
///                            the group, and the first builder holds the
///                            cross-side outsider links until release_time
///                            (< 0: the horizon; the network clips held
///                            deliveries to max(send, GST) + delta)
///   "collude-withhold"     — quorum-edge withholding: the group behaves
///                            correctly until a SHARED tally of inbound
///                            deliveries reaches `observe`, then every
///                            member simultaneously stops sending to the
///                            `victims` lowest-id correct processes
///   "forge-qc"             — correct stack that, whenever it observes a
///                            genuine quorum certificate, also broadcasts
///                            forged variants (inflated voter bitset,
///                            tampered aggregate); honest processes must
///                            reject every forgery, so the run should be
///                            indistinguishable from the fault-free one.
///                            Only bites under cert_mode=aggregate — in
///                            per-vote mode no QCs flow and the stack is
///                            simply correct
///
/// Unused parameters are ignored by a strategy; custom strategies may reuse
/// any of them.
struct Fault {
  std::string strategy = "silent";
  Time crash_time = 0.0;      // crash: stop taking steps at this time
  Value equivocal_value = 0;  // equivocate*: proposal shown to the upper half
  Time release_time = -1.0;   // delay: hold-until; < 0 means gst + delta
  double mutate_rate = 0.25;  // mutate: per-message tamper probability
  Time switch_time = -1.0;    // equivocate-scheduled: < 0 means gst
  int victims = 1;            // adaptive: number of victims to silence
  int observe = 8;            // adaptive: deliveries watched before choosing

  // Shorthands for the built-in strategies.
  [[nodiscard]] static Fault silent() { return {}; }
  [[nodiscard]] static Fault crash(Time when) {
    Fault f;
    f.strategy = "crash";
    f.crash_time = when;
    return f;
  }
  [[nodiscard]] static Fault equivocate(Value other) {
    Fault f;
    f.strategy = "equivocate";
    f.equivocal_value = other;
    return f;
  }
  [[nodiscard]] static Fault delay(Time release = -1.0) {
    Fault f;
    f.strategy = "delay";
    f.release_time = release;
    return f;
  }
  [[nodiscard]] static Fault mutate(double rate = 0.25) {
    Fault f;
    f.strategy = "mutate";
    f.mutate_rate = rate;
    return f;
  }
  [[nodiscard]] static Fault scheduled_equivocate(Value other,
                                                  Time switch_at = -1.0) {
    Fault f;
    f.strategy = "equivocate-scheduled";
    f.equivocal_value = other;
    f.switch_time = switch_at;
    return f;
  }
  [[nodiscard]] static Fault adaptive(int victims = 1, int observe = 8) {
    Fault f;
    f.strategy = "adaptive";
    f.victims = victims;
    f.observe = observe;
    return f;
  }
  [[nodiscard]] static Fault collude_equivocate(Value other,
                                                Time release = -1.0) {
    Fault f;
    f.strategy = "collude-equivocate";
    f.equivocal_value = other;
    f.release_time = release;
    return f;
  }
  [[nodiscard]] static Fault collude_withhold(int victims = 1,
                                              int observe = 8) {
    Fault f;
    f.strategy = "collude-withhold";
    f.victims = victims;
    f.observe = observe;
    return f;
  }
  [[nodiscard]] static Fault forge_qc() {
    Fault f;
    f.strategy = "forge-qc";
    return f;
  }
};

struct ScenarioConfig {
  int n = 4;
  int t = 1;
  Time delta = 1.0;
  Time gst = 0.0;
  std::uint64_t seed = 1;
  VcKind vc = VcKind::kAuthenticated;
  /// Proposal per process (index = process id). Faulty entries are used by
  /// Byzantine-but-behaving processes where applicable.
  std::vector<Value> proposals;
  /// Faults by process id; all other processes are correct.
  std::map<ProcessId, Fault> faults;
  /// Simulated-time horizon (safety net against livelock).
  Time horizon = 1e9;
  /// The network adversary: an optional per-link delay policy, applied by
  /// run_universal via Network::set_delay_policy. See
  /// harness/net_profile.hpp.
  NetworkProfile net_profile;
  /// Early-stop grace window: once every correct process has decided, the
  /// run is cut grace_multiplier * delta after the last correct decision
  /// (residual protocol chatter — decide-echo waves, a faulty stack
  /// re-arming timers — must not drag the run to the horizon). Must be
  /// > 0; RunResult::queue_drained records whether the cutoff actually
  /// fired.
  double grace_multiplier = 10.0;
  /// Ablation (bench E5): disable Quad's decide-echo wave.
  bool quad_decide_echo = true;
  /// Certificate backend for the vote-heavy protocol paths (core/quorum.hpp).
  /// The default keeps every pinned sweep output byte-identical; aggregate
  /// mode batches votes into quorum certificates.
  core::CertMode cert_mode = core::CertMode::kPerVote;
  /// Communication topology (harness/topology.hpp). The default full mesh
  /// runs the stack on every process exactly as before (byte-identical
  /// pinned sweeps); committee-k runs it on the k lowest-id processes and
  /// the rest decide from announced decisions/certificates.
  Topology topology;
};

struct RunResult {
  std::map<ProcessId, Value> decisions;          // correct processes only
  std::map<ProcessId, Time> decide_times;
  std::uint64_t message_complexity = 0;   // msgs by correct senders >= GST
  std::uint64_t word_complexity = 0;      // words by correct senders >= GST
  std::uint64_t messages_total = 0;
  std::uint64_t events = 0;
  Time last_decision_time = 0.0;
  /// True when the event queue drained on its own; false when the run was
  /// cut — by the decide-then-grace window (ScenarioConfig's
  /// grace_multiplier) or the horizon — with events still pending.
  /// Complexity metrics over a cut run are a lower bound, not a total.
  bool queue_drained = false;

  // Near-miss instrumentation (consumed by the adversary search,
  // harness/search.hpp — how close did this run get to a violation?).
  /// Smallest vote margin over the strongest competing digest across every
  /// quorum certificate a correct process formed; -1 when no correct
  /// process formed a QC (e.g. the non-authenticated stack, or no
  /// progress). A margin near 0 means one flipped vote separated the run
  /// from certifying a conflicting value.
  int min_vote_margin = -1;
  /// Total votes correct processes saw land on digests that LOST a quorum
  /// race — nonzero means conflicting proposals reached the voting stage.
  std::uint64_t conflicting_votes = 0;
  /// Simulated time when the run stopped (queue drained or cut).
  Time end_time = 0.0;
  /// The decide-then-grace cutoff that was armed (last correct decision +
  /// grace_multiplier * delta, capped by the horizon), or -1 if every
  /// correct process never decided so no cutoff was armed. end_time close
  /// to grace_cutoff (with queue_drained false) means residual traffic was
  /// still in flight when the run was cut.
  Time grace_cutoff = -1.0;

  /// Signature checks the run performed (individual + threshold +
  /// aggregate), taken as the delta of crypto::verify_counters() around the
  /// event loop. Each run executes on one thread, so the tally is a
  /// deterministic function of (configuration, seed) at any job count.
  std::uint64_t verifies_total = 0;

  [[nodiscard]] bool all_correct_decided(const ScenarioConfig& cfg) const;
  [[nodiscard]] bool agreement() const;
  [[nodiscard]] std::optional<Value> common_decision() const;
};

/// Returns the process-wide shared crypto::KeyRegistry for (n, threshold_k,
/// seed), building it on first request. A registry is an immutable pure
/// function of that triple, so every sweep cell (and every test) with the
/// same triple reuses one instance instead of regenerating n+1 secrets per
/// run — run_universal plugs the result into SimConfig::keys. Thread-safe;
/// the cache is cleared wholesale if it ever grows past a few thousand
/// entries (distinct triples, not cells, bound it).
[[nodiscard]] std::shared_ptr<const crypto::KeyRegistry> shared_key_registry(
    int n, int threshold_k, std::uint64_t seed);

/// Builds a Universal stack for one process (shared by tests and benches).
[[nodiscard]] std::unique_ptr<core::Universal> make_universal(
    const ScenarioConfig& cfg, Value proposal, core::LambdaFn lambda,
    core::Universal::DecideCb on_decide);

/// Whether `v` is finite and > 0 (a usable delta or horizon), and whether
/// it is finite and >= 0 (a usable GST). A bare `v <= 0` rejection lets
/// NaN through, since NaN fails every comparison, and infinity passes it;
/// either one stalls a run that waits on the time.
[[nodiscard]] inline bool positive_finite(double v) {
  return std::isfinite(v) && v > 0.0;
}
[[nodiscard]] inline bool nonnegative_finite(double v) {
  return std::isfinite(v) && v >= 0.0;
}

/// Throws std::invalid_argument unless cfg is well-formed: n > 0,
/// 0 <= t < n, one proposal per process, at most t faults, every fault id
/// in [0, n), every fault strategy registered (with valid parameters, per
/// the strategy's own validate hook), delta, horizon and grace_multiplier
/// positive and finite, gst finite and >= 0, and a well-formed topology
/// (its own validate, against n).
void validate(const ScenarioConfig& cfg);

/// Runs Universal end to end with the given Λ. Validates cfg first (see
/// validate()) and throws std::invalid_argument on misconfiguration.
[[nodiscard]] RunResult run_universal(const ScenarioConfig& cfg,
                                      const core::LambdaFn& lambda);

/// Least-squares slope of log(y) against log(x): the empirical scaling
/// exponent of a complexity curve. Throws std::invalid_argument unless xs
/// and ys have the same length of at least 2, every value is positive and
/// finite, and the xs are not all equal (the slope is undefined otherwise).
[[nodiscard]] double loglog_slope(const std::vector<double>& xs,
                                  const std::vector<double>& ys);

}  // namespace valcon::harness
