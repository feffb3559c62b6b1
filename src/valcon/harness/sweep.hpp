// Scenario-matrix engine: enumerates the cross product of protocol stack ×
// validity property × proposal pattern × fault pattern × system size ×
// network profile × network timing × seed × certificate mode × topology,
// and fans the resulting
// (embarrassingly parallel) Simulator runs out over a thread pool. Every
// run is a deterministic function of (config, seed), so results are
// identical whatever the job count — the pool only changes wall-clock
// time. Used by the valcon_sweep CLI, perfbench and the tests.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "valcon/core/execution_checker.hpp"
#include "valcon/core/quorum.hpp"
#include "valcon/core/validity.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/harness/validity_kind.hpp"

namespace valcon::harness {

/// The five named axes of the matrix, in table order: the order of their
/// wire fields, label segments and checkpoint keys. (point_at's
/// mixed-radix digit order is a separate, pinned order.)
enum class Axis { kStrategy, kPattern, kNetProfile, kCertMode, kTopology };
inline constexpr std::size_t kAxisCount = 5;

/// One value per named axis, indexed by Axis.
template <typename T>
struct PerAxis {
  std::array<T, kAxisCount> slots{};
  T& operator[](Axis a) { return slots[static_cast<std::size_t>(a)]; }
  const T& operator[](Axis a) const {
    return slots[static_cast<std::size_t>(a)];
  }
  bool operator==(const PerAxis&) const = default;
};

/// How one named axis is spelled outside the code that gives its values
/// meaning: its CLI filter flag (both CLIs), checkpoint key, wire field,
/// label segment and default. A new axis is one entry of this table (see
/// docs/sweeps.md, "Axes").
struct AxisInfo {
  Axis axis;
  const char* name;            // in messages: "network profile"
  const char* flag;            // "--net-profiles"
  const char* checkpoint_key;  // "net_profiles"
  /// Outcome-line field and label segment of a declared axis; empty for
  /// the strategy axis, which reaches the wire through the fault list.
  const char* wire_field;     // "net_profile"
  const char* label_segment;  // "net"
  const char* default_value;  // "uniform"
  /// Throws std::invalid_argument for a value the axis's registry does not
  /// know, listing the values it does.
  void (*check)(const std::string& name);
};

/// The axis table, in Axis order.
[[nodiscard]] const std::array<AxisInfo, kAxisCount>& axes();
[[nodiscard]] const AxisInfo& axis_info(Axis axis);
/// The axis whose filter flag is `flag`; nullopt for any other argument.
[[nodiscard]] std::optional<Axis> axis_for_flag(const std::string& flag);
/// Every axis's default_value.
[[nodiscard]] PerAxis<std::string> axis_defaults();

/// One fault pattern of the matrix: `count` processes (the highest ids)
/// fail with the same registered adversary strategy. `count` is clamped to
/// each scenario's t, so one spec can cross several (n, t) sizes; count
/// < 0 means t. Each fault's crash_time is the GST and its
/// equivocal_value its own proposal + 1 (mod the proposal domain);
/// victims / observe < 0 and every other parameter keep the Fault
/// defaults (see harness/scenario.hpp).
struct FaultSpec {
  std::string strategy = axis_info(Axis::kStrategy).default_value;
  int count = -1;
  int victims = -1;
  int observe = -1;

  /// "none" for a zero-fault spec, else e.g. "crashx2".
  [[nodiscard]] std::string label(int t) const;

  /// The name label() uses: "none" when the spec injects no faults (so a
  /// fault-free spec can be selected by name), else the strategy.
  [[nodiscard]] std::string effective_strategy() const {
    return count == 0 ? "none" : strategy;
  }
};

/// One cell of the matrix: a fully resolved scenario plus the property to
/// judge it by.
struct SweepPoint {
  std::size_t index = 0;
  ScenarioConfig config;
  ValidityKind validity = ValidityKind::kStrong;
  /// Name of the proposal pattern that filled config.proposals (the
  /// network-profile name lives in config.net_profile.name).
  std::string pattern;
  std::string label;
  /// Wire-format tags, one per named axis: the cell's value of every axis
  /// the matrix declares (sets to anything but its single default), empty
  /// otherwise. Labels and outcome lines carry a tagged axis's segment
  /// and field, so matrices that leave an axis at its default — the
  /// pinned legacy matrices above all — keep their bytes. The strategy
  /// tag is always empty: faults reach the wire through the fault list.
  PerAxis<std::string> tags;
  /// Wire-format gate for the near-miss axis (same convention as the tags
  /// above): true only when the matrix opted in via record_near_miss(), so
  /// legacy outcome lines never grow the new fields.
  bool near_miss = false;
};

/// Builder for the cross product. Each setter replaces one dimension; the
/// defaults give a single authenticated Strong-validity cell at n=4, t=1
/// with t silent faults. A named axis's setter also decides its wire gate:
/// the axis is declared, and tags every cell, unless set to exactly its
/// single default.
class ScenarioMatrix {
 public:
  ScenarioMatrix();
  ScenarioMatrix& vc_kinds(std::vector<VcKind> v);
  ScenarioMatrix& validities(std::vector<ValidityKind> v);
  /// Proposal-pattern names (PatternRegistry); default {"rotating"}, the
  /// historical (p + seed) % domain assignment.
  ScenarioMatrix& patterns(std::vector<std::string> names);
  ScenarioMatrix& faults(std::vector<FaultSpec> v);
  /// The one setter of the named axes other than strategy (which faults()
  /// sets): stores `values` for `axis` and decides its wire gate. The
  /// typed setters above and below call it. Throws std::invalid_argument
  /// for the strategy axis.
  ScenarioMatrix& declare(Axis axis, std::vector<std::string> values);
  /// Keeps only the values of `axis` named in `names`; on the strategy
  /// axis, the fault specs whose effective strategy is named ("none"
  /// selects the fault-free spec). Throws std::invalid_argument for an
  /// empty list, for a name the axis's check() rejects, and for a name
  /// that selects no value of this matrix (nothing requested may be
  /// dropped silently) — this is what the CLIs' filter flags call. The
  /// wire gate is left alone: a filter never changes the bytes of the
  /// cells it keeps.
  ScenarioMatrix& keep(Axis axis, const std::vector<std::string>& names);
  /// (n, t) pairs; every pair must satisfy 0 <= t < n.
  ScenarioMatrix& sizes(std::vector<std::pair<int, int>> nt);
  /// Network-profile names (named_network_profile()); default
  /// {"uniform"}, the legacy stock network.
  ScenarioMatrix& network_profiles(std::vector<std::string> names);
  /// Certificate backends (ScenarioConfig::cert_mode); default
  /// {kPerVote}, the legacy one-verify-per-vote wire format.
  ScenarioMatrix& cert_modes(std::vector<core::CertMode> modes);
  /// Topology names (named_topology(): "full-mesh" / "committee-<k>");
  /// default {"full-mesh"}, the legacy everyone-runs-the-stack shape.
  ScenarioMatrix& topologies(std::vector<std::string> names);
  ScenarioMatrix& gsts(std::vector<Time> v);
  ScenarioMatrix& deltas(std::vector<Time> v);
  ScenarioMatrix& seeds(std::vector<std::uint64_t> v);
  /// The finite proposal domain [0, domain_size) the patterns draw from.
  /// Throws std::invalid_argument for domain_size < 2.
  ScenarioMatrix& proposal_domain(Value domain_size);
  /// Opt into the near-miss wire fields (SweepPoint::near_miss on every
  /// cell): outcome lines gain margin / conflicting-vote / slack fields.
  /// Off by default so every pinned legacy matrix stays byte-identical.
  ScenarioMatrix& record_near_miss(bool enabled = true);
  /// Simulated-time horizon for every cell (ScenarioConfig::horizon).
  /// The default matches ScenarioConfig's (1e9) — effectively unbounded,
  /// which is fine for curated matrices where every run decides. The
  /// adversary search lowers it: a stalled stack re-arms view timers
  /// forever, so a non-terminating candidate would otherwise grind through
  /// events to 1e9 simulated time. Throws std::invalid_argument unless
  /// positive and finite.
  ScenarioMatrix& horizon(Time cap);

  /// Number of cells the cross product will produce.
  [[nodiscard]] std::size_t size() const;

  /// O(1) random access into the cross product: decodes `index` as a
  /// mixed-radix number over the dimension sizes (nesting vc > validity >
  /// pattern > fault > size > net-profile > gst > delta > seed >
  /// cert-mode > topology, topology fastest-varying — exactly the order
  /// build() enumerates) and
  /// constructs that one cell. This is what makes 1e6+-cell matrices
  /// tractable: a shard enumerates its slice cell by cell without ever
  /// materializing the full point vector, and the index ↔ cell mapping is
  /// stable across processes and machines as long as the dimensions
  /// match. Shard files and checkpoints index cells by this order, so it
  /// is pinned here, not derived from the axis table. Throws
  /// std::invalid_argument on bad dimensions and std::out_of_range for
  /// index >= size().
  [[nodiscard]] SweepPoint point_at(std::size_t index) const;

  /// Materializes the cross product: point_at() over [0, size()). Every
  /// returned config passes harness::validate(). Throws
  /// std::invalid_argument on bad dimensions.
  [[nodiscard]] std::vector<SweepPoint> build() const;

 private:
  /// Shared dimension validation for build()/point_at().
  void check_dimensions() const;
  std::vector<VcKind> vcs_{VcKind::kAuthenticated};
  std::vector<ValidityKind> validities_{ValidityKind::kStrong};
  std::vector<FaultSpec> faults_{FaultSpec{}};
  std::vector<std::pair<int, int>> sizes_{{4, 1}};
  /// Values of the string-valued named axes (cert modes as tokens); the
  /// strategy slot stays empty, since faults_ holds that axis.
  PerAxis<std::vector<std::string>> values_;
  PerAxis<bool> declared_;
  std::vector<Time> gsts_{0.0};
  std::vector<Time> deltas_{1.0};
  std::vector<std::uint64_t> seeds_{1};
  Value domain_ = 3;
  Time horizon_ = 1e9;
  bool near_miss_ = false;
};

/// Result of one cell: the raw RunResult plus the verdicts of the paper's
/// three properties (Termination / Agreement / Validity) against the real
/// input configuration of the execution. The flags are derived from
/// `report` (core::check_execution over the pruned correct-process
/// decisions), which also carries the per-property violation messages —
/// so a liveness miss and a validity breach are distinguishable at a
/// glance.
struct SweepOutcome {
  SweepPoint point;
  RunResult result;
  core::ExecutionReport report;
  bool decided = false;      // = report.termination
  bool agreement = true;     // = report.agreement
  bool validity_ok = true;   // = report.validity
  std::string error;         // exception text if the run threw
};

/// Runs a single cell (what the pool workers execute).
[[nodiscard]] SweepOutcome run_point(const SweepPoint& point);

/// Fans cells out over `jobs` worker threads. Outcome order always matches
/// the input order, and each outcome is independent of the job count.
class SweepRunner {
 public:
  explicit SweepRunner(int jobs = 1);

  [[nodiscard]] int jobs() const { return jobs_; }

  /// The outcomes of `points`, in order. An exception thrown while running
  /// a cell is rethrown here, at any job count.
  [[nodiscard]] std::vector<SweepOutcome> run(
      const std::vector<SweepPoint>& points) const;

  /// Streams the outcomes of the matrix slice [begin, end) to `on_outcome`
  /// in strictly ascending index order, materializing no point vector:
  /// cells are decoded on demand via point_at() and completed outcomes are
  /// buffered only inside a bounded reorder window (workers that run ahead
  /// of the emit cursor block), so memory is O(jobs), not O(end - begin).
  /// Concatenating run_range() over any partition of [0, size()) yields
  /// exactly the outcomes of run(build()) — this is the contract the
  /// sharded sweep is built on. The sink is called from worker threads but
  /// never concurrently; an exception it throws — or one thrown while
  /// decoding a cell (e.g. a custom pattern violating the domain
  /// contract) — aborts the sweep and is rethrown here, at any job count.
  /// Throws std::invalid_argument unless begin <= end <= matrix.size().
  void run_range(const ScenarioMatrix& matrix, std::size_t begin,
                 std::size_t end,
                 const std::function<void(SweepOutcome&&)>& on_outcome) const;

 private:
  /// The one worker pool behind run() and run_range(): hands
  /// evaluate(begin) .. evaluate(end - 1) to `sink` in index order, with
  /// the bounded reorder window and exception forwarding described above.
  void stream(std::size_t begin, std::size_t end,
              const std::function<SweepOutcome(std::size_t)>& evaluate,
              const std::function<void(SweepOutcome&&)>& sink) const;

  int jobs_;
};

/// Named matrices shared by the CLI, perfbench and the tests:
///   "smoke"     — all stacks x the four legacy strategies, n=4 (quick
///                 check);
///   "full"      — all stacks x {Strong, Weak, Median, ConvexHull} x the
///                 four legacy strategies (plus fault-free) x {(4,1),
///                 (7,2)} x two GSTs x three seeds: 720 scenarios (pinned:
///                 its per-scenario JSON is the cross-version determinism
///                 reference);
///   "byzantine" — all stacks x every built-in strategy (plus fault-free),
///                 n=4, two seeds: the strategy-coverage matrix;
///   "validity"  — all stacks x all five validity properties x every
///                 built-in proposal pattern x every network profile over
///                 a 2-value domain at n=4, t=1: the input-space coverage
///                 matrix, on which CorrectProposal validity is solvable
///                 (pigeonhole over domain 2) — unreachable from the old
///                 hard-coded 3-value rotating assignment;
///   "certs"     — all stacks x both certificate backends (per-vote and
///                 aggregate) x fault-free / crash / equivocate at {(4,1),
///                 (7,2)}, two seeds: the cert_mode coverage matrix. The
///                 cert axis is non-trivial, so its cells carry the
///                 cert_mode wire field — the pinned legacy matrices never
///                 do;
///   "committee" — the large-n topology matrix: all stacks x committee
///                 topologies (k in {4, 7, 10}) x both certificate
///                 backends x fault-free / crash at n in {50, 100, 200}
///                 (faults land on the highest ids, i.e. listeners), two
///                 seeds, unanimous proposals. The topology and cert axes
///                 are non-trivial, so its cells carry the topology and
///                 cert_mode wire fields; test_topology pins its job-count
///                 determinism.
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] ScenarioMatrix named_matrix(const std::string& name);

}  // namespace valcon::harness
