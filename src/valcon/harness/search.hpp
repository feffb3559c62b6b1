// Seeded adversary search with counterexample shrinking.
//
// Hand-written adversaries (harness/strategy.hpp) each encode one known
// attack; the search below *mines* for violations instead: it mutates over
// the same axes the sweep matrix exposes — adversary strategy (including
// the colluding multi-process strategies), proposal pattern, network
// profile, cert mode, topology, protocol stack, system size, timing and
// seed — scores non-violating candidates by how close they came to a
// violation (the near-miss fields on RunResult), and shrinks every
// violation it finds to a minimal replayable (config, seed) cell.
//
// Determinism contract: a search is a pure function of (SearchOptions,
// search_seed). Candidate evaluation fans out through SweepRunner, whose
// results are input-ordered and job-count-independent; all random choices
// come from one sim::Rng consumed on the coordinating thread. So the full
// SearchReport — byte for byte, via report_json() — is identical whatever
// --jobs is.
//
// A cell's identity is declared once, in search.cpp: its fields in
// corpus-JSON order (the cell writer, parse_cell, key() and the file name
// derive from that list), the draw order sampling and mutation share, and
// the shrink order.
//
// Shrinking is axis-wise minimization run to a fixpoint (so it is
// idempotent: shrinking a shrunk cell changes nothing). The last step of
// each pass re-derives the seed (the smallest seed in [1, seed_tries]
// that still reproduces the verdict replaces the found seed), and a pass
// that accepts a smaller seed runs again, since an axis that failed at
// the old seed may simplify at the new one. Shrunk cells serialize as
// "valcon-counterexample-v1" JSON; the committed corpus under
// tests/corpus/ is replayed by the test_corpus_replay target through the
// exact same candidate_point() -> run_point() path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "valcon/harness/sweep.hpp"

namespace valcon::harness {

/// What a run did, as a single severity-ordered verdict. kClean means all
/// three properties held; the three violation verdicts name the *most
/// severe* violated property (agreement > validity > termination — a
/// disagreeing run usually also fails validity, and naming it a validity
/// breach would bury the lede); kError means the run threw.
enum class Verdict {
  kClean,
  kTermination,
  kAgreement,
  kValidity,
  kError,
};

[[nodiscard]] Verdict classify(const SweepOutcome& outcome);

/// Round-trippable wire tokens ("clean", "termination", "agreement",
/// "validity", "error").
[[nodiscard]] std::string verdict_token(Verdict v);
[[nodiscard]] std::optional<Verdict> verdict_from_token(
    const std::string& token);

/// Short round-trippable tokens for the corpus cell format. to_string(VcKind)
/// emits display names ("auth(Alg1)"); cells use "auth" / "nonauth" /
/// "fast" and "strong" / "weak" / "correct-proposal" / "median" /
/// "convex-hull".
[[nodiscard]] std::string vc_token(VcKind vc);
[[nodiscard]] std::optional<VcKind> vc_from_token(const std::string& token);
[[nodiscard]] std::string validity_token(ValidityKind kind);
[[nodiscard]] std::optional<ValidityKind> validity_from_token(
    const std::string& token);

/// One concrete cell of the search space: every axis pinned. The candidate
/// is the search's unit of mutation AND the corpus cell's replay identity —
/// candidate_point() resolves it through a single-cell ScenarioMatrix, so
/// replay reuses the exact FaultSpec / pattern / profile resolution the
/// sweep uses (faulty ids are the highest ids, negative fields resolve
/// per-scenario, near-miss recording is on).
struct Candidate {
  /// The five named axes (sweep.hpp's axis table), each at its table
  /// default until set; the cert mode is held as its token, as in
  /// ScenarioMatrix. Strategy "none" is fault-free. Cert mode and topology
  /// are wire-gated: at their defaults they are absent from key(), the cell
  /// JSON and the cell file name, so every older corpus cell keeps its
  /// bytes and identity. A committee larger than n evaluates to an error
  /// verdict (run_universal rejects it), never a crash.
  PerAxis<std::string> named = axis_defaults();
  int fault_count = -1;  // -1 resolves to t
  VcKind vc = VcKind::kAuthenticated;
  ValidityKind validity = ValidityKind::kStrong;
  int n = 4;
  int t = 1;
  Time gst = 0.0;
  Time delta = 1.0;
  Value domain = 3;
  int victims = -1;  // adaptive / collude-withhold; -1 = Fault default
  int observe = -1;  // adaptive / collude-withhold; -1 = Fault default
  std::uint64_t seed = 1;

  [[nodiscard]] bool operator==(const Candidate& other) const = default;
  /// Stable human-readable identity (also the dedup key): the cell's
  /// fields in corpus-JSON order, '/'-separated.
  [[nodiscard]] std::string key() const;
};

/// Resolves the candidate into a runnable cell via a single-cell
/// ScenarioMatrix. Throws std::invalid_argument for axis values the
/// registries reject.
[[nodiscard]] SweepPoint candidate_point(const Candidate& c);

/// candidate_point() + run_point().
[[nodiscard]] SweepOutcome evaluate(const Candidate& c);

/// How close a clean run came to a violation; higher = closer. Folds the
/// RunResult near-miss fields: small positive vote margins, conflicting
/// votes reaching the voting stage, a run cut by the grace window rather
/// than draining, and little slack between the end of the run and the
/// grace cutoff. Deterministic; 0.0 for errored runs.
[[nodiscard]] double near_miss_score(const SweepOutcome& outcome);

/// The value pools each axis draws from. Defaults are the SOUND regime
/// (n > 3t): a search over them finding any violation is a bug, which is
/// exactly what the CI smoke run asserts. Counterexamples for the corpus
/// come from explicitly unsound sizes (e.g. --sizes 4/2).
struct SearchSpace {
  /// The named-axis pools, in Axis order (cert modes as tokens).
  PerAxis<std::vector<std::string>> named{{{
      // strategy
      {"silent", "crash", "equivocate", "delay", "mutate",
       "equivocate-scheduled", "adaptive", "collude-equivocate",
       "collude-withhold", "forge-qc"},
      // pattern
      {"rotating", "unanimous", "split", "adversarial"},
      // network profile
      {"uniform", "pre-gst-starve", "targeted-slow-links"},
      // cert mode: per-vote alone keeps the historical search
      // byte-identical; `--cert-modes per-vote,aggregate` widens the pool
      // so forge-qc (inert per-vote) has QCs to forge.
      {"per-vote"},
      // topology: `--topologies full-mesh,committee-4` lets the search
      // attack the committee announce/relay layer; pair it with sizes large
      // enough for the committees, since a committee larger than n is an
      // error cell.
      {"full-mesh"},
  }}};
  std::vector<VcKind> vcs{VcKind::kAuthenticated, VcKind::kNonAuthenticated,
                          VcKind::kFast};
  std::vector<ValidityKind> validities{ValidityKind::kStrong};
  std::vector<std::pair<int, int>> sizes{{4, 1}, {7, 2}};
  std::vector<Time> gsts{0.0, 5.0, 30.0};
  std::vector<Time> deltas{1.0};
  std::vector<Value> domains{3};

  /// Replaces the pool of one named axis with `names`, each first passed
  /// to the axis's check() (what valcon_search's filter flags call).
  /// Throws std::invalid_argument for an unknown name.
  void set_pool(Axis axis, const std::vector<std::string>& names);
};

struct SearchOptions {
  SearchSpace space;
  std::uint64_t search_seed = 1;
  /// Total candidate evaluations the generational loop may spend (shrink
  /// probes are budgeted separately, see shrink()).
  int budget = 256;
  /// Candidates evaluated per generation.
  int population = 16;
  int jobs = 1;
  bool shrink = true;
  /// Seed re-derivation tries the smallest reproducing seed in
  /// [1, seed_tries].
  int seed_tries = 16;
};

/// One found-and-shrunk violation.
struct Counterexample {
  Candidate candidate;  // the shrunk cell
  Verdict verdict = Verdict::kClean;
  /// Outcome of the shrunk cell (re-evaluated after shrinking).
  SweepOutcome outcome;
  int shrink_probes = 0;  // probes spent minimizing this cell
};

struct SearchReport {
  std::uint64_t search_seed = 0;
  int budget = 0;
  std::uint64_t evaluated = 0;  // generational evaluations actually spent
  std::uint64_t errors = 0;     // candidates whose run threw (not shrunk)
  /// Shrunk violations, deduplicated by Candidate::key(), in discovery
  /// order.
  std::vector<Counterexample> counterexamples;
  /// Best near-miss among clean candidates (score then discovery order).
  double best_score = 0.0;
  std::optional<Candidate> best_candidate;
};

/// Runs the generational search loop: seed a population from the space,
/// evaluate a generation through SweepRunner, collect violations, select
/// near-miss elites, mutate them into the next generation, repeat until
/// the budget is spent; then shrink every distinct violation. Throws
/// std::invalid_argument for an empty axis pool or non-positive
/// budget/population.
[[nodiscard]] SearchReport run_search(const SearchOptions& options);

/// Axis-wise minimization of a violating candidate to a fixpoint, seed
/// re-derivation included, in at most 256 probes. Returns the
/// counterexample with the shrunk cell re-evaluated and the probes spent.
/// Precondition:
/// classify(evaluate(c)) == verdict.
[[nodiscard]] Counterexample shrink(const Candidate& c, Verdict verdict,
                                    const SearchOptions& options);

// ------------------------------------------------------------ wire format

/// Serializes one counterexample as a "valcon-counterexample-v1" JSON
/// object (multi-line, trailing newline): the candidate axes plus an
/// "expect" block with the verdict and the decided/agreement/validity_ok
/// flags the replay must reproduce. Deterministic bytes.
[[nodiscard]] std::string cell_json(const Counterexample& cx);

/// Parses a cell written by cell_json() (strict: unknown schema or any
/// missing/malformed field throws std::runtime_error). Returns the
/// candidate plus the expected verdict and flags.
struct CorpusCell {
  Candidate candidate;
  Verdict verdict = Verdict::kClean;
  bool expect_decided = false;
  bool expect_agreement = true;
  bool expect_validity_ok = true;
};
[[nodiscard]] CorpusCell parse_cell(const std::string& json);

/// Canonical file name for a cell within a corpus directory.
[[nodiscard]] std::string cell_filename(const Counterexample& cx);

/// The whole report as deterministic JSON (no wall-clock, no host state):
/// header (search_seed, budget, evaluated), the shrunk counterexample
/// cells, and the best near-miss block.
[[nodiscard]] std::string report_json(const SearchReport& report);

}  // namespace valcon::harness
