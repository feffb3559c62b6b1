// Seeded adversary search (harness/search.hpp): verdict classification and
// wire tokens, candidate resolution (bounded horizon, fault placement),
// near-miss scoring, job-count-independent determinism of the whole
// report, shrinker idempotence and minimization, the planted colluding
// violations the search must find and shrink, the counterexample cell
// round trip (exact integers, escaped names), and the ExecutionReport edge cases the verdicts rest on
// (pruned faulty decisions, no-decision runs, grace-cut vs genuine stall,
// queue_drained both ways).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "valcon/core/execution_checker.hpp"
#include "valcon/harness/search.hpp"
#include "valcon/harness/validity_kind.hpp"

using namespace valcon;
using harness::Axis;
using harness::Candidate;
using harness::classify;
using harness::CorpusCell;
using harness::Counterexample;
using harness::evaluate;
using harness::SearchOptions;
using harness::SearchReport;
using harness::SweepOutcome;
using harness::ValidityKind;
using harness::VcKind;
using harness::Verdict;

namespace {

/// The unsound mining space the corpus came from: n <= 3t sizes where
/// violations are expected, over a tight budget so tests stay fast.
SearchOptions unsound_options(std::uint64_t search_seed) {
  SearchOptions options;
  options.space.sizes = {{3, 1}, {4, 2}};
  options.search_seed = search_seed;
  options.budget = 48;
  options.population = 12;
  return options;
}

/// The cell cell_json writes for `c`. parse_cell reads only the wire, so
/// no run is needed.
std::string cell_text(const Candidate& c) {
  Counterexample cx;
  cx.candidate = c;
  cx.verdict = Verdict::kTermination;
  return harness::cell_json(cx);
}

/// `json` with the value of field `key` replaced by `value`.
std::string with_field(std::string json, const std::string& key,
                       const std::string& value) {
  const std::string needle = "\"" + key + "\": ";
  const auto start = json.find(needle) + needle.size();
  const auto end = json.find_first_of(",}", start);
  return json.replace(start, end - start, value);
}

}  // namespace

// ------------------------------------------------------ verdicts & tokens

TEST(Verdict, ClassifyNamesTheMostSevereViolation) {
  SweepOutcome outcome;
  outcome.decided = true;
  EXPECT_EQ(classify(outcome), Verdict::kClean);
  outcome.decided = false;
  EXPECT_EQ(classify(outcome), Verdict::kTermination);
  outcome.validity_ok = false;
  EXPECT_EQ(classify(outcome), Verdict::kValidity);
  outcome.agreement = false;  // disagreement outranks the validity breach
  EXPECT_EQ(classify(outcome), Verdict::kAgreement);
  outcome.error = "boom";  // an errored run outranks everything
  EXPECT_EQ(classify(outcome), Verdict::kError);
}

TEST(Verdict, TokensRoundTrip) {
  for (const Verdict v :
       {Verdict::kClean, Verdict::kTermination, Verdict::kAgreement,
        Verdict::kValidity, Verdict::kError}) {
    const auto back = harness::verdict_from_token(harness::verdict_token(v));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
  }
  EXPECT_FALSE(harness::verdict_from_token("bogus").has_value());
}

TEST(Verdict, VcAndValidityTokensRoundTrip) {
  for (const VcKind vc : {VcKind::kAuthenticated, VcKind::kNonAuthenticated,
                          VcKind::kFast}) {
    const auto back = harness::vc_from_token(harness::vc_token(vc));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, vc);
  }
  for (const ValidityKind kind :
       {ValidityKind::kStrong, ValidityKind::kWeak,
        ValidityKind::kCorrectProposal, ValidityKind::kMedian,
        ValidityKind::kConvexHull}) {
    const auto back =
        harness::validity_from_token(harness::validity_token(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(harness::vc_from_token("auth(Alg1)").has_value());
  EXPECT_FALSE(harness::validity_from_token("Strong").has_value());
}

// ---------------------------------------------------- candidate resolution

TEST(CandidatePoint, ResolvesFaultsAndBoundsTheHorizon) {
  Candidate c;  // silent, fault_count -1, n=4, t=1, gst=0, delta=1
  c.gst = 5.0;
  const auto point = harness::candidate_point(c);
  ASSERT_EQ(point.config.faults.size(), 1u);
  EXPECT_EQ(point.config.faults.begin()->first, 3);  // highest id faulty
  EXPECT_DOUBLE_EQ(point.config.horizon, 5.0 + 200.0);
  EXPECT_TRUE(point.near_miss);

  Candidate none = c;
  none.named[Axis::kStrategy] = "none";
  EXPECT_TRUE(harness::candidate_point(none).config.faults.empty());
}

TEST(CandidatePoint, UnknownStrategySurfacesAsAnErrorVerdict) {
  Candidate c;
  c.named[Axis::kStrategy] = "no-such-strategy";
  const SweepOutcome outcome = evaluate(c);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ(classify(outcome), Verdict::kError);
}

TEST(NearMissScore, RewardsCloserRuns) {
  SweepOutcome errored;
  errored.error = "boom";
  errored.result.min_vote_margin = 0;
  EXPECT_EQ(harness::near_miss_score(errored), 0.0);

  SweepOutcome far;
  far.result.queue_drained = true;
  SweepOutcome sliver = far;
  sliver.result.min_vote_margin = 0;  // one flipped vote from a rival QC
  SweepOutcome comfortable = far;
  comfortable.result.min_vote_margin = 5;
  EXPECT_GT(harness::near_miss_score(sliver),
            harness::near_miss_score(comfortable));
  EXPECT_GT(harness::near_miss_score(comfortable),
            harness::near_miss_score(far));

  SweepOutcome conflicting = far;
  conflicting.result.conflicting_votes = 4;
  EXPECT_GT(harness::near_miss_score(conflicting),
            harness::near_miss_score(far));
}

// ------------------------------------------------------------ determinism

TEST(Search, ReportBytesIdenticalAcrossJobCounts) {
  SearchOptions options = unsound_options(42);
  options.jobs = 1;
  const std::string jobs1 = harness::report_json(harness::run_search(options));
  options.jobs = 4;
  const std::string jobs4 = harness::report_json(harness::run_search(options));
  options.jobs = 8;
  const std::string jobs8 = harness::report_json(harness::run_search(options));
  EXPECT_EQ(jobs1, jobs4);
  EXPECT_EQ(jobs1, jobs8);
  // The unsound space must actually yield violations, or the byte
  // comparison above proves nothing about the interesting code paths.
  const SearchReport report = harness::run_search(options);
  EXPECT_FALSE(report.counterexamples.empty());
}

TEST(Search, SoundSpaceStaysClean) {
  // Over the default space (n > 3t) any violation is a simulator or
  // protocol bug — the same invariant the CI smoke run asserts.
  SearchOptions options;
  options.budget = 32;
  options.population = 8;
  options.jobs = 4;
  const SearchReport report = harness::run_search(options);
  EXPECT_TRUE(report.counterexamples.empty());
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.evaluated, 32u);
  // Clean candidates still rank by near-miss score.
  EXPECT_TRUE(report.best_candidate.has_value());
  EXPECT_GT(report.best_score, 0.0);
}

// -------------------------------------------------- planted colluding bugs

TEST(Search, FindsAndShrinksPlantedColludingEquivocation) {
  SearchOptions options = unsound_options(5);
  options.space.sizes = {{3, 1}};
  options.space.named[Axis::kStrategy] = {"collude-equivocate"};
  options.space.vcs = {VcKind::kAuthenticated};
  options.space.named[Axis::kNetProfile] = {"uniform"};
  options.space.named[Axis::kPattern] = {"rotating"};
  options.jobs = 4;
  const SearchReport report = harness::run_search(options);
  ASSERT_FALSE(report.counterexamples.empty());
  bool agreement_found = false;
  for (const Counterexample& cx : report.counterexamples) {
    if (cx.verdict != Verdict::kAgreement) continue;
    agreement_found = true;
    // Shrunk to the minimal cell: smallest size in the space, the full
    // colluding group (-1), and a verdict the shrunk cell reproduces.
    EXPECT_EQ(cx.candidate.n, 3);
    EXPECT_EQ(cx.candidate.t, 1);
    EXPECT_EQ(cx.candidate.fault_count, -1);
    EXPECT_EQ(classify(evaluate(cx.candidate)), Verdict::kAgreement);
  }
  EXPECT_TRUE(agreement_found);
}

TEST(Search, FindsPlantedColludingWithholding) {
  SearchOptions options = unsound_options(5);
  options.space.sizes = {{3, 1}};
  options.space.named[Axis::kStrategy] = {"collude-withhold"};
  options.space.vcs = {VcKind::kAuthenticated};
  options.space.named[Axis::kNetProfile] = {"uniform"};
  options.jobs = 4;
  const SearchReport report = harness::run_search(options);
  ASSERT_FALSE(report.counterexamples.empty());
  for (const Counterexample& cx : report.counterexamples) {
    EXPECT_EQ(classify(evaluate(cx.candidate)), cx.verdict);
  }
}

// --------------------------------------------------------------- shrinking

TEST(Shrink, IsIdempotent) {
  // The known agreement violation from the committed corpus.
  Candidate c;
  c.named[Axis::kStrategy] = "collude-equivocate";
  c.n = 3;
  c.t = 1;
  c.gst = 30.0;
  c.seed = 2;
  ASSERT_EQ(classify(evaluate(c)), Verdict::kAgreement);
  const SearchOptions options = unsound_options(1);
  const Counterexample once =
      harness::shrink(c, Verdict::kAgreement, options);
  const Counterexample twice =
      harness::shrink(once.candidate, Verdict::kAgreement, options);
  EXPECT_EQ(once.candidate.key(), twice.candidate.key());
  EXPECT_EQ(classify(once.outcome), Verdict::kAgreement);

  // Every cell of the search golden's run (test_thresholds) is at the
  // fixpoint of that run's options. A smaller seed can let an axis that
  // failed at the found seed simplify, so the seed step runs inside the
  // passes, not after them.
  SearchOptions golden;
  golden.search_seed = 42;
  golden.budget = 256;
  golden.jobs = 4;
  golden.space.sizes = {{4, 2}, {3, 1}};
  golden.space.set_pool(Axis::kCertMode, {"per-vote", "aggregate"});
  const SearchReport report = harness::run_search(golden);
  ASSERT_FALSE(report.counterexamples.empty());
  for (const Counterexample& cx : report.counterexamples) {
    EXPECT_EQ(harness::shrink(cx.candidate, cx.verdict, golden).candidate.key(),
              cx.candidate.key());
  }
}

TEST(Shrink, MinimizesAxesAndRederivesTheSeed) {
  // A silent fault under the non-authenticated stack at n=3, t=1 stalls at
  // ANY gst and seed, so shrinking must drive both to their minima.
  Candidate c;
  c.named[Axis::kStrategy] = "silent";
  c.vc = VcKind::kNonAuthenticated;
  c.n = 3;
  c.t = 1;
  c.gst = 30.0;
  c.seed = 9;
  ASSERT_EQ(classify(evaluate(c)), Verdict::kTermination);
  const Counterexample shrunk =
      harness::shrink(c, Verdict::kTermination, unsound_options(1));
  EXPECT_EQ(shrunk.candidate.gst, 0.0);
  EXPECT_EQ(shrunk.candidate.seed, 1u);
  EXPECT_EQ(shrunk.candidate.fault_count, -1);
  EXPECT_GT(shrunk.shrink_probes, 0);
  EXPECT_EQ(classify(shrunk.outcome), Verdict::kTermination);
}

TEST(Shrink, CanonicalizesTheFaultCount) {
  // A count that clamps to t names the same cell as -1; shrinking must
  // fold the two spellings together so dedup and file names agree.
  Candidate c;
  c.named[Axis::kStrategy] = "silent";
  c.vc = VcKind::kNonAuthenticated;
  c.n = 3;
  c.t = 1;
  c.fault_count = 1;
  const Counterexample shrunk =
      harness::shrink(c, Verdict::kTermination, unsound_options(1));
  EXPECT_EQ(shrunk.candidate.fault_count, -1);
}

// ------------------------------------------------------------- wire format

TEST(CellFormat, RoundTripsThroughJsonAndFilename) {
  Candidate c;
  c.named[Axis::kStrategy] = "collude-withhold";
  c.vc = VcKind::kNonAuthenticated;
  c.n = 3;
  c.t = 1;
  c.victims = 1;
  c.observe = 4;
  c.seed = 7;
  // The gated axes off their defaults: each adds a file-name segment. (A
  // silent fault stalls this committee of all three processes.)
  Candidate gated = c;
  gated.named[Axis::kStrategy] = "silent";
  gated.named[Axis::kCertMode] = "aggregate";
  gated.named[Axis::kTopology] = "committee-3";
  for (const auto& [candidate, filename] :
       {std::pair{c, "termination-nonauth-collude-withhold-n3t1-s7.json"},
        std::pair{gated,
                  "termination-nonauth-silent-aggregate-committee-3-n3t1-"
                  "s7.json"}}) {
    Counterexample cx;
    cx.candidate = candidate;
    cx.outcome = evaluate(candidate);
    cx.verdict = classify(cx.outcome);
    ASSERT_EQ(cx.verdict, Verdict::kTermination) << filename;

    const std::string json = harness::cell_json(cx);
    const CorpusCell cell = harness::parse_cell(json);
    EXPECT_TRUE(cell.candidate == candidate) << filename;
    EXPECT_EQ(cell.verdict, cx.verdict);
    EXPECT_EQ(cell.expect_decided, cx.outcome.decided);
    EXPECT_EQ(cell.expect_agreement, cx.outcome.agreement);
    EXPECT_EQ(cell.expect_validity_ok, cx.outcome.validity_ok);
    EXPECT_EQ(harness::cell_filename(cx), filename);
  }
}

TEST(CellFormat, ParserIsStrict) {
  EXPECT_THROW((void)harness::parse_cell("not json"), std::runtime_error);
  EXPECT_THROW((void)harness::parse_cell("{\"schema\": \"other-v9\"}"),
               std::runtime_error);
  // A valid cell with one field removed must be rejected, not defaulted.
  Candidate c;
  c.named[Axis::kStrategy] = "silent";
  c.vc = VcKind::kNonAuthenticated;
  c.n = 3;
  c.t = 1;
  Counterexample cx;
  cx.candidate = c;
  cx.outcome = evaluate(c);
  cx.verdict = classify(cx.outcome);
  std::string json = harness::cell_json(cx);
  const auto pos = json.find("\"seed\"");
  ASSERT_NE(pos, std::string::npos);
  json.erase(pos, json.find(',', pos) + 2 - pos);
  EXPECT_THROW((void)harness::parse_cell(json), std::runtime_error);
}

TEST(CellFormat, IntegerFieldsAreReadExactly) {
  const std::string json = cell_text(Candidate{});
  for (const char* key : {"n", "seed"}) {
    for (const char* bad :
         {"1e300", "inf", "nan", "3.7", "18446744073709551616", "-1"}) {
      EXPECT_THROW((void)harness::parse_cell(with_field(json, key, bad)),
                   std::runtime_error)
          << key << ": " << bad;
    }
  }
  // A double rounds 2^60 + 1 to 2^60 and cannot hold 2^64 - 1.
  for (const std::uint64_t seed : {(std::uint64_t{1} << 60) + 1,
                                   ~std::uint64_t{0}}) {
    Candidate c;
    c.seed = seed;
    EXPECT_EQ(harness::parse_cell(cell_text(c)).candidate.seed, seed);
  }
}

TEST(CellFormat, RejectsImpossibleSizesAndNonFiniteTimes) {
  // Each parses as a number, but names no runnable cell: a NaN or infinite
  // time never reaches the replay's horizon, and the rest would throw
  // std::invalid_argument from candidate_point instead of the parser's
  // error.
  const std::string json = cell_text(Candidate{});  // n=4, t=1, domain 3
  const std::pair<const char*, const char*> bad[] = {
      {"delta", "nan"}, {"delta", "inf"}, {"delta", "0"}, {"gst", "nan"},
      {"gst", "inf"},   {"gst", "-1"},    {"n", "0"},     {"t", "4"},
      {"t", "5"},       {"domain", "1"},  {"domain", "0"}};
  for (const auto& [key, value] : bad) {
    EXPECT_THROW((void)harness::parse_cell(with_field(json, key, value)),
                 std::runtime_error)
        << key << ": " << value;
  }
  EXPECT_NO_THROW((void)harness::parse_cell(with_field(json, "t", "3")));
}

TEST(CellFormat, EscapedNamesRoundTrip) {
  // parse_cell looks up only the topology name, so none of these needs
  // registering.
  Candidate c;
  c.named[Axis::kStrategy] = "a\"b";
  c.named[Axis::kPattern] = "back\\slash \"quoted\"";
  c.named[Axis::kNetProfile] = "ends in \\";
  const Candidate back = harness::parse_cell(cell_text(c)).candidate;
  EXPECT_EQ(back.named[Axis::kStrategy], c.named[Axis::kStrategy]);
  EXPECT_EQ(back.named[Axis::kPattern], c.named[Axis::kPattern]);
  EXPECT_EQ(back.named[Axis::kNetProfile], c.named[Axis::kNetProfile]);
  EXPECT_TRUE(back == c);
}

// ------------------------------------------- ExecutionReport edge cases

TEST(ExecutionReport, PrunesFaultyDecisionsFromEveryProperty) {
  const auto validity = harness::make_validity(ValidityKind::kStrong, 4, 1);
  // Unanimous correct proposals: Strong validity then admits only 1.
  const std::vector<Value> proposals{1, 1, 1, 1};
  const std::map<ProcessId, Value> decisions{{0, 1}, {1, 1}, {2, 1}, {3, 2}};
  // P3 faulty: its rogue decision (2, inadmissible and conflicting) is
  // unconstrained, so every property still holds.
  const auto pruned =
      core::check_execution(*validity, 4, 1, proposals, {3}, decisions);
  EXPECT_TRUE(pruned.ok());
  EXPECT_TRUE(pruned.violations.empty());
  // Same execution with P3 correct: the rogue decision now violates both
  // Agreement and Validity.
  const auto kept =
      core::check_execution(*validity, 4, 1, proposals, {}, decisions);
  EXPECT_TRUE(kept.termination);
  EXPECT_FALSE(kept.agreement);
  EXPECT_FALSE(kept.validity);
  EXPECT_FALSE(kept.violations.empty());
}

TEST(ExecutionReport, NoDecisionRunNeverArmsTheGraceCutoff) {
  // Genuine stall: one silent fault starves the n=3, t=1 non-authenticated
  // stack of its quorum, so no correct process ever decides — the grace
  // cutoff is never armed and the run grinds to the (bounded) horizon.
  Candidate c;
  c.named[Axis::kStrategy] = "silent";
  c.vc = VcKind::kNonAuthenticated;
  c.n = 3;
  c.t = 1;
  const SweepOutcome outcome = evaluate(c);
  ASSERT_TRUE(outcome.error.empty());
  EXPECT_FALSE(outcome.decided);
  EXPECT_FALSE(outcome.report.termination);
  EXPECT_FALSE(outcome.report.violations.empty());
  EXPECT_EQ(classify(outcome), Verdict::kTermination);
  EXPECT_EQ(outcome.result.grace_cutoff, -1.0);
  EXPECT_FALSE(outcome.result.queue_drained);
  // Far past any decision latency: only the horizon stopped it.
  EXPECT_GT(outcome.result.end_time, 100.0);
}

TEST(ExecutionReport, GraceCutDiffersFromQuiescentDrain) {
  // Fault-free authenticated run: decides, then the queue drains on its
  // own, strictly before the armed cutoff.
  Candidate drained;
  drained.named[Axis::kStrategy] = "none";
  const SweepOutcome quiet = evaluate(drained);
  ASSERT_TRUE(quiet.error.empty());
  EXPECT_TRUE(quiet.decided);
  EXPECT_TRUE(quiet.result.queue_drained);
  EXPECT_GE(quiet.result.grace_cutoff, 0.0);
  EXPECT_LT(quiet.result.end_time, quiet.result.grace_cutoff);

  // Equivocation under the non-authenticated stack: still decides, but
  // residual chatter keeps the queue busy until the grace window cuts it —
  // a grace-cut, not a stall: the cutoff was armed.
  Candidate chatty;
  chatty.named[Axis::kStrategy] = "equivocate";
  chatty.vc = VcKind::kNonAuthenticated;
  const SweepOutcome cut = evaluate(chatty);
  ASSERT_TRUE(cut.error.empty());
  EXPECT_TRUE(cut.decided);
  EXPECT_FALSE(cut.result.queue_drained);
  EXPECT_GE(cut.result.grace_cutoff, 0.0);
  EXPECT_LE(cut.result.end_time, cut.result.grace_cutoff);
}
