// Scenario-matrix engine (harness/sweep.hpp) and the strategy-based fault
// model: matrix construction, thread-count-independent determinism, crash
// exactly at GST, equivocation and delay faults under every
// vector-consensus stack, and loud rejection of misconfigured scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "valcon/core/lambda.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"

using namespace valcon;
using namespace valcon::core;
using harness::FaultSpec;
using harness::ScenarioConfig;
using harness::ScenarioMatrix;
using harness::SweepOutcome;
using harness::SweepPoint;
using harness::SweepRunner;
using harness::ValidityKind;
using harness::VcKind;

namespace {

constexpr std::initializer_list<VcKind> kAllVcs = {
    VcKind::kAuthenticated, VcKind::kNonAuthenticated, VcKind::kFast};

void expect_equal_results(const std::vector<SweepOutcome>& a,
                          const std::vector<SweepOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].point.label);
    EXPECT_EQ(a[i].result.decisions, b[i].result.decisions);
    EXPECT_EQ(a[i].result.decide_times, b[i].result.decide_times);
    EXPECT_EQ(a[i].result.message_complexity, b[i].result.message_complexity);
    EXPECT_EQ(a[i].result.word_complexity, b[i].result.word_complexity);
    EXPECT_EQ(a[i].result.messages_total, b[i].result.messages_total);
    EXPECT_EQ(a[i].result.events, b[i].result.events);
    EXPECT_EQ(a[i].result.last_decision_time, b[i].result.last_decision_time);
    EXPECT_EQ(a[i].result.by_type, b[i].result.by_type);
    EXPECT_EQ(a[i].error, b[i].error);
  }
}

}  // namespace

// ------------------------------------------------------------- the matrix

TEST(ScenarioMatrix, SizeIsTheCrossProduct) {
  ScenarioMatrix matrix;
  matrix.vc_kinds({VcKind::kAuthenticated, VcKind::kFast})
      .validities({ValidityKind::kStrong, ValidityKind::kMedian})
      .faults({FaultSpec{"silent", 0}, FaultSpec{"crash", -1}})
      .sizes({{4, 1}, {7, 2}})
      .gsts({0.0, 3.0})
      .seeds({1, 2, 3});
  EXPECT_EQ(matrix.size(), 2u * 2u * 2u * 2u * 2u * 3u);
  const auto points = matrix.build();
  ASSERT_EQ(points.size(), matrix.size());
  std::set<std::string> labels;
  for (const auto& point : points) {
    EXPECT_NO_THROW(harness::validate(point.config)) << point.label;
    labels.insert(point.label);
  }
  EXPECT_EQ(labels.size(), points.size()) << "labels must be unique";
}

TEST(ScenarioMatrix, NamedMatricesBuildAndFullHasAtLeast500Cells) {
  const auto smoke = harness::named_matrix("smoke").build();
  EXPECT_GE(smoke.size(), 24u);
  const auto full = harness::named_matrix("full").build();
  EXPECT_GE(full.size(), 500u);
  // The full matrix must exercise every stack and every fault kind.
  std::set<VcKind> vcs;
  std::set<std::string> fault_kinds;
  for (const auto& point : full) {
    vcs.insert(point.config.vc);
    for (const auto& [pid, fault] : point.config.faults) {
      fault_kinds.insert(fault.strategy);
    }
  }
  EXPECT_EQ(vcs.size(), 3u);
  EXPECT_EQ(fault_kinds.size(), 4u);
  EXPECT_THROW(harness::named_matrix("nope"), std::invalid_argument);
}

TEST(ScenarioMatrix, RejectsBadDimensions) {
  EXPECT_THROW(ScenarioMatrix().sizes({{4, 4}}).build(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioMatrix().proposal_domain(1).build(),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ScenarioMatrix().sizes({{4, 4}}).point_at(0)),
               std::invalid_argument);
}

// ------------------------------------------------------- lazy indexing

TEST(ScenarioMatrix, PointAtMatchesBuildOnThePinnedFullMatrix) {
  // point_at is the one source of truth for the index ↔ cell mapping; the
  // pinned "full" matrix is the reference it must reproduce cell for cell.
  const ScenarioMatrix matrix = harness::named_matrix("full");
  const auto points = matrix.build();
  ASSERT_EQ(points.size(), matrix.size());
  for (const SweepPoint& expected : points) {
    const SweepPoint lazy = matrix.point_at(expected.index);
    SCOPED_TRACE(expected.label);
    EXPECT_EQ(lazy.index, expected.index);
    EXPECT_EQ(lazy.label, expected.label);
    EXPECT_EQ(lazy.validity, expected.validity);
    EXPECT_EQ(lazy.config.n, expected.config.n);
    EXPECT_EQ(lazy.config.t, expected.config.t);
    EXPECT_EQ(lazy.config.gst, expected.config.gst);
    EXPECT_EQ(lazy.config.delta, expected.config.delta);
    EXPECT_EQ(lazy.config.seed, expected.config.seed);
    EXPECT_EQ(lazy.config.vc, expected.config.vc);
    EXPECT_EQ(lazy.config.proposals, expected.config.proposals);
    ASSERT_EQ(lazy.config.faults.size(), expected.config.faults.size());
    for (const auto& [pid, fault] : expected.config.faults) {
      const auto it = lazy.config.faults.find(pid);
      ASSERT_NE(it, lazy.config.faults.end());
      EXPECT_EQ(it->second.strategy, fault.strategy);
      EXPECT_EQ(it->second.crash_time, fault.crash_time);
      EXPECT_EQ(it->second.release_time, fault.release_time);
      EXPECT_EQ(it->second.equivocal_value, fault.equivocal_value);
      EXPECT_EQ(it->second.mutate_rate, fault.mutate_rate);
      EXPECT_EQ(it->second.switch_time, fault.switch_time);
      EXPECT_EQ(it->second.victims, fault.victims);
      EXPECT_EQ(it->second.observe, fault.observe);
    }
  }
  EXPECT_THROW(static_cast<void>(matrix.point_at(matrix.size())),
               std::out_of_range);
}

TEST(ScenarioMatrix, PointAtIndexesMillionCellMatricesWithoutBuilding) {
  // 240 base cells x 5000 seeds: big enough that materializing the cross
  // product would be absurd, and point_at must stay O(1) random access.
  std::vector<std::uint64_t> seeds(5000);
  for (std::size_t s = 0; s < seeds.size(); ++s) seeds[s] = s + 1;
  const ScenarioMatrix matrix = harness::named_matrix("full").seeds(seeds);
  ASSERT_GE(matrix.size(), 1000000u);
  const SweepPoint first = matrix.point_at(0);
  const SweepPoint last = matrix.point_at(matrix.size() - 1);
  EXPECT_EQ(first.config.seed, 1u);
  EXPECT_EQ(last.config.seed, seeds.back());
  EXPECT_NO_THROW(harness::validate(matrix.point_at(matrix.size() / 2)
                                        .config));
  EXPECT_THROW(static_cast<void>(matrix.point_at(matrix.size())),
               std::out_of_range);
}

// ---------------------------------------------------------- determinism

TEST(SweepRunner, ResultsIndependentOfJobCount) {
  const auto points = harness::named_matrix("smoke").build();
  const auto jobs1 = SweepRunner(1).run(points);
  const auto jobs4 = SweepRunner(4).run(points);
  const auto jobs8 = SweepRunner(8).run(points);
  expect_equal_results(jobs1, jobs4);
  expect_equal_results(jobs1, jobs8);
}

TEST(SweepRunner, InternedByTypeBreakdownIsJobCountDeterministic) {
  // The per-type counters are indexed by globally interned PayloadTypeId,
  // and intern order depends on which thread touches a type first — so the
  // materialized string-keyed breakdown must be identical whatever the job
  // count, and must partition the paper's message complexity exactly as
  // the old string-keyed map did. The byzantine matrix exercises every
  // built-in strategy (wrapper payloads forward their inner type id).
  const auto points = harness::named_matrix("byzantine").build();
  const auto jobs1 = SweepRunner(1).run(points);
  const auto jobs3 = SweepRunner(3).run(points);
  expect_equal_results(jobs1, jobs3);
  std::size_t with_breakdown = 0;
  for (const SweepOutcome& outcome : jobs1) {
    SCOPED_TRACE(outcome.point.label);
    std::uint64_t sum = 0;
    for (const auto& [name, count] : outcome.result.by_type) {
      EXPECT_GT(count, 0u) << name;
      sum += count;
    }
    EXPECT_EQ(sum, outcome.result.message_complexity);
    if (!outcome.result.by_type.empty()) ++with_breakdown;
  }
  EXPECT_GT(with_breakdown, points.size() / 2);
}

TEST(SweepRunner, RunRangeSlicesConcatenateToRunAtAnyShardCount) {
  const ScenarioMatrix matrix = harness::named_matrix("smoke");
  const auto reference = SweepRunner(1).run(matrix.build());
  for (const int shards : {1, 2, 3, 5, 7, 30}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::vector<SweepOutcome> streamed;
    for (int i = 0; i < shards; ++i) {
      const std::size_t begin =
          matrix.size() * static_cast<std::size_t>(i) /
          static_cast<std::size_t>(shards);
      const std::size_t end =
          matrix.size() * static_cast<std::size_t>(i + 1) /
          static_cast<std::size_t>(shards);
      SweepRunner(3).run_range(matrix, begin, end, [&](SweepOutcome&& o) {
        // Emission must be in strictly ascending index order.
        EXPECT_EQ(o.point.index,
                  streamed.empty() ? begin : streamed.back().point.index + 1);
        streamed.push_back(std::move(o));
      });
    }
    ASSERT_EQ(streamed.size(), reference.size());
    expect_equal_results(streamed, reference);
  }
}

TEST(SweepRunner, RunRangeRejectsBadSlicesAndPropagatesSinkErrors) {
  const ScenarioMatrix matrix = harness::named_matrix("smoke");
  const auto sink = [](SweepOutcome&&) {};
  EXPECT_THROW(SweepRunner(2).run_range(matrix, 0, matrix.size() + 1, sink),
               std::invalid_argument);
  EXPECT_THROW(SweepRunner(2).run_range(matrix, 5, 4, sink),
               std::invalid_argument);
  EXPECT_THROW(SweepRunner(4).run_range(matrix, 0, matrix.size(),
                                        [](SweepOutcome&& o) {
                                          if (o.point.index == 3) {
                                            throw std::runtime_error("sink");
                                          }
                                        }),
               std::runtime_error);
}

TEST(SweepRunner, SmokeMatrixIsHealthy) {
  const auto points = harness::named_matrix("smoke").build();
  const auto outcomes = SweepRunner(2).run(points);
  harness::io::JsonSummary summary;
  for (const auto& o : outcomes) {
    summary.add(harness::io::parse_outcome_line(harness::io::outcome_line(o)));
  }
  EXPECT_EQ(summary.total, points.size());
  EXPECT_EQ(summary.decided, points.size());
  EXPECT_EQ(summary.agreement_violations, 0u);
  EXPECT_EQ(summary.validity_violations, 0u);
  EXPECT_EQ(summary.errors, 0u);
}

// ---------------------------------------------------------- fault edges

TEST(FaultEdges, CrashExactlyAtGst) {
  // GST > 0 and a process that crashes at precisely that instant: the
  // survivors must still reach consensus.
  for (const VcKind kind : kAllVcs) {
    SCOPED_TRACE(harness::to_string(kind));
    ScenarioConfig cfg;
    cfg.n = 4;
    cfg.t = 1;
    cfg.gst = 5.0;
    cfg.vc = kind;
    cfg.proposals = {2, 2, 2, 2};
    cfg.faults[3] = harness::Fault::crash(/*when=*/5.0);
    const StrongValidity validity;
    const auto result =
        harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
    EXPECT_TRUE(result.all_correct_decided(cfg));
    EXPECT_TRUE(result.agreement());
    ASSERT_TRUE(result.common_decision().has_value());
    EXPECT_EQ(*result.common_decision(), 2);  // unanimity pins the decision
  }
}

TEST(FaultEdges, EquivocatingProposerUnderEachVcKind) {
  for (const VcKind kind : kAllVcs) {
    SCOPED_TRACE(harness::to_string(kind));
    ScenarioConfig cfg;
    cfg.n = 4;
    cfg.t = 1;
    cfg.vc = kind;
    cfg.proposals = {1, 1, 1, 0};
    cfg.faults[3] = harness::Fault::equivocate(9);
    const StrongValidity validity;
    const auto result = harness::run_universal(
        cfg, make_lambda(validity, cfg.n, cfg.t, {0, 1, 9}, {0, 1, 9}));
    EXPECT_TRUE(result.all_correct_decided(cfg));
    EXPECT_TRUE(result.agreement());
    // All correct processes propose 1, so Strong Validity forces 1.
    ASSERT_TRUE(result.common_decision().has_value());
    EXPECT_EQ(*result.common_decision(), 1);
  }
}

TEST(FaultEdges, DelayedSenderUnderEachVcKind) {
  // One sender's outbound links are held until after GST; consensus must
  // still terminate and agree.
  for (const VcKind kind : kAllVcs) {
    SCOPED_TRACE(harness::to_string(kind));
    ScenarioConfig cfg;
    cfg.n = 4;
    cfg.t = 1;
    cfg.gst = 4.0;
    cfg.vc = kind;
    cfg.proposals = {0, 1, 0, 1};
    cfg.faults[0] = harness::Fault::delay();  // release < 0 -> gst + delta
    const StrongValidity validity;
    const auto result =
        harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
    EXPECT_TRUE(result.all_correct_decided(cfg));
    EXPECT_TRUE(result.agreement());
  }
}

TEST(FaultEdges, LastDecisionTimeExcludesFaultyDecisions) {
  // A delayed process runs a full recorded stack and — cut off from its
  // peers until after GST — decides strictly later than every correct
  // process (cell "vc=auth val=Strong fault=delayx1 n=4 t=1 gst=0 delta=1
  // seed=2" of the pinned full matrix). last_decision_time used to be
  // maxed over all recorded decisions before the faulty ones were pruned,
  // so the sweep's mean_latency silently included faulty processes; it
  // must be the max over the surviving (correct) decide_times.
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.gst = 0.0;
  cfg.delta = 1.0;
  cfg.seed = 2;
  cfg.vc = VcKind::kAuthenticated;
  cfg.proposals = {2, 0, 1, 2};
  cfg.faults[3] = harness::Fault::delay();
  const StrongValidity validity;
  const auto result =
      harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
  EXPECT_TRUE(result.all_correct_decided(cfg));
  EXPECT_EQ(result.decide_times.count(3), 0u) << "faulty pid must be pruned";
  ASSERT_FALSE(result.decide_times.empty());
  double last_correct = 0.0;
  for (const auto& [pid, when] : result.decide_times) {
    last_correct = std::max(last_correct, when);
  }
  EXPECT_EQ(result.last_decision_time, last_correct);
}

// ----------------------------------------------- checker-derived verdicts

TEST(SweepOutcome, FlagsAreDerivedFromTheExecutionReport) {
  // run_point no longer computes decided/agreement/validity_ok by hand:
  // they are exactly the ExecutionReport of core::check_execution over the
  // (already faulty-pruned) decisions, so a violation always comes with
  // its human-readable reason.
  const auto outcomes = SweepRunner(4).run(
      harness::named_matrix("byzantine").build());
  for (const auto& outcome : outcomes) {
    SCOPED_TRACE(outcome.point.label);
    ASSERT_TRUE(outcome.error.empty());
    EXPECT_EQ(outcome.decided, outcome.report.termination);
    EXPECT_EQ(outcome.agreement, outcome.report.agreement);
    EXPECT_EQ(outcome.validity_ok, outcome.report.validity);
    EXPECT_EQ(outcome.report.ok(), outcome.report.violations.empty());
  }
}

TEST(SweepPoint, NearMissRecordingIsOffByDefaultAndGatesTheWireFields) {
  // The near-miss axis follows the pat=/net= tag convention: a matrix that
  // never opted in produces bytes identical to the pinned legacy format,
  // so tests/golden/full.sha256 cannot move.
  ScenarioMatrix matrix;
  matrix.vc_kinds({VcKind::kAuthenticated}).seeds({1});
  const SweepPoint legacy = matrix.point_at(0);
  EXPECT_FALSE(legacy.near_miss);
  const std::string legacy_line =
      harness::io::outcome_line(harness::run_point(legacy));
  EXPECT_EQ(legacy_line.find("min_vote_margin"), std::string::npos);
  EXPECT_EQ(legacy_line.find("queue_drained"), std::string::npos);

  matrix.record_near_miss();
  const SweepPoint recorded = matrix.point_at(0);
  EXPECT_TRUE(recorded.near_miss);
  const std::string line =
      harness::io::outcome_line(harness::run_point(recorded));
  EXPECT_NE(line.find("\"min_vote_margin\": "), std::string::npos);
  EXPECT_NE(line.find("\"conflicting_votes\": "), std::string::npos);
  EXPECT_NE(line.find("\"queue_drained\": "), std::string::npos);
  EXPECT_NE(line.find("\"end_time\": "), std::string::npos);
  EXPECT_NE(line.find("\"grace_cutoff\": "), std::string::npos);
}

TEST(ScenarioMatrix, HorizonDefaultsUnboundedAndRejectsNonPositive) {
  ScenarioMatrix matrix;
  EXPECT_EQ(matrix.point_at(0).config.horizon, ScenarioConfig{}.horizon);
  matrix.horizon(42.0);
  EXPECT_EQ(matrix.point_at(0).config.horizon, 42.0);
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(matrix.horizon(bad), std::invalid_argument) << bad;
  }
}

// ------------------------------------------------------------ validation

TEST(ScenarioValidation, RejectsMisconfiguredScenarios) {
  const StrongValidity validity;
  const auto lambda = make_lambda(validity, 4, 1);

  ScenarioConfig wrong_proposals;
  wrong_proposals.proposals = {1, 2};  // n = 4
  EXPECT_THROW(static_cast<void>(harness::run_universal(wrong_proposals,
                                                        lambda)),
               std::invalid_argument);

  ScenarioConfig too_many_faults;
  too_many_faults.proposals = {1, 1, 1, 1};
  too_many_faults.faults[0] = {};
  too_many_faults.faults[1] = {};  // t = 1
  EXPECT_THROW(static_cast<void>(harness::run_universal(too_many_faults,
                                                        lambda)),
               std::invalid_argument);

  ScenarioConfig fault_out_of_range;
  fault_out_of_range.proposals = {1, 1, 1, 1};
  fault_out_of_range.faults[7] = {};
  EXPECT_THROW(static_cast<void>(harness::run_universal(fault_out_of_range,
                                                        lambda)),
               std::invalid_argument);

  ScenarioConfig bad_t;
  bad_t.t = 4;  // t must be < n
  bad_t.proposals = {1, 1, 1, 1};
  EXPECT_THROW(static_cast<void>(harness::run_universal(bad_t, lambda)),
               std::invalid_argument);

  // NaN fails every comparison and infinity passes `<= 0`: both must be
  // rejected, not run until a horizon they make unreachable.
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    ScenarioConfig bad_delta;
    bad_delta.proposals = {1, 1, 1, 1};
    bad_delta.delta = bad;
    EXPECT_THROW(static_cast<void>(harness::run_universal(bad_delta, lambda)),
                 std::invalid_argument)
        << "delta " << bad;
    ScenarioConfig bad_horizon;
    bad_horizon.proposals = {1, 1, 1, 1};
    bad_horizon.horizon = bad;
    EXPECT_THROW(
        static_cast<void>(harness::run_universal(bad_horizon, lambda)),
        std::invalid_argument)
        << "horizon " << bad;
  }
  for (const double bad : {-1.0, std::nan(""), HUGE_VAL}) {
    ScenarioConfig bad_gst;
    bad_gst.proposals = {1, 1, 1, 1};
    bad_gst.gst = bad;
    EXPECT_THROW(static_cast<void>(harness::run_universal(bad_gst, lambda)),
                 std::invalid_argument)
        << "gst " << bad;
  }

  ScenarioConfig negative_crash;
  negative_crash.proposals = {1, 1, 1, 1};
  negative_crash.faults[0] = harness::Fault::crash(-2.0);
  EXPECT_THROW(static_cast<void>(harness::run_universal(negative_crash,
                                                        lambda)),
               std::invalid_argument);

  ScenarioConfig ok;
  ok.proposals = {1, 1, 1, 1};
  EXPECT_NO_THROW(static_cast<void>(harness::run_universal(ok, lambda)));
}

TEST(ValidityFactory, CoversEveryKindAndRoundtripsNames) {
  for (const ValidityKind kind :
       {ValidityKind::kStrong, ValidityKind::kWeak,
        ValidityKind::kCorrectProposal, ValidityKind::kMedian,
        ValidityKind::kConvexHull}) {
    const auto property = harness::make_validity(kind, 7, 2);
    ASSERT_NE(property, nullptr);
    EXPECT_FALSE(harness::to_string(kind).empty());
  }
}
