// Proposal-pattern and network-profile dimensions (harness/pattern.hpp,
// harness/net_profile.hpp): pinned built-in assignments (the registry's
// contents and error paths are in test_strategies), the
// named profiles' delay policies end to end, point_at ↔ build()
// equivalence on a matrix with every axis non-trivial, job-count
// determinism of the "validity" matrix, the CorrectProposal solvability
// flip that motivated the axes (unsolvable at domain 3 under rotating,
// solved at domain 2 under adversarial — ROADMAP open item 1), the
// grace-window / queue-drained satellite, and a regression pinning that
// the legacy "full" wire format is byte-identical to pre-refactor.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "valcon/core/lambda.hpp"
#include "valcon/harness/net_profile.hpp"
#include "valcon/harness/pattern.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"

using namespace valcon;
using namespace valcon::core;
using harness::Fault;
using harness::FaultSpec;
using harness::NetworkProfile;
using harness::PatternEnv;
using harness::PatternRegistry;
using harness::ProposalPattern;
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

std::vector<Value> assign(const std::string& pattern, int n,
                          std::uint64_t seed, Value domain,
                          ValidityKind validity = ValidityKind::kStrong) {
  PatternEnv env;
  env.n = n;
  env.t = 1;
  env.seed = seed;
  env.domain = domain;
  env.validity = validity;
  return PatternRegistry::global().make(pattern)->assign(env);
}

void expect_equal_results(const std::vector<SweepOutcome>& a,
                          const std::vector<SweepOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].point.label);
    EXPECT_EQ(a[i].result.decisions, b[i].result.decisions);
    EXPECT_EQ(a[i].result.decide_times, b[i].result.decide_times);
    EXPECT_EQ(a[i].result.message_complexity, b[i].result.message_complexity);
    EXPECT_EQ(a[i].result.word_complexity, b[i].result.word_complexity);
    EXPECT_EQ(a[i].result.events, b[i].result.events);
    EXPECT_EQ(a[i].result.queue_drained, b[i].result.queue_drained);
    EXPECT_EQ(a[i].error, b[i].error);
  }
}

}  // namespace

// ----------------------------------------------- pinned built-in patterns

TEST(BuiltinPatterns, AssignmentsAreThePinnedOnes) {
  // rotating is the historical hard-coded assignment (p + seed) % domain;
  // the pinned "full" matrix is generated through it, so the arithmetic
  // must never drift.
  EXPECT_EQ(assign("rotating", 4, 1, 3), (std::vector<Value>{1, 2, 0, 1}));
  EXPECT_EQ(assign("rotating", 4, 2, 3), (std::vector<Value>{2, 0, 1, 2}));
  EXPECT_EQ(assign("unanimous", 4, 5, 3), (std::vector<Value>{2, 2, 2, 2}));
  EXPECT_EQ(assign("split", 4, 1, 3), (std::vector<Value>{1, 1, 2, 2}));
  EXPECT_EQ(assign("split", 7, 1, 3),
            (std::vector<Value>{1, 1, 1, 2, 2, 2, 2}));
}

TEST(BuiltinPatterns, AdversarialConditionsOnTheValidityKind) {
  // CorrectProposal: maximal diversity p % domain.
  EXPECT_EQ(assign("adversarial", 4, 1, 2, ValidityKind::kCorrectProposal),
            (std::vector<Value>{0, 1, 0, 1}));
  EXPECT_EQ(assign("adversarial", 4, 1, 3, ValidityKind::kCorrectProposal),
            (std::vector<Value>{0, 1, 2, 0}));
  // Strong/Weak: unanimity broken by a single dissenter at n-1.
  EXPECT_EQ(assign("adversarial", 4, 1, 3, ValidityKind::kStrong),
            (std::vector<Value>{1, 1, 1, 2}));
  EXPECT_EQ(assign("adversarial", 4, 1, 3, ValidityKind::kWeak),
            (std::vector<Value>{1, 1, 1, 2}));
  // Median/ConvexHull: alternating extremes.
  EXPECT_EQ(assign("adversarial", 4, 1, 3, ValidityKind::kMedian),
            (std::vector<Value>{0, 2, 0, 2}));
  EXPECT_EQ(assign("adversarial", 5, 7, 4, ValidityKind::kConvexHull),
            (std::vector<Value>{0, 3, 0, 3, 0}));
}

// ------------------------------------------------------- network profiles

TEST(NetworkProfiles, NamedLookupAndErrors) {
  EXPECT_EQ(harness::named_network_profile("uniform").policy,
            NetworkProfile::Policy::kNone);
  EXPECT_EQ(harness::named_network_profile("pre-gst-starve").policy,
            NetworkProfile::Policy::kStarvePreGst);
  EXPECT_EQ(harness::named_network_profile("targeted-slow-links").policy,
            NetworkProfile::Policy::kSlowTarget);
  try {
    static_cast<void>(harness::named_network_profile("no-such-profile"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-profile"), std::string::npos) << what;
    EXPECT_NE(what.find("pre-gst-starve"), std::string::npos)
        << "message should list the known profiles: " << what;
  }
}

TEST(NetworkProfiles, DelayPoliciesTargetTheRightLinks) {
  const auto starve = harness::named_network_profile("pre-gst-starve")
                          .make_delay_policy(/*gst=*/5.0);
  ASSERT_TRUE(static_cast<bool>(starve));
  EXPECT_TRUE(starve(0, 1, 2.0).has_value());    // pre-GST: held
  EXPECT_FALSE(starve(0, 1, 5.0).has_value());   // at/after GST: default
  EXPECT_FALSE(starve(0, 1, 9.0).has_value());

  const auto slow = harness::named_network_profile("targeted-slow-links")
                        .make_delay_policy(/*gst=*/0.0);
  ASSERT_TRUE(static_cast<bool>(slow));
  EXPECT_TRUE(slow(0, 2, 1.0).has_value());   // from the target
  EXPECT_TRUE(slow(3, 0, 1.0).has_value());   // into the target
  EXPECT_FALSE(slow(1, 2, 1.0).has_value());  // unrelated link

  EXPECT_FALSE(static_cast<bool>(
      harness::named_network_profile("uniform").make_delay_policy(0.0)));
}

TEST(NetworkProfiles, EveryProfileStillReachesConsensusUnderEveryStack) {
  // The profiles exhaust the model's delay bounds but never break them, so
  // consensus must still terminate — starved pre-GST runs just pay for it
  // in latency (pinned ordering below for the authenticated stack).
  const StrongValidity validity;
  std::map<std::string, Time> latency;
  for (const VcKind kind : kAllVcs) {
    for (const char* name : {"uniform", "pre-gst-starve",
                             "targeted-slow-links", "sampled-overlay"}) {
      SCOPED_TRACE(harness::to_string(kind) + " / " + name);
      ScenarioConfig cfg;
      cfg.n = 4;
      cfg.t = 1;
      cfg.gst = 5.0;
      cfg.vc = kind;
      cfg.proposals = {1, 1, 1, 1};
      cfg.net_profile = harness::named_network_profile(name);
      const auto result =
          harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
      EXPECT_TRUE(result.all_correct_decided(cfg));
      EXPECT_TRUE(result.agreement());
      EXPECT_EQ(result.common_decision(), std::optional<Value>(1));
      if (kind == VcKind::kAuthenticated) {
        latency[name] = result.last_decision_time;
      }
    }
  }
  // A maximally hostile pre-GST scheduler cannot beat the friendly-capped
  // uniform network.
  EXPECT_GT(latency["pre-gst-starve"], latency["uniform"]);
}

// ----------------------------------------------------- the extended matrix

TEST(PatternMatrix, SizeIsTheCrossProductOverAllNineDimensions) {
  ScenarioMatrix matrix;
  matrix.vc_kinds({VcKind::kAuthenticated, VcKind::kFast})
      .validities({ValidityKind::kStrong, ValidityKind::kMedian})
      .patterns({"rotating", "unanimous", "split"})
      .faults({FaultSpec{"silent", 0}, FaultSpec{"crash", -1}})
      .sizes({{4, 1}})
      .network_profiles({"uniform", "targeted-slow-links"})
      .gsts({0.0, 3.0})
      .seeds({1, 2});
  EXPECT_EQ(matrix.size(), 2u * 2u * 3u * 2u * 1u * 2u * 2u * 1u * 2u);
  const auto points = matrix.build();
  ASSERT_EQ(points.size(), matrix.size());
  std::set<std::string> labels;
  for (const auto& point : points) {
    EXPECT_NO_THROW(harness::validate(point.config)) << point.label;
    // Both axes are non-trivial, so every label carries both tags.
    EXPECT_NE(point.label.find(" pat="), std::string::npos) << point.label;
    EXPECT_NE(point.label.find(" net="), std::string::npos) << point.label;
    EXPECT_EQ(point.tags[harness::Axis::kPattern], point.pattern);
    EXPECT_EQ(point.tags[harness::Axis::kNetProfile],
              point.config.net_profile.name);
    labels.insert(point.label);
  }
  EXPECT_EQ(labels.size(), points.size()) << "labels must be unique";
}

TEST(PatternMatrix, PointAtMatchesBuildOnTheValidityMatrix) {
  // point_at stays the one source of truth with the two new digits in the
  // mixed-radix decode; the "validity" matrix exercises ≥ 4 non-trivial
  // dimensions (vc, validity, pattern, fault, net-profile, gst).
  const ScenarioMatrix matrix = harness::named_matrix("validity");
  const auto points = matrix.build();
  ASSERT_EQ(points.size(), matrix.size());
  ASSERT_EQ(points.size(), 720u);
  for (const SweepPoint& expected : points) {
    const SweepPoint lazy = matrix.point_at(expected.index);
    SCOPED_TRACE(expected.label);
    EXPECT_EQ(lazy.index, expected.index);
    EXPECT_EQ(lazy.label, expected.label);
    EXPECT_EQ(lazy.validity, expected.validity);
    EXPECT_EQ(lazy.pattern, expected.pattern);
    EXPECT_EQ(lazy.tags.slots, expected.tags.slots);
    EXPECT_EQ(lazy.config.proposals, expected.config.proposals);
    EXPECT_EQ(lazy.config.net_profile.name, expected.config.net_profile.name);
    EXPECT_EQ(lazy.config.seed, expected.config.seed);
    EXPECT_EQ(lazy.config.gst, expected.config.gst);
    EXPECT_EQ(lazy.config.faults.size(), expected.config.faults.size());
  }
  EXPECT_THROW(static_cast<void>(matrix.point_at(matrix.size())),
               std::out_of_range);
}

TEST(PatternMatrix, ValidityMatrixIsHealthyAndJobCountDeterministic) {
  const auto points = harness::named_matrix("validity").build();
  const auto jobs1 = SweepRunner(1).run(points);
  const auto jobs4 = SweepRunner(4).run(points);
  expect_equal_results(jobs1, jobs4);
  harness::io::JsonSummary summary;
  for (const auto& o : jobs1) {
    summary.add(harness::io::parse_outcome_line(harness::io::outcome_line(o)));
  }
  EXPECT_EQ(summary.total, points.size());
  EXPECT_EQ(summary.decided, points.size());
  EXPECT_EQ(summary.agreement_violations, 0u);
  EXPECT_EQ(summary.validity_violations, 0u);
  EXPECT_EQ(summary.errors, 0u);
}

// ------------------------------------- the CorrectProposal solvability flip

TEST(CorrectProposal, UnsolvableUnderTheOldRotatingDomain3Assignment) {
  // ROADMAP open item 1, the "before": with the hard-coded 3-value
  // rotating assignment at n=4, t=1, the decided 3-entry vector is
  // all-distinct, no value reaches multiplicity t+1, and Λ is undefined —
  // every CorrectProposal cell errors out.
  const auto points = ScenarioMatrix()
                          .validities({ValidityKind::kCorrectProposal})
                          .seeds({1, 2})
                          .build();
  for (const auto& outcome : SweepRunner(2).run(points)) {
    EXPECT_FALSE(outcome.error.empty()) << outcome.point.label;
    EXPECT_NE(outcome.error.find("Λ undefined"), std::string::npos)
        << outcome.error;
  }
}

TEST(CorrectProposal, SolvedAtN4T1UnderTheDomain2AdversarialPattern) {
  // The "after" (the acceptance criterion of the axis refactor): over a
  // 2-value domain the pigeonhole guarantees a (t+1)-multiplicity value in
  // every 3-entry vector, so CorrectProposal is solvable even under the
  // maximally diverse adversarial assignment — every correct process
  // decides a value some correct process proposed.
  const auto points = harness::named_matrix("validity").build();
  std::size_t checked = 0;
  for (const auto& point : points) {
    if (point.validity != ValidityKind::kCorrectProposal ||
        point.pattern != "adversarial") {
      continue;
    }
    const SweepOutcome outcome = harness::run_point(point);
    SCOPED_TRACE(point.label);
    EXPECT_TRUE(outcome.error.empty()) << outcome.error;
    EXPECT_TRUE(outcome.decided);
    EXPECT_TRUE(outcome.agreement);
    EXPECT_TRUE(outcome.validity_ok);
    // Spell the property out rather than trusting validity_ok alone: each
    // decision is the proposal of some correct process.
    for (const auto& [pid, decided] : outcome.result.decisions) {
      bool proposed_by_correct = false;
      for (ProcessId p = 0; p < point.config.n; ++p) {
        if (point.config.faults.count(p) == 0 &&
            point.config.proposals[static_cast<std::size_t>(p)] == decided) {
          proposed_by_correct = true;
        }
      }
      EXPECT_TRUE(proposed_by_correct)
          << "process " << pid << " decided " << decided;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 36u);  // 3 stacks x 2 faults x 3 profiles x 2 gsts
}

// ------------------------------------------------- build-time range checks

TEST(DomainValidation, RejectsProposalsOutsideTheDomainAtBuildTime) {
  // Degenerate domains are rejected in the setter, with the value named.
  EXPECT_THROW(ScenarioMatrix().proposal_domain(1), std::invalid_argument);

  // A custom pattern that strays outside the domain is caught per cell.
  auto& registry = PatternRegistry::global();
  if (!registry.contains("test-out-of-domain")) {
    class OutOfDomain final : public ProposalPattern {
     public:
      std::vector<Value> assign(const PatternEnv& env) const override {
        return std::vector<Value>(static_cast<std::size_t>(env.n),
                                  env.domain);  // one past the end
      }
    };
    registry.add("test-out-of-domain",
                 [] { return std::make_unique<OutOfDomain>(); });
  }
  try {
    static_cast<void>(
        ScenarioMatrix().patterns({"test-out-of-domain"}).build());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("test-out-of-domain"),
              std::string::npos)
        << e.what();
  }
  // And an unknown pattern name fails dimension checking, not cell decode.
  EXPECT_THROW(static_cast<void>(ScenarioMatrix().patterns({"nope"}).build()),
               std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(ScenarioMatrix().network_profiles({"nope"}).build()),
      std::invalid_argument);
}

TEST(DomainValidation, DecodeFailuresOnWorkerThreadsRethrowAtAnyJobCount) {
  // run_range decodes cells on pool threads; a per-cell failure (here the
  // same out-of-domain pattern) must surface as the same loud exception
  // jobs=1 produces, not escape a worker and terminate the process.
  auto& registry = PatternRegistry::global();
  if (!registry.contains("test-out-of-domain")) {
    class OutOfDomain final : public ProposalPattern {
     public:
      std::vector<Value> assign(const PatternEnv& env) const override {
        return std::vector<Value>(static_cast<std::size_t>(env.n),
                                  env.domain);
      }
    };
    registry.add("test-out-of-domain",
                 [] { return std::make_unique<OutOfDomain>(); });
  }
  const ScenarioMatrix matrix =
      ScenarioMatrix()
          .patterns({"rotating", "test-out-of-domain"})
          .seeds({1, 2, 3, 4, 5, 6, 7, 8});
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    EXPECT_THROW(SweepRunner(jobs).run_range(matrix, 0, matrix.size(),
                                             [](SweepOutcome&&) {}),
                 std::invalid_argument);
  }
}

// ------------------------------------------- custom patterns, end to end

TEST(CustomPatterns, RegisterAndSweepEndToEnd) {
  auto& registry = PatternRegistry::global();
  if (!registry.contains("test-all-zero")) {
    class AllZero final : public ProposalPattern {
     public:
      std::vector<Value> assign(const PatternEnv& env) const override {
        return std::vector<Value>(static_cast<std::size_t>(env.n), 0);
      }
    };
    registry.add("test-all-zero", [] { return std::make_unique<AllZero>(); });
  }
  const auto points = ScenarioMatrix()
                          .patterns({"test-all-zero"})
                          .seeds({1, 2})
                          .build();
  ASSERT_EQ(points.size(), 2u);
  for (const auto& outcome : SweepRunner(2).run(points)) {
    EXPECT_TRUE(outcome.error.empty()) << outcome.error;
    EXPECT_TRUE(outcome.decided);
    EXPECT_NE(outcome.point.label.find("pat=test-all-zero"),
              std::string::npos)
        << outcome.point.label;
    // Unanimity of the custom pattern pins the Strong-validity decision.
    EXPECT_EQ(outcome.result.common_decision(), std::optional<Value>(0));
  }
}

// ------------------------------------- grace window / queue-drained state

TEST(GraceWindow, QueueDrainedDistinguishesDrainFromCut) {
  const StrongValidity validity;
  const auto lambda = make_lambda(validity, 4, 1, {0, 1, 2}, {0, 1, 2});

  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.proposals = {1, 1, 1, 0};
  cfg.faults[3] = Fault::equivocate(2);

  // The default 10·delta window lets the equivocator's residual chatter
  // play out: the queue drains on its own.
  const auto relaxed = harness::run_universal(cfg, lambda);
  EXPECT_TRUE(relaxed.all_correct_decided(cfg));
  EXPECT_TRUE(relaxed.queue_drained);

  // A 1·delta window cuts the same run mid-chatter: fewer events, cut
  // recorded — the distinction complexity metrics need (ROADMAP item 2).
  cfg.grace_multiplier = 1.0;
  const auto tight = harness::run_universal(cfg, lambda);
  EXPECT_TRUE(tight.all_correct_decided(cfg));
  EXPECT_FALSE(tight.queue_drained);
  EXPECT_LT(tight.events, relaxed.events);
  EXPECT_EQ(tight.decisions, relaxed.decisions);  // cut only affects the tail

  cfg.grace_multiplier = 0.0;
  EXPECT_THROW(static_cast<void>(harness::run_universal(cfg, lambda)),
               std::invalid_argument);
}

// -------------------------------------------- legacy wire-format regression

TEST(LegacyWireFormat, FullMatrixCellZeroIsByteIdenticalToPreRefactor) {
  // The pinned cross-version determinism reference: cell 0 of "full", run
  // and serialized, must reproduce the pre-refactor bytes exactly — no
  // pattern/net_profile fields, no label tags, identical numbers. (CI
  // additionally pins the sha256 of the whole 720-cell document.)
  const ScenarioMatrix matrix = harness::named_matrix("full");
  const SweepPoint point = matrix.point_at(0);
  EXPECT_EQ(point.pattern, "rotating");
  EXPECT_TRUE(point.tags[harness::Axis::kPattern].empty());
  EXPECT_TRUE(point.tags[harness::Axis::kNetProfile].empty());
  const SweepOutcome outcome = harness::run_point(point);
  EXPECT_EQ(
      harness::io::outcome_line(outcome),
      "    {\"label\": \"vc=auth(Alg1) val=Strong fault=none n=4 t=1 "
      "gst=0.00 delta=1.00 seed=1\", \"vc\": \"auth(Alg1)\", \"validity\": "
      "\"Strong\", \"n\": 4, \"t\": 1, \"gst\": 0, \"delta\": 1, \"seed\": "
      "1, \"faults\": [], \"decided\": true, \"agreement\": true, "
      "\"validity_ok\": true, \"decisions\": {\"0\": 0, \"1\": 0, \"2\": 0, "
      "\"3\": 0}, \"last_decision_time\": 4.97671658955, "
      "\"message_complexity\": 56, \"word_complexity\": 280, "
      "\"messages_total\": 56, \"events\": 65}");
}

TEST(LegacyWireFormat, LegacyMatricesCarryNoAxisTags) {
  for (const char* name : {"smoke", "full", "byzantine"}) {
    SCOPED_TRACE(name);
    for (const auto& point : harness::named_matrix(name).build()) {
      for (const std::string& tag : point.tags.slots) {
        EXPECT_TRUE(tag.empty()) << point.label;
      }
      EXPECT_EQ(point.label.find(" pat="), std::string::npos) << point.label;
      EXPECT_EQ(point.label.find(" net="), std::string::npos) << point.label;
      EXPECT_EQ(point.config.net_profile.name, "uniform");
    }
  }
}
