// Adversarial integration suite: Byzantine equivocation, hostile pre-GST
// scheduling, crash storms and combined faults against every protocol
// stack — validated with the formal execution checker (Termination /
// Agreement / Validity as defined in Sections 3.2-3.3).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "valcon/core/execution_checker.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/lb/partition.hpp"

using namespace valcon;
using namespace valcon::core;
using harness::ScenarioConfig;
using harness::VcKind;

namespace {

/// Runs Universal with a two-faced Byzantine process that plays two full,
/// correct protocol stacks with conflicting proposals (6 towards the lower
/// half, 9 towards the upper) via the "equivocate" adversary strategy. With
/// n > 3t this must never break any property. Going through run_universal
/// (rather than a hand-rolled Simulator loop with a fixed 1e7 horizon) buys
/// the decide-then-grace cutoff: the equivocator's inner stacks can re-arm
/// timers forever, and the cutoff stops the run 10*delta after the last
/// correct decision instead of simulating to the horizon.
ExecutionReport run_split_brain(int n, int t, VcKind kind,
                                std::uint64_t seed) {
  const ProcessId byz = n - 1;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.seed = seed;
  cfg.vc = kind;
  for (int p = 0; p < n; ++p) cfg.proposals.push_back(p % 2);
  cfg.proposals[static_cast<std::size_t>(byz)] = 6;  // face-0 proposal
  cfg.faults[byz] = harness::Fault::equivocate(9);   // face-1 proposal

  const StrongValidity validity;
  const auto lambda = make_lambda(validity, n, t, {0, 1, 6, 9}, {0, 1, 6, 9});
  const auto result = harness::run_universal(cfg, lambda);
  return check_execution(validity, n, t, cfg.proposals, {byz},
                         result.decisions);
}

}  // namespace

// ------------------------------------------------ split-brain (n > 3t)

class SplitBrainSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitBrainSweep, AllPropertiesSurviveEquivocation) {
  const auto [kind_int, seed_int] = GetParam();
  const auto report = run_split_brain(
      4, 1, static_cast<VcKind>(kind_int), static_cast<std::uint64_t>(seed_int));
  EXPECT_TRUE(report.ok()) << [&] {
    std::string all;
    for (const auto& v : report.violations) all += v + "; ";
    return all;
  }();
}

INSTANTIATE_TEST_SUITE_P(Kinds, SplitBrainSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Range(1, 4)));

TEST(SplitBrain, SevenProcessesAuth) {
  const auto report = run_split_brain(7, 2, VcKind::kAuthenticated, 5);
  EXPECT_TRUE(report.ok());
}

// ------------------------------------------------- hostile pre-GST phase

TEST(LateGst, AuthSurvivesLongAsynchronousPrefix) {
  // GST at 200 delta; before it the adversary delays everything to the
  // model bound on half the links.
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.gst = 200.0;
  cfg.proposals = {1, 0, 1, 0};
  const StrongValidity validity;
  const auto lambda = make_lambda(validity, cfg.n, cfg.t);

  sim::SimConfig sim_cfg;
  sim_cfg.n = cfg.n;
  sim_cfg.t = cfg.t;
  sim_cfg.seed = 3;
  sim_cfg.net.gst = cfg.gst;
  sim::Simulator simulator(sim_cfg);
  std::map<ProcessId, Value> decisions;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    simulator.add_process(
        p, std::make_unique<sim::ComponentHost>(harness::make_universal(
               cfg, cfg.proposals[static_cast<std::size_t>(p)], lambda,
               [&decisions, p](sim::Context&, Value v) { decisions[p] = v; })));
  }
  // Adversarial pre-GST schedule: peer-to-peer delays stretched to the
  // bound on a ring of links.
  for (ProcessId p = 0; p < cfg.n; ++p) {
    simulator.network().hold(p, (p + 1) % cfg.n, cfg.gst);
  }
  simulator.run(1e6);
  const auto report = check_execution(validity, cfg.n, cfg.t, cfg.proposals,
                                      {}, decisions);
  EXPECT_TRUE(report.ok());
  // Nobody may decide "too early" only *because* of asynchrony — but early
  // decision is allowed; what matters is all decisions agree and are valid.
}

TEST(LateGst, EverySeedEveryKind) {
  for (const VcKind kind : {VcKind::kAuthenticated, VcKind::kFast}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioConfig cfg;
      cfg.n = 4;
      cfg.t = 1;
      cfg.gst = 60.0;
      cfg.seed = seed;
      cfg.vc = kind;
      cfg.horizon = 1e15;
      cfg.proposals = {2, 2, 2, 2};
      const StrongValidity validity;
      const auto result =
          harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
      EXPECT_TRUE(result.all_correct_decided(cfg))
          << to_string(kind) << " seed " << seed;
      EXPECT_EQ(result.common_decision(), std::optional<Value>(2))
          << to_string(kind) << " seed " << seed;
    }
  }
}

// ----------------------------------------------------------- crash storms

class CrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweep, CrashAtArbitraryTimesIsHarmless) {
  // One process crashes at a parameterized time (mid-handshake, mid-Quad,
  // post-decision...). The survivors must still reach valid consensus.
  const double crash_time = 0.5 * GetParam();
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  cfg.proposals = {3, 1, 3, 1};
  cfg.faults[1] = harness::Fault::crash(crash_time);
  const StrongValidity validity;
  const auto result =
      harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
  EXPECT_TRUE(result.all_correct_decided(cfg)) << "crash at " << crash_time;
  EXPECT_TRUE(result.agreement()) << "crash at " << crash_time;
  const auto report =
      check_execution(validity, cfg.n, cfg.t, cfg.proposals,
                      {1}, result.decisions);
  EXPECT_TRUE(report.ok()) << "crash at " << crash_time;
}

INSTANTIATE_TEST_SUITE_P(Times, CrashSweep, ::testing::Range(1, 14));

// ------------------------------------------------- checker self-validation

TEST(ExecutionChecker, FlagsAgreementViolation) {
  const StrongValidity validity;
  const std::map<ProcessId, Value> decisions = {{0, 1}, {2, 0}};
  const auto report =
      check_execution(validity, 3, 1, {1, 1, 0}, {1}, decisions);
  EXPECT_FALSE(report.agreement);
  EXPECT_TRUE(report.termination);
}

TEST(ExecutionChecker, FlagsValidityViolation) {
  const StrongValidity validity;
  // Unanimous 5 but somebody decided 6.
  const std::map<ProcessId, Value> decisions = {{0, 6}, {1, 6}, {2, 6}};
  const auto report =
      check_execution(validity, 3, 1, {5, 5, 5}, {}, decisions);
  EXPECT_FALSE(report.validity);
  EXPECT_TRUE(report.agreement);
  ASSERT_FALSE(report.violations.empty());
}

/// Strong validity that counts its admissible() calls.
class CountingStrong final : public ValidityProperty {
 public:
  [[nodiscard]] std::string name() const override { return "Strong"; }
  [[nodiscard]] bool admissible(const InputConfig& c,
                                Value v) const override {
    ++calls;
    return StrongValidity().admissible(c, v);
  }
  mutable int calls = 0;
};

TEST(ExecutionChecker, JudgesEachRunOfEqualValuesOnceButReportsEachProcess) {
  const CountingStrong validity;
  const std::map<ProcessId, Value> decisions = {
      {0, 6}, {1, 6}, {2, 5}, {3, 6}};
  const auto report =
      check_execution(validity, 4, 1, {5, 5, 5, 5}, {}, decisions);
  EXPECT_EQ(validity.calls, 3);  // runs 6,6 | 5 | 6
  EXPECT_FALSE(report.validity);
  const std::vector<std::string> validity_violations(
      report.violations.end() - 3, report.violations.end());
  const std::string conf = "{(P0,5), (P1,5), (P2,5), (P3,5)}";
  EXPECT_EQ(validity_violations,
            (std::vector<std::string>{
                "Validity(Strong): P0 decided 6 not in val(" + conf + ")",
                "Validity(Strong): P1 decided 6 not in val(" + conf + ")",
                "Validity(Strong): P3 decided 6 not in val(" + conf + ")"}));

  const CountingStrong unanimous;
  const auto clean = check_execution(unanimous, 4, 1, {5, 5, 5, 5}, {},
                                     {{0, 5}, {1, 5}, {2, 5}, {3, 5}});
  EXPECT_EQ(unanimous.calls, 1);
  EXPECT_TRUE(clean.ok());
}

TEST(ExecutionChecker, FlagsMissingDecision) {
  const StrongValidity validity;
  const std::map<ProcessId, Value> decisions = {{0, 5}};
  const auto report =
      check_execution(validity, 3, 1, {5, 5, 5}, {}, decisions);
  EXPECT_FALSE(report.termination);
}

TEST(ExecutionChecker, RejectsTooManyFaults) {
  const StrongValidity validity;
  const auto report = check_execution(validity, 3, 1, {5, 5, 5}, {0, 1}, {});
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
}

// --------------------------------------- the paper's own attack, re-used

TEST(PartitionCheckerIntegration, ViolationIsDetectedByChecker) {
  const auto outcome = lb::run_partition_experiment(3, 1, 2);
  ASSERT_TRUE(outcome.agreement_violated);
  const StrongValidity validity;
  const auto report = check_execution(validity, 3, 1, {0, 0, 1}, {1},
                                      outcome.decisions);
  EXPECT_FALSE(report.agreement);
}
