// Adversary-strategy framework (harness/strategy.hpp): the contents and
// error paths of both name registries (the strategy and pattern
// instantiations of harness/registry.hpp, mostly one typed suite), legacy
// FaultKind-name aliases (round-trip against the pinned "full"-matrix
// labels), determinism of the new mutation / scheduled-equivocation /
// adaptive strategies across job counts, custom strategy registration end
// to end, and the --strategies matrix filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "valcon/core/lambda.hpp"
#include "valcon/harness/pattern.hpp"
#include "valcon/harness/strategy.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"
#include "valcon/sim/adversary.hpp"

using namespace valcon;
using namespace valcon::core;
using harness::Fault;
using harness::FaultSpec;
using harness::PatternRegistry;
using harness::ScenarioConfig;
using harness::ScenarioMatrix;
using harness::Strategy;
using harness::StrategyEnv;
using harness::StrategyRegistry;
using harness::SweepOutcome;
using harness::SweepRunner;
using harness::ValidityKind;
using harness::VcKind;

namespace {

constexpr std::initializer_list<VcKind> kAllVcs = {
    VcKind::kAuthenticated, VcKind::kNonAuthenticated, VcKind::kFast};

ScenarioConfig base_config(VcKind kind = VcKind::kAuthenticated) {
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.vc = kind;
  cfg.proposals = {1, 1, 1, 0};
  return cfg;
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
    EXPECT_EQ(a[i].error, b[i].error);
  }
}

}  // namespace

// ------------------------------------------------------------ the registry

/// What the NameRegistry suite needs to know about each registry.
template <typename R>
struct RegistryCase;

template <>
struct RegistryCase<StrategyRegistry> {
  static constexpr std::array<const char*, 7> kBuiltins{
      "silent", "crash", "equivocate", "delay", "mutate",
      "equivocate-scheduled", "adaptive"};
  static constexpr const char* kUnknown = "no-such-strategy";
  /// A registered name the unknown-name message must list.
  static constexpr const char* kListed = "crash";
};

template <>
struct RegistryCase<PatternRegistry> {
  static constexpr std::array<const char*, 4> kBuiltins{
      "rotating", "unanimous", "split", "adversarial"};
  static constexpr const char* kUnknown = "no-such-pattern";
  static constexpr const char* kListed = "rotating";
};

template <typename R>
class NameRegistry : public ::testing::Test {};

using Registries = ::testing::Types<StrategyRegistry, PatternRegistry>;
TYPED_TEST_SUITE(NameRegistry, Registries);

TYPED_TEST(NameRegistry, BuiltinsAreRegistered) {
  using Case = RegistryCase<TypeParam>;
  auto& registry = TypeParam::global();
  for (const char* name : Case::kBuiltins) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_NE(registry.make(name), nullptr) << name;
  }
  const auto names = registry.names();
  EXPECT_GE(names.size(), Case::kBuiltins.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TYPED_TEST(NameRegistry, UnknownNameThrowsAndListsRegistered) {
  using Case = RegistryCase<TypeParam>;
  try {
    static_cast<void>(TypeParam::global().make(Case::kUnknown));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(Case::kUnknown), std::string::npos) << what;
    EXPECT_NE(what.find(Case::kListed), std::string::npos)
        << "message should list registered names: " << what;
  }
}

/// Registration error paths, run on a private registry so global() stays
/// clean.
template <typename R>
void expect_rejects_duplicates_empty_names_and_null_factories() {
  using Case = RegistryCase<R>;
  R registry;
  const auto builtin = [] { return R::global().make(Case::kListed); };
  registry.add("mine", builtin);
  EXPECT_TRUE(registry.contains("mine"));
  EXPECT_THROW(registry.add("mine", builtin), std::invalid_argument);
  EXPECT_THROW(registry.add("", builtin), std::invalid_argument);
  EXPECT_THROW(registry.add("null", typename R::Factory{}),
               std::invalid_argument);
}

TEST(StrategyRegistry, RejectsDuplicatesEmptyNamesAndNullFactories) {
  expect_rejects_duplicates_empty_names_and_null_factories<StrategyRegistry>();
}

TEST(PatternRegistry, RejectsDuplicatesEmptyNamesAndNullFactories) {
  expect_rejects_duplicates_empty_names_and_null_factories<PatternRegistry>();
}

// ----------------------------------------------------- StrategyRegistry

TEST(StrategyRegistry, UnknownStrategyInScenarioIsRejectedUpFront) {
  ScenarioConfig cfg = base_config();
  cfg.faults[3].strategy = "no-such-strategy";
  EXPECT_THROW(harness::validate(cfg), std::invalid_argument);
  const StrongValidity validity;
  EXPECT_THROW(static_cast<void>(harness::run_universal(
                   cfg, make_lambda(validity, cfg.n, cfg.t))),
               std::invalid_argument);
}

TEST(StrategyRegistry, ParameterValidationGoesThroughTheStrategyHook) {
  const StrongValidity validity;
  const auto lambda = make_lambda(validity, 4, 1);

  ScenarioConfig bad_rate = base_config();
  bad_rate.faults[3] = Fault::mutate(1.5);
  EXPECT_THROW(static_cast<void>(harness::run_universal(bad_rate, lambda)),
               std::invalid_argument);

  ScenarioConfig bad_victims = base_config();
  bad_victims.faults[3] = Fault::adaptive(/*victims=*/-2);
  EXPECT_THROW(static_cast<void>(harness::run_universal(bad_victims, lambda)),
               std::invalid_argument);

  // observe = 0 would pick no victim, so the fault would inject nothing.
  ScenarioConfig bad_observe = base_config();
  bad_observe.faults[3] = Fault::adaptive(/*victims=*/3, /*observe=*/0);
  EXPECT_THROW(static_cast<void>(harness::run_universal(bad_observe, lambda)),
               std::invalid_argument);

  ScenarioConfig bad_crash = base_config();
  bad_crash.faults[3] = Fault::crash(-1.0);
  EXPECT_THROW(static_cast<void>(harness::run_universal(bad_crash, lambda)),
               std::invalid_argument);
}

// ------------------------------------------------- legacy-alias round-trip

TEST(LegacyAliases, FaultHelpersNameTheLegacyStrategies) {
  EXPECT_EQ(Fault::silent().strategy, "silent");
  EXPECT_EQ(Fault::crash(1.0).strategy, "crash");
  EXPECT_EQ(Fault::equivocate(9).strategy, "equivocate");
  EXPECT_EQ(Fault::delay().strategy, "delay");
  EXPECT_EQ(Fault::mutate().strategy, "mutate");
  EXPECT_EQ(Fault::scheduled_equivocate(9).strategy, "equivocate-scheduled");
  EXPECT_EQ(Fault::adaptive().strategy, "adaptive");
}

TEST(LegacyAliases, FullMatrixLabelsAndFaultNamesAreThePinnedOnes) {
  // The "full" matrix is the cross-version determinism reference: its cell
  // labels and per-fault strategy names feed the sweep JSON and must not
  // drift now that FaultKind is a registry alias.
  const auto full = harness::named_matrix("full").build();
  ASSERT_EQ(full.size(), 720u);
  EXPECT_EQ(full[0].label,
            "vc=auth(Alg1) val=Strong fault=none n=4 t=1 gst=0.00 delta=1.00"
            " seed=1");
  // The fault-free spec spans sizes x gsts x seeds = 12 cells; the first
  // faulty cell follows it.
  EXPECT_EQ(full[12].label,
            "vc=auth(Alg1) val=Strong fault=silentx1 n=4 t=1 gst=0.00"
            " delta=1.00 seed=1");
  std::set<std::string> fault_names;
  for (const auto& point : full) {
    for (const auto& [pid, fault] : point.config.faults) {
      fault_names.insert(fault.strategy);
    }
  }
  EXPECT_EQ(fault_names,
            (std::set<std::string>{"silent", "crash", "equivocate", "delay"}));
}

TEST(LegacyAliases, EachLegacyStrategyStillReachesConsensus) {
  const StrongValidity validity;
  for (const Fault& fault : {Fault::silent(), Fault::crash(2.0),
                             Fault::equivocate(0), Fault::delay()}) {
    SCOPED_TRACE(fault.strategy);
    ScenarioConfig cfg = base_config();
    cfg.proposals = {1, 1, 1, 1};
    cfg.faults[3] = fault;
    const auto result =
        harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
    EXPECT_TRUE(result.all_correct_decided(cfg));
    EXPECT_TRUE(result.agreement());
    EXPECT_EQ(result.common_decision(), std::optional<Value>(1));
  }
}

// ----------------------------------------------- the new built-in strategies

TEST(NewStrategies, ByzantineMatrixCoversThemAndStaysHealthy) {
  const auto points = harness::named_matrix("byzantine").build();
  std::set<std::string> fault_names;
  for (const auto& point : points) {
    for (const auto& [pid, fault] : point.config.faults) {
      fault_names.insert(fault.strategy);
    }
  }
  for (const char* name :
       {"mutate", "equivocate-scheduled", "adaptive", "silent", "crash",
        "equivocate", "delay"}) {
    EXPECT_EQ(fault_names.count(name), 1u) << name;
  }
  const auto outcomes = SweepRunner(4).run(points);
  harness::io::JsonSummary summary;
  for (const auto& o : outcomes) {
    summary.add(harness::io::parse_outcome_line(harness::io::outcome_line(o)));
  }
  EXPECT_EQ(summary.decided, points.size());
  EXPECT_EQ(summary.agreement_violations, 0u);
  EXPECT_EQ(summary.validity_violations, 0u);
  EXPECT_EQ(summary.errors, 0u);
}

TEST(NewStrategies, DeterministicAcrossJobCounts) {
  const auto points =
      ScenarioMatrix()
          .vc_kinds({VcKind::kAuthenticated, VcKind::kNonAuthenticated,
                     VcKind::kFast})
          .validities({ValidityKind::kStrong})
          .faults({FaultSpec{"mutate"}, FaultSpec{"equivocate-scheduled"},
                   FaultSpec{"adaptive"}})
          .sizes({{4, 1}})
          .gsts({0.0, 5.0})
          .seeds({1, 2, 3})
          .build();
  const auto jobs1 = SweepRunner(1).run(points);
  const auto jobs4 = SweepRunner(4).run(points);
  const auto jobs8 = SweepRunner(8).run(points);
  expect_equal_results(jobs1, jobs4);
  expect_equal_results(jobs1, jobs8);
}

TEST(NewStrategies, EachSurvivesEveryVcKind) {
  const StrongValidity validity;
  for (const VcKind kind : kAllVcs) {
    for (const Fault& fault :
         {Fault::mutate(0.5), Fault::scheduled_equivocate(9, 2.0),
          Fault::adaptive(/*victims=*/1, /*observe=*/4)}) {
      SCOPED_TRACE(harness::to_string(kind) + " / " + fault.strategy);
      ScenarioConfig cfg = base_config(kind);
      cfg.proposals = {1, 1, 1, 0};
      cfg.faults[3] = fault;
      const auto result = harness::run_universal(
          cfg, make_lambda(validity, cfg.n, cfg.t, {0, 1, 9}, {0, 1, 9}));
      EXPECT_TRUE(result.all_correct_decided(cfg));
      EXPECT_TRUE(result.agreement());
      // All correct processes propose 1, so Strong Validity forces 1.
      EXPECT_EQ(result.common_decision(), std::optional<Value>(1));
    }
  }
}

TEST(NewStrategies, MutateAtRateZeroMatchesNoTampering) {
  // rate = 0 never tampers, so the faulty process behaves correctly and
  // everyone decides the unanimous value.
  const StrongValidity validity;
  ScenarioConfig cfg = base_config();
  cfg.proposals = {2, 2, 2, 2};
  cfg.faults[3] = Fault::mutate(0.0);
  const auto result =
      harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
  EXPECT_TRUE(result.all_correct_decided(cfg));
  EXPECT_EQ(result.common_decision(), std::optional<Value>(2));
}

TEST(NewStrategies, AdaptiveShimPicksTheBusiestSenders) {
  // Unit-level check of the victim choice: feed an "adaptive" process a
  // traffic pattern, then watch which peers its broadcasts still reach. It
  // must silence the top senders, ties broken towards lower ids.
  class Broadcaster final : public sim::Process {
   public:
    void on_timer(sim::Context& ctx, std::uint64_t) override {
      ctx.broadcast(sim::make_payload<sim::GarbagePayload>(1));
    }
  };
  class RecordingCtx final : public sim::Context {
   public:
    std::vector<ProcessId> sent_to;
    [[nodiscard]] Time now() const override { return 0.0; }
    [[nodiscard]] ProcessId id() const override { return 0; }
    [[nodiscard]] int n() const override { return 4; }
    [[nodiscard]] int t() const override { return 1; }
    [[nodiscard]] Time delta() const override { return 1.0; }
    void send(ProcessId to, sim::PayloadPtr) override {
      sent_to.push_back(to);
    }
    void set_timer(Time, std::uint64_t) override {}
    [[nodiscard]] const crypto::KeyRegistry& keys() const override {
      std::abort();
    }
    [[nodiscard]] const crypto::Signer& signer() const override {
      std::abort();
    }
    [[nodiscard]] sim::Rng& rng() override { return rng_; }

   private:
    sim::Rng rng_{1};
  } ctx;
  ScenarioConfig cfg = base_config();
  cfg.faults[0] = Fault::adaptive(/*victims=*/2, /*observe=*/6);
  sim::Simulator simulator(sim::SimConfig{});
  harness::StrategyShared shared;
  const auto broadcaster = [](Value) {
    return std::make_unique<Broadcaster>();
  };
  const StrategyEnv env{cfg,         cfg.faults.at(0), 0,     simulator,
                        broadcaster, broadcaster,      shared};
  const auto process = StrategyRegistry::global().make("adaptive")->build(env);
  const auto reached = [&] {
    ctx.sent_to.clear();
    process->on_timer(ctx, 0);
    return ctx.sent_to;
  };
  const auto msg = sim::make_payload<sim::GarbagePayload>(1);
  // Sender 2: three messages; senders 1 and 3: one each; sender 0: one.
  for (const ProcessId from : {2, 1, 2, 3, 2}) {
    process->on_message(ctx, from, msg);
  }
  EXPECT_EQ(reached(), (std::vector<ProcessId>{0, 1, 2, 3}))
      << "no victim before the sixth delivery";
  process->on_message(ctx, 0, msg);
  // Victims {2, 0}: 2 is the busiest, and the 1-message tie between 0, 1
  // and 3 is broken towards the lower id.
  EXPECT_EQ(reached(), (std::vector<ProcessId>{1, 3}));
}

// ------------------------------------------------------- custom strategies

namespace {

/// Toy plugin: a correct stack that omits all sends to even-numbered peers
/// — registered from outside the harness core, as docs/adversaries.md
/// teaches.
class OmitEvensStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    std::vector<ProcessId> evens;
    for (ProcessId q = 0; q < env.cfg.n; ++q) {
      if (q % 2 == 0 && q != env.self) evens.push_back(q);
    }
    return std::make_unique<sim::FilterShim>(
        env.recorded_stack(env.own_proposal()),
        sim::FilterShim::Hooks{.outbound = sim::omit_to(std::move(evens))});
  }
};

}  // namespace

TEST(CustomStrategies, RegisterAndRunEndToEnd) {
  auto& registry = StrategyRegistry::global();
  if (!registry.contains("test-omit-evens")) {
    registry.add("test-omit-evens",
                 [] { return std::make_unique<OmitEvensStrategy>(); });
  }
  const StrongValidity validity;
  ScenarioConfig cfg = base_config();
  cfg.proposals = {1, 1, 1, 1};
  cfg.faults[3].strategy = "test-omit-evens";
  const auto result =
      harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
  EXPECT_TRUE(result.all_correct_decided(cfg));
  EXPECT_TRUE(result.agreement());
  EXPECT_EQ(result.common_decision(), std::optional<Value>(1));

  // And the sweep engine picks it up like any built-in.
  const auto points = ScenarioMatrix()
                          .faults({FaultSpec{"test-omit-evens"}})
                          .seeds({1, 2})
                          .build();
  const auto outcomes = SweepRunner(2).run(points);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.error.empty()) << o.point.label << ": " << o.error;
    EXPECT_TRUE(o.decided) << o.point.label;
    EXPECT_NE(o.point.label.find("test-omit-evensx1"), std::string::npos);
  }
}

// -------------------------------------------------------- strategy filter

TEST(StrategyFilter, KeepsOnlyTheNamedStrategies) {
  const auto points = harness::named_matrix("byzantine")
                          .keep(harness::Axis::kStrategy, {"crash", "none"})
                          .build();
  ASSERT_FALSE(points.empty());
  for (const auto& point : points) {
    for (const auto& [pid, fault] : point.config.faults) {
      EXPECT_EQ(fault.strategy, "crash") << point.label;
    }
  }
  // Both the crash cells and the fault-free ("none") cells survive.
  EXPECT_TRUE(std::any_of(points.begin(), points.end(), [](const auto& p) {
    return p.config.faults.empty();
  }));
  EXPECT_TRUE(std::any_of(points.begin(), points.end(), [](const auto& p) {
    return !p.config.faults.empty();
  }));
}
