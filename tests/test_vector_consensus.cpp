// Integration tests: all three vector-consensus implementations
// (Algorithms 1, 3, 6) — Agreement on the vector, Termination, size
// exactly n-t, and Vector Validity (decided entries of correct processes
// match their real proposals), under fault injection and across seeds.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "valcon/consensus/auth_vector_consensus.hpp"
#include "valcon/consensus/fast_vector_consensus.hpp"
#include "valcon/consensus/nonauth_vector_consensus.hpp"
#include "valcon/sim/adversary.hpp"
#include "valcon/sim/simulator.hpp"

using namespace valcon;
using namespace valcon::sim;
using namespace valcon::consensus;

namespace {

enum class Kind { kAuth, kNonAuth, kFast };

std::unique_ptr<VectorConsensus> make_vc(Kind kind, int n) {
  switch (kind) {
    case Kind::kAuth: return std::make_unique<AuthVectorConsensus>();
    case Kind::kNonAuth: return std::make_unique<NonAuthVectorConsensus>(n);
    case Kind::kFast: return std::make_unique<FastVectorConsensus>();
  }
  return nullptr;
}

struct VcRun {
  std::map<ProcessId, core::InputConfig> vectors;
  std::uint64_t message_complexity = 0;
};

VcRun run_vc(Kind kind, int n, int t, const std::vector<Value>& proposals,
             const std::vector<ProcessId>& silent, std::uint64_t seed) {
  SimConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.seed = seed;
  Simulator sim(cfg);
  VcRun out;
  for (ProcessId p = 0; p < n; ++p) {
    if (std::find(silent.begin(), silent.end(), p) != silent.end()) {
      sim.mark_faulty(p);
      sim.add_process(p, std::make_unique<SilentProcess>());
      continue;
    }
    auto vc = make_vc(kind, n);
    vc->set_input(proposals[static_cast<std::size_t>(p)]);
    vc->set_on_decide([&out, p](Context&, const core::InputConfig& vec) {
      out.vectors.emplace(p, vec);
    });
    sim.add_process(p, std::make_unique<ComponentHost>(std::move(vc)));
  }
  sim.run(1e7);
  out.message_complexity = sim.metrics().message_complexity();
  return out;
}

void expect_vector_consensus_properties(const VcRun& run, int n, int t,
                                        const std::vector<Value>& proposals,
                                        const std::vector<ProcessId>& silent) {
  // Termination: every correct process decided.
  ASSERT_EQ(run.vectors.size(), static_cast<std::size_t>(n) - silent.size());
  // Agreement: all decided vectors identical.
  const core::InputConfig& vec = run.vectors.begin()->second;
  for (const auto& [p, v] : run.vectors) EXPECT_EQ(v, vec);
  // Exactly n-t pairs.
  EXPECT_EQ(vec.count(), n - t);
  // Vector Validity: entries of correct processes match their proposals;
  // silent processes cannot appear (they never sent anything).
  for (const ProcessId p : vec.processes()) {
    EXPECT_EQ(std::find(silent.begin(), silent.end(), p), silent.end())
        << "silent process P" << p << " appears in the decided vector";
    EXPECT_EQ(*vec.at(p), proposals[static_cast<std::size_t>(p)]);
  }
}

}  // namespace

class VectorConsensusSuite
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  [[nodiscard]] Kind kind() const {
    return static_cast<Kind>(std::get<0>(GetParam()));
  }
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(std::get<1>(GetParam()));
  }
};

TEST_P(VectorConsensusSuite, AllCorrectDistinctProposals) {
  const int n = 4;
  const int t = 1;
  const std::vector<Value> proposals = {10, 11, 12, 13};
  const auto run = run_vc(kind(), n, t, proposals, {}, seed());
  expect_vector_consensus_properties(run, n, t, proposals, {});
}

TEST_P(VectorConsensusSuite, OneSilentFault) {
  const int n = 4;
  const int t = 1;
  const std::vector<Value> proposals = {10, 11, 12, 13};
  const std::vector<ProcessId> silent = {2};
  const auto run = run_vc(kind(), n, t, proposals, silent, seed());
  expect_vector_consensus_properties(run, n, t, proposals, silent);
}

TEST_P(VectorConsensusSuite, SevenProcessesTwoSilent) {
  const int n = 7;
  const int t = 2;
  const std::vector<Value> proposals = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<ProcessId> silent = {0, 6};
  const auto run = run_vc(kind(), n, t, proposals, silent, seed());
  expect_vector_consensus_properties(run, n, t, proposals, silent);
}

namespace {

std::string kind_param_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static constexpr const char* kNames[] = {"Auth", "NonAuth", "Fast"};
  return std::string(kNames[std::get<0>(info.param)]) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    AllKinds, VectorConsensusSuite,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Range(1, 4)),
    kind_param_name);

TEST(VectorConsensusComplexity, AuthIsQuadraticNonAuthIsNot) {
  // Shape check (E5/E6 preview): the non-authenticated implementation
  // sends far more messages than the authenticated one at equal n.
  const std::vector<Value> proposals = {1, 2, 3, 4, 5, 6, 7};
  const auto auth = run_vc(Kind::kAuth, 7, 2, proposals, {}, 1);
  const auto nonauth = run_vc(Kind::kNonAuth, 7, 2, proposals, {}, 1);
  EXPECT_GT(nonauth.message_complexity, 3 * auth.message_complexity);
}

TEST(VectorConsensusCrash, AuthToleratesCrashMidProtocol) {
  // A process that crashes mid-run is faulty; the rest must still decide.
  SimConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = 9;
  Simulator sim(cfg);
  std::map<ProcessId, core::InputConfig> vectors;
  for (ProcessId p = 0; p < 4; ++p) {
    auto vc = std::make_unique<AuthVectorConsensus>();
    vc->set_input(p);
    vc->set_on_decide([&vectors, p](Context&, const core::InputConfig& vec) {
      vectors.emplace(p, vec);
    });
    std::unique_ptr<Process> host =
        std::make_unique<ComponentHost>(std::move(vc));
    if (p == 1) {
      sim.mark_faulty(1);
      host = std::make_unique<FilterShim>(
          std::move(host), FilterShim::Hooks{.stop = 2.5});
    }
    sim.add_process(p, std::move(host));
  }
  sim.run(1e6);
  vectors.erase(1);
  ASSERT_EQ(vectors.size(), 3u);
  const auto& vec = vectors.begin()->second;
  for (const auto& [p, v] : vectors) EXPECT_EQ(v, vec);
  // P1's proposal may or may not appear (it signed it before crashing);
  // if it does, it must be the real one.
  if (vec.participates(1)) {
    EXPECT_EQ(*vec.at(1), 1);
  }
}
