// Hashing budget per cell. crypto::hash_counters() counts SHA-256
// compression blocks around one run_universal, after a warm-up run of the
// same cell has derived the shared registry's secrets and interned the
// payload types. The block pins move only when a protocol hashes more or
// less. The verify pins hold the signature checks fixed, so a cheaper
// cell cannot come from checking fewer signatures.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "valcon/core/lambda.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/harness/validity_kind.hpp"

namespace valcon::harness {
namespace {

struct Budget {
  std::string name;
  VcKind vc;
  core::CertMode mode;
  std::string topology;
  int n;
  int t;
  std::uint64_t blocks;
  std::uint64_t verifies;
};

// Every stack and certificate mode on one mixed-proposal n = 7 cell, plus
// the large-n committee cell: seed 1, Strong validity, no faults.
const Budget kBudgets[] = {
    {"auth_pervote", VcKind::kAuthenticated, core::CertMode::kPerVote,
     "full-mesh", 7, 2, 305, 146},
    {"auth_aggregate", VcKind::kAuthenticated, core::CertMode::kAggregate,
     "full-mesh", 7, 2, 305, 126},
    {"nonauth_pervote", VcKind::kNonAuthenticated, core::CertMode::kPerVote,
     "full-mesh", 7, 2, 49, 0},
    {"nonauth_aggregate", VcKind::kNonAuthenticated,
     core::CertMode::kAggregate, "full-mesh", 7, 2, 999, 167},
    {"fast_pervote", VcKind::kFast, core::CertMode::kPerVote, "full-mesh", 7,
     2, 315, 165},
    {"fast_aggregate", VcKind::kFast, core::CertMode::kAggregate, "full-mesh",
     7, 2, 315, 144},
    {"committee7_n250", VcKind::kAuthenticated, core::CertMode::kAggregate,
     "committee-7", 250, 83, 604, 372},
};

void PrintTo(const Budget& b, std::ostream* os) { *os << b.name; }

ScenarioConfig config_of(const Budget& b) {
  ScenarioConfig cfg;
  cfg.n = b.n;
  cfg.t = b.t;
  cfg.seed = 1;
  cfg.vc = b.vc;
  cfg.cert_mode = b.mode;
  cfg.topology = named_topology(b.topology);
  if (b.n == 7) {
    cfg.proposals = {0, 1, 2, 0, 1, 2, 0};
  } else {
    cfg.proposals.assign(static_cast<std::size_t>(b.n), 1);
  }
  return cfg;
}

class HashBudget : public ::testing::TestWithParam<Budget> {};

TEST_P(HashBudget, BlocksAndVerifiesPerCell) {
  const Budget& b = GetParam();
  const ScenarioConfig cfg = config_of(b);
  const auto validity = make_validity(ValidityKind::kStrong, cfg.n, cfg.t);
  const core::LambdaFn lambda = core::make_lambda(*validity, cfg.n, cfg.t);
  static_cast<void>(run_universal(cfg, lambda));  // warm the shared caches

  const crypto::HashCounters before = crypto::hash_counters();
  const std::uint64_t verifies_before = crypto::verify_counters().total();
  const RunResult result = run_universal(cfg, lambda);
  const std::uint64_t blocks = crypto::hash_counters().blocks - before.blocks;
  const std::uint64_t digests =
      crypto::hash_counters().digests - before.digests;
  const std::uint64_t verifies =
      crypto::verify_counters().total() - verifies_before;

  RecordProperty("blocks", static_cast<int>(blocks));
  RecordProperty("digests", static_cast<int>(digests));
  EXPECT_TRUE(result.all_correct_decided(cfg));
  EXPECT_EQ(result.verifies_total, verifies);
  EXPECT_EQ(verifies, b.verifies);
  EXPECT_EQ(blocks, b.blocks);
  EXPECT_LE(digests, blocks);  // every digest compresses at least one block
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, HashBudget, ::testing::ValuesIn(kBudgets),
    [](const ::testing::TestParamInfo<Budget>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace valcon::harness
