// Pins core::thresholds: the value table at the paper's boundary
// regimes, the input-validation throws, and — the load-bearing check —
// that the protocol layer's behaviour stays byte-identical: the five
// named sweep matrices, one adversary sweep and two unsound-regime search
// reports must hash to the digests committed under tests/golden/. A
// threshold off-by-one (or any other change to when a quorum fires)
// anywhere in consensus/ or bcast/ changes decision timing or outcomes and
// shows up here as a digest mismatch.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "valcon/core/thresholds.hpp"
#include "valcon/crypto/sha256.hpp"
#include "valcon/harness/search.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"

namespace valcon {
namespace {

using core::brb_echo_quorum;
using core::byz_quorum;
using core::byz_resilient;
using core::plurality;
using core::quorum_n_minus_t;

// ------------------------------------------------------- value tables

TEST(Thresholds, ValueTableAtSmallestResilientRegime) {
  // n = 3t + 1: the paper's minimal Byzantine-resilient systems.
  EXPECT_EQ(quorum_n_minus_t(4, 1), 3);
  EXPECT_EQ(plurality(1), 2);
  EXPECT_EQ(byz_quorum(4, 1), 3);
  EXPECT_EQ(brb_echo_quorum(4, 1), 3);
  EXPECT_TRUE(byz_resilient(4, 1));

  EXPECT_EQ(quorum_n_minus_t(7, 2), 5);
  EXPECT_EQ(plurality(2), 3);
  EXPECT_EQ(byz_quorum(7, 2), 5);
  EXPECT_EQ(brb_echo_quorum(7, 2), 5);
  EXPECT_TRUE(byz_resilient(7, 2));

  EXPECT_EQ(quorum_n_minus_t(10, 3), 7);
  EXPECT_EQ(byz_quorum(10, 3), 7);
  EXPECT_EQ(brb_echo_quorum(10, 3), 7);
}

TEST(Thresholds, ValueTableJustOutsideResilience) {
  // n = 3t: the unsound regime the sweep harness deliberately runs.
  // The helpers still compute (the corpus replays depend on it); only
  // the regime predicate reports the deficit.
  EXPECT_EQ(quorum_n_minus_t(3, 1), 2);
  EXPECT_EQ(byz_quorum(3, 1), 3);
  EXPECT_EQ(brb_echo_quorum(3, 1), 3);
  EXPECT_FALSE(byz_resilient(3, 1));

  EXPECT_EQ(quorum_n_minus_t(6, 2), 4);
  EXPECT_EQ(byz_quorum(6, 2), 5);
  EXPECT_EQ(brb_echo_quorum(6, 2), 5);
  EXPECT_FALSE(byz_resilient(6, 2));

  // The corpus's n = 4, t = 2 cells sit even deeper in the unsound
  // regime and must also evaluate.
  EXPECT_EQ(quorum_n_minus_t(4, 2), 2);
  EXPECT_EQ(byz_quorum(4, 2), 5);
  EXPECT_FALSE(byz_resilient(4, 2));
}

TEST(Thresholds, ValueTableCrashFreeDegenerateCase) {
  // t = 0: every quorum collapses to "one vote" or "everyone".
  EXPECT_EQ(quorum_n_minus_t(1, 0), 1);
  EXPECT_EQ(quorum_n_minus_t(5, 0), 5);
  EXPECT_EQ(plurality(0), 1);
  EXPECT_EQ(byz_quorum(5, 0), 1);
  EXPECT_EQ(brb_echo_quorum(5, 0), 3);
  EXPECT_EQ(brb_echo_quorum(1, 0), 1);
  EXPECT_TRUE(byz_resilient(1, 0));
}

TEST(Thresholds, EchoQuorumIsCeilOfHalfNPlusTPlusOne) {
  for (int n = 1; n <= 12; ++n) {
    for (int t = 0; t <= n; ++t) {
      const int expected = (n + t + 1 + 1) / 2;  // ceil((n+t+1)/2)
      EXPECT_EQ(brb_echo_quorum(n, t), expected) << "n=" << n << " t=" << t;
    }
  }
}

// ------------------------------------------------------- validation

TEST(Thresholds, RejectsNonsenseSystems) {
  EXPECT_THROW((void)quorum_n_minus_t(0, 0), std::invalid_argument);
  EXPECT_THROW((void)quorum_n_minus_t(4, -1), std::invalid_argument);
  EXPECT_THROW((void)quorum_n_minus_t(4, 5), std::invalid_argument);
  EXPECT_THROW((void)plurality(-1), std::invalid_argument);
  EXPECT_THROW((void)byz_quorum(-3, 1), std::invalid_argument);
  EXPECT_THROW((void)byz_quorum(3, 4), std::invalid_argument);
  EXPECT_THROW((void)brb_echo_quorum(0, 0), std::invalid_argument);
  EXPECT_THROW((void)byz_resilient(4, 5), std::invalid_argument);
}

TEST(Thresholds, AcceptsFullByzantineBoundary) {
  // t = n is a describable (if hopeless) system; only t > n is nonsense.
  EXPECT_EQ(quorum_n_minus_t(3, 3), 0);
  EXPECT_EQ(byz_quorum(3, 3), 7);
  EXPECT_FALSE(byz_resilient(3, 3));
}

// ------------------------------------------------------ golden pins

// Rebuilds a matrix's sweep document in-process exactly the way
// valcon_sweep emits it (header, comma-separated outcome lines in index
// order, footer).
std::string sweep_document(const std::string& name,
                           const harness::ScenarioMatrix& matrix) {
  const std::size_t total = matrix.size();

  std::ostringstream doc;
  harness::io::document_header(doc, name, std::nullopt, total);
  harness::io::JsonSummary summary;
  const harness::SweepRunner runner(4);
  runner.run_range(matrix, 0, total, [&](harness::SweepOutcome&& o) {
    const std::string line = harness::io::outcome_line(o);
    summary.add(harness::io::parse_outcome_line(line));
    doc << line << (o.point.index + 1 < total ? ",\n" : "\n");
  });
  harness::io::document_footer(doc, summary);
  return doc.str();
}

// perfbench's `adversarial` workload at seeds {1, 2}: every built-in
// strategy plus fault-free on all three stacks, both sizes, both GSTs and
// both certificate modes, 528 cells. `byzantine` pins seven strategies in
// per-vote mode only; this document pins all ten under both modes.
harness::ScenarioMatrix adversaries_matrix() {
  std::vector<harness::FaultSpec> faults{harness::FaultSpec{"silent", 0}};
  for (const char* strategy :
       {"silent", "crash", "equivocate", "delay", "mutate",
        "equivocate-scheduled", "adaptive", "collude-equivocate",
        "collude-withhold", "forge-qc"}) {
    faults.push_back(harness::FaultSpec{strategy});
  }
  return harness::ScenarioMatrix()
      .vc_kinds({harness::VcKind::kAuthenticated,
                 harness::VcKind::kNonAuthenticated, harness::VcKind::kFast})
      .validities({harness::ValidityKind::kStrong})
      .faults(std::move(faults))
      .sizes({{4, 1}, {7, 2}})
      .gsts({0.0, 5.0})
      .cert_modes({core::CertMode::kPerVote, core::CertMode::kAggregate})
      .seeds({1, 2});
}

// The options of `valcon_search --search-seed 42 --budget 256
// --sizes 4/2,3/1 --cert-modes per-vote,aggregate`: default pools at
// unsound sizes, where 2t+1 can exceed n, cells run to the horizon and
// the shrinker replays every counterexample it finds.
harness::SearchOptions search_options() {
  harness::SearchOptions options;
  options.search_seed = 42;
  options.budget = 256;
  options.jobs = 4;
  options.space.sizes = {{4, 2}, {3, 1}};
  options.space.set_pool(harness::Axis::kCertMode, {"per-vote", "aggregate"});
  return options;
}

// The report of the search above ("search"), or of the same search with
// `--topologies full-mesh,committee-3` ("search_axes"). Only the second
// pins the gated writer: in the first, every shrunk cell and the best
// near-miss fall back to the per-vote, full-mesh defaults, so its report
// carries no cert_mode or topology field.
std::string search_document(const std::string& name) {
  harness::SearchOptions options = search_options();
  if (name == "search_axes") {
    options.space.set_pool(harness::Axis::kTopology,
                           {"full-mesh", "committee-3"});
  }
  return harness::report_json(harness::run_search(options));
}

std::string sha256_hex(const std::string& text) {
  const crypto::Sha256::Digest digest =
      crypto::Sha256::hash(text.data(), text.size());
  std::string hex;
  for (const std::uint8_t byte : digest) {
    static const char* kHex = "0123456789abcdef";
    hex.push_back(kHex[byte >> 4]);
    hex.push_back(kHex[byte & 0xf]);
  }
  return hex;
}

// One pinned document per name: the five named matrices, the adversary
// sweep, then the two search reports. tests/golden/<name>.sha256 holds its
// digest (first token).
class GoldenDocument : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenDocument, MatchesCommittedDigest) {
  const std::string& name = GetParam();
  std::string text;
  if (name.rfind("search", 0) == 0) {
    text = search_document(name);
  } else if (name == "adversaries") {
    text = sweep_document(name, adversaries_matrix());
  } else {
    text = sweep_document(name, harness::named_matrix(name));
  }

  const std::string path =
      std::string(VALCON_GOLDEN_DIR) + "/" + name + ".sha256";
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing " << path;
  std::string expected;
  golden >> expected;
  ASSERT_EQ(expected.size(), 64U);
  EXPECT_EQ(sha256_hex(text), expected)
      << "the " << name << " document changed bytes; if that is"
      << " intentional, refresh " << path;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, GoldenDocument,
    ::testing::Values("full", "byzantine", "validity", "certs", "committee",
                      "adversaries", "search", "search_axes"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

}  // namespace
}  // namespace valcon
