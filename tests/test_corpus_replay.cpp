// Replays the committed adversary-search regression corpus
// (tests/corpus/*.json, path baked in as VALCON_CORPUS_DIR). Each cell is
// reconstructed from its JSON alone — no C++ fixture — resolved through
// candidate_point() and re-run; the recorded verdict and property flags
// must reproduce exactly. This is the contract that makes a mined
// counterexample a regression test: anyone breaking the simulator, a
// strategy, or the matrix resolution in a way that changes any of these
// executions trips this target.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "valcon/harness/search.hpp"

using namespace valcon;
using harness::classify;
using harness::CorpusCell;
using harness::Counterexample;
using harness::parse_cell;
using harness::SweepOutcome;
using harness::Verdict;
using harness::verdict_token;

namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(VALCON_CORPUS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

// The corpus must exist and keep covering the interesting verdicts: all
// three property violations, and at least one cell from each colluding
// multi-process strategy (the adversary class the search was built to
// exercise). Guards against the corpus being gutted to "fix" a failure.
TEST(CorpusReplay, CorpusCoversAllVerdictsAndTheColludingStrategies) {
  const auto files = corpus_files();
  ASSERT_FALSE(files.empty()) << "no cells under " << VALCON_CORPUS_DIR;
  std::set<std::string> verdicts;
  std::set<std::string> strategies;
  for (const auto& path : files) {
    const CorpusCell cell = parse_cell(slurp(path));
    verdicts.insert(verdict_token(cell.verdict));
    strategies.insert(cell.candidate.named[harness::Axis::kStrategy]);
  }
  EXPECT_TRUE(verdicts.count("termination"));
  EXPECT_TRUE(verdicts.count("agreement"));
  EXPECT_TRUE(verdicts.count("validity"));
  EXPECT_TRUE(strategies.count("collude-equivocate"));
  EXPECT_TRUE(strategies.count("collude-withhold"));
}

// Every committed cell replays to its recorded verdict and flags.
TEST(CorpusReplay, EveryCellReproducesItsRecordedOutcome) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const CorpusCell cell = parse_cell(slurp(path));
    const SweepOutcome outcome = harness::evaluate(cell.candidate);
    ASSERT_TRUE(outcome.error.empty()) << outcome.error;
    EXPECT_EQ(classify(outcome), cell.verdict);
    EXPECT_EQ(outcome.decided, cell.expect_decided);
    EXPECT_EQ(outcome.agreement, cell.expect_agreement);
    EXPECT_EQ(outcome.validity_ok, cell.expect_validity_ok);
    // The flags are derived from the checker report, never hand-set.
    EXPECT_EQ(outcome.decided, outcome.report.termination);
    EXPECT_EQ(outcome.agreement, outcome.report.agreement);
    EXPECT_EQ(outcome.validity_ok, outcome.report.validity);
  }
}

// File names match the canonical cell_filename() and the bytes round-trip
// through cell_json(): the corpus stays regenerable byte-for-byte from the
// search tool.
TEST(CorpusReplay, CellsAreCanonicallyNamedAndRoundTrip) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const std::string bytes = slurp(path);
    const CorpusCell cell = parse_cell(bytes);
    Counterexample cx;
    cx.candidate = cell.candidate;
    cx.verdict = cell.verdict;
    cx.outcome = harness::evaluate(cell.candidate);
    EXPECT_EQ(path.filename().string(), harness::cell_filename(cx));
    EXPECT_EQ(harness::cell_json(cx), bytes);
  }
}

// Committed cells are already minimal: shrinking one again changes nothing
// (the shrinker is idempotent and the corpus is at its fixpoint). The space
// mirrors the one the corpus was mined from (README.md in the corpus dir).
TEST(CorpusReplay, CellsAreAtTheShrinkFixpoint) {
  harness::SearchOptions options;
  options.space.sizes = {{3, 1}, {4, 2}};
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const CorpusCell cell = parse_cell(slurp(path));
    const Counterexample shrunk =
        harness::shrink(cell.candidate, cell.verdict, options);
    EXPECT_EQ(shrunk.candidate.key(), cell.candidate.key());
  }
}
