// The repository benchmark: one workload per process, run closed-loop on
// one thread (each operation starts when the previous one finishes, as with
// `valcon_sweep --jobs 1`). Usage:
//
//   bench_valcon --workload NAME --seed S --seconds N --golden FILE
//                [--trace FILE]
//
// The seed offsets every seed list a workload uses, so the same seed gives
// the same inputs. A run repeats a set-up (building the workload, the pinned
// full-matrix golden check, a warm-up over every 50th operation) followed by
// one whole pass over the workload's operations, until the passes have
// taken N seconds. It checks every output and prints as its last line one
// JSON object: correct, attempted, failed and the metrics. Untraced runs
// give the end-to-end metrics; with --trace the passes alternate untraced
// and traced, the run gives the per-layer metrics and writes the first
// traced pass's spans to FILE as JSONL.
//
// Every pass after the first must reproduce the first pass's output bytes
// operation by operation (outcome lines, search reports, storm counts), and
// every traced operation must reproduce the untraced bytes: the traced path
// replays run_point step by step. The run exits 1 when a check fails, 2 on
// a usage error. README.md beside this file describes the workloads and
// metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "storm.hpp"
#include "trace.hpp"
#include "valcon/core/execution_checker.hpp"
#include "valcon/core/lambda.hpp"
#include "valcon/core/thresholds.hpp"
#include "valcon/crypto/hash.hpp"
#include "valcon/crypto/sha256.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/harness/search.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"

// ------------------------------------------------------------ alloc probe
//
// Counts every heap allocation this binary makes, for allocations per cell
// and per simulated message.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC cannot see that the replaced operator new below is itself
// malloc-based and flags the free() in operator delete as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace valcon::perfbench {
namespace {

using harness::SweepOutcome;
using harness::SweepPoint;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Nearest-rank percentile of `values` (q in [0, 100]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q / 100.0 * static_cast<double>(values.size()) + 0.999999);
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ------------------------------------------------------------- counts

/// Deterministic per-layer counts, accumulated over the first traced pass
/// (the same operations and outputs as every untraced pass).
struct Counts {
  std::uint64_t cells = 0;  // cells run (storm runs for the storm)
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t decisions = 0;
  std::uint64_t words = 0;
  std::uint64_t decided_cells = 0;
  double decide_time_delta = 0.0;  // sum over decided cells
  std::uint64_t cut = 0;
  std::uint64_t bytes = 0;
  crypto::VerifyCounters verifies;
  std::uint64_t searches = 0;
  std::uint64_t evals = 0;
  std::uint64_t shrink_probes = 0;
  std::uint64_t counterexamples = 0;
  /// (n, threshold k, seed) of every key registry the cells used.
  std::set<std::tuple<int, int, std::uint64_t>> registries;

  void add_cell(const SweepOutcome& o, const std::string& line,
                const crypto::VerifyCounters& delta) {
    const harness::ScenarioConfig& cfg = o.point.config;
    ++cells;
    bytes += line.size();
    registries.emplace(cfg.n, cfg.n - cfg.t, cfg.seed);
    if (!cfg.topology.full_mesh()) {
      const int k = cfg.topology.committee_k;
      registries.emplace(
          k, k - harness::Topology::committee_fault_tolerance(k), cfg.seed);
    }
    if (!o.error.empty()) return;
    const harness::RunResult& r = o.result;
    events += r.events;
    messages += r.messages_total;
    decisions += r.decisions.size();
    words += r.word_complexity;
    if (!r.queue_drained) ++cut;
    if (o.decided) {
      ++decided_cells;
      decide_time_delta += r.last_decision_time / cfg.delta;
    }
    verifies.signature += delta.signature;
    verifies.threshold += delta.threshold;
    verifies.aggregate += delta.aggregate;
  }

  [[nodiscard]] std::uint64_t key_derivations() const {
    std::uint64_t total = 0;
    for (const auto& [n, k, seed] : registries) {
      total += harness::shared_key_registry(n, k, seed)->key_derivations();
    }
    return total;
  }
};

crypto::VerifyCounters verify_delta(const crypto::VerifyCounters& before) {
  const crypto::VerifyCounters& now = crypto::verify_counters();
  return {now.signature - before.signature, now.threshold - before.threshold,
          now.aggregate - before.aggregate};
}

// ---------------------------------------------------------- cell paths

/// A cell fails when it threw, or when it ran in the sound regime (n > 3t)
/// and violated Termination, Agreement or Validity.
bool cell_ok(const SweepOutcome& o) {
  if (!o.error.empty()) return false;
  const harness::ScenarioConfig& cfg = o.point.config;
  if (!core::byz_resilient(cfg.n, cfg.t)) return true;
  return o.decided && o.agreement && o.validity_ok;
}

/// run_point, step by step, with a span around each public call and the Λ
/// function wrapped so every evaluation is a child span of run_universal.
/// Produces the same SweepOutcome (and so the same outcome_line bytes).
SweepOutcome traced_run_point(const SweepPoint& point, Tracer& tracer,
                              crypto::VerifyCounters& verifies) {
  SweepOutcome outcome;
  outcome.point = point;
  const harness::ScenarioConfig& cfg = point.config;
  std::unique_ptr<core::ValidityProperty> validity;
  {
    const Tracer::Scope span(tracer, Layer::kLambdaBuild);
    validity = harness::make_validity(point.validity, cfg.n, cfg.t);
  }
  try {
    core::LambdaFn lambda;
    {
      const Tracer::Scope span(tracer, Layer::kLambdaBuild);
      lambda = core::make_lambda(*validity, cfg.n, cfg.t);
    }
    const core::LambdaFn traced_lambda =
        [&tracer, &lambda](const core::InputConfig& c) {
          const Tracer::Scope span(tracer, Layer::kLambdaCall);
          return lambda(c);
        };
    const crypto::VerifyCounters before = crypto::verify_counters();
    {
      const Tracer::Scope span(tracer, Layer::kRunUniversal);
      outcome.result = harness::run_universal(cfg, traced_lambda);
    }
    verifies = verify_delta(before);
  } catch (const std::exception& e) {
    outcome.error = e.what();
    outcome.decided = false;
    return outcome;
  }
  {
    const Tracer::Scope span(tracer, Layer::kCheck);
    std::set<ProcessId> faulty;
    for (const auto& [pid, fault] : cfg.faults) faulty.insert(pid);
    outcome.report = core::check_execution(*validity, cfg.n, cfg.t,
                                           cfg.proposals, faulty,
                                           outcome.result.decisions);
  }
  outcome.decided = outcome.report.termination;
  outcome.agreement = outcome.report.agreement;
  outcome.validity_ok = outcome.report.validity;
  return outcome;
}

/// Traced cell from an already-decoded point through outcome_line.
std::string traced_cell(const SweepPoint& point, Tracer& tracer,
                        Counts& counts, SweepOutcome& outcome) {
  crypto::VerifyCounters verifies;
  outcome = traced_run_point(point, tracer, verifies);
  std::string line;
  {
    const Tracer::Scope span(tracer, Layer::kOutcomeLine);
    line = harness::io::outcome_line(outcome);
  }
  counts.add_cell(outcome, line, verifies);
  return line;
}

// ----------------------------------------------------------- workloads

/// What one operation produced: the bytes later passes must reproduce, and
/// whether the operation passed its own checks.
struct OpOutput {
  std::string bytes;
  bool ok = true;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t ops_per_pass() const = 0;
  /// Operation `i` through the library's public entry points.
  virtual OpOutput run(std::size_t i) = 0;
  /// Operation `i` replayed step by step under `tracer`.
  virtual OpOutput run_traced(std::size_t i, Tracer& tracer,
                              Counts& counts) = 0;
};

/// One cell per operation, in matrix index order: point_at, run_point,
/// outcome_line.
class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(harness::ScenarioMatrix matrix)
      : matrix_(std::move(matrix)) {}

  [[nodiscard]] std::size_t ops_per_pass() const override {
    return matrix_.size();
  }

  OpOutput run(std::size_t i) override {
    const SweepOutcome o = harness::run_point(matrix_.point_at(i));
    return {harness::io::outcome_line(o), cell_ok(o)};
  }

  OpOutput run_traced(std::size_t i, Tracer& tracer, Counts& counts) override {
    const Tracer::Scope op(tracer, Layer::kOp);
    SweepPoint point;
    {
      const Tracer::Scope span(tracer, Layer::kPointAt);
      point = matrix_.point_at(i);
    }
    SweepOutcome o;
    std::string line = traced_cell(point, tracer, counts, o);
    return {std::move(line), cell_ok(o)};
  }

 private:
  harness::ScenarioMatrix matrix_;
};

/// One adversary search per operation (search seed S + i), then a replay
/// of every shrunk counterexample, which must reproduce its verdict and
/// its outcome bytes.
class SearchWorkload final : public Workload {
 public:
  SearchWorkload(harness::SearchOptions options, std::uint64_t seed,
                 std::size_t searches)
      : options_(std::move(options)), seed_(seed), searches_(searches) {}

  [[nodiscard]] std::size_t ops_per_pass() const override {
    return searches_;
  }

  OpOutput run(std::size_t i) override {
    const harness::SearchReport report = harness::run_search(options_for(i));
    OpOutput out{harness::report_json(report), report.errors == 0};
    for (const harness::Counterexample& cx : report.counterexamples) {
      const SweepOutcome o =
          harness::run_point(harness::candidate_point(cx.candidate));
      replay_check(cx, o, harness::io::outcome_line(o), out);
    }
    return out;
  }

  OpOutput run_traced(std::size_t i, Tracer& tracer, Counts& counts) override {
    const Tracer::Scope op(tracer, Layer::kOp);
    const harness::SearchOptions options = options_for(i);
    // run_search with shrinking on is the generation loop followed by one
    // shrink() per violation, deduplicated by the shrunk cell's key; the
    // same steps here put the two phases in separate spans. Turning
    // shrinking off makes run_search evaluate each violation once more,
    // which the tracing overhead includes.
    harness::SearchOptions generate = options;
    generate.shrink = false;
    harness::SearchReport report;
    {
      const Tracer::Scope span(tracer, Layer::kSearchGenerate);
      report = harness::run_search(generate);
    }
    std::vector<harness::Counterexample> shrunk;
    std::set<std::string> emitted;
    std::uint64_t probes = 0;
    for (const harness::Counterexample& violation : report.counterexamples) {
      harness::Counterexample cx;
      {
        const Tracer::Scope span(tracer, Layer::kSearchShrink);
        cx = harness::shrink(violation.candidate, violation.verdict, options);
      }
      probes += static_cast<std::uint64_t>(cx.shrink_probes);
      if (emitted.insert(cx.candidate.key()).second) {
        shrunk.push_back(std::move(cx));
      }
    }
    ++counts.searches;
    // Generation evaluations, shrink probes and each shrunk cell's final
    // re-evaluation: the evaluations run_search spends.
    counts.evals += report.evaluated + probes + report.counterexamples.size();
    counts.shrink_probes += probes;
    counts.counterexamples += shrunk.size();
    report.counterexamples = std::move(shrunk);
    OpOutput out{harness::report_json(report), report.errors == 0};
    for (const harness::Counterexample& cx : report.counterexamples) {
      SweepPoint point;
      {
        const Tracer::Scope span(tracer, Layer::kPointAt);
        point = harness::candidate_point(cx.candidate);
      }
      SweepOutcome o;
      const std::string line = traced_cell(point, tracer, counts, o);
      replay_check(cx, o, line, out);
    }
    return out;
  }

 private:
  [[nodiscard]] harness::SearchOptions options_for(std::size_t i) const {
    harness::SearchOptions options = options_;
    options.search_seed = seed_ + i;
    return options;
  }

  static void replay_check(const harness::Counterexample& cx,
                           const SweepOutcome& replay,
                           const std::string& line, OpOutput& out) {
    out.bytes += "\n" + line;
    if (harness::classify(replay) != cx.verdict ||
        line != harness::io::outcome_line(cx.outcome)) {
      out.ok = false;
    }
  }

  harness::SearchOptions options_;
  std::uint64_t seed_;
  std::size_t searches_;
};

/// One token-storm simulator run per operation; every run of a pass is the
/// same run, so every one must report the same event and message counts.
class StormWorkload final : public Workload {
 public:
  StormWorkload(std::uint64_t seed, std::size_t runs)
      : seed_(seed), runs_(runs) {}

  [[nodiscard]] std::size_t ops_per_pass() const override { return runs_; }

  OpOutput run(std::size_t) override { return check(storm()); }

  OpOutput run_traced(std::size_t, Tracer& tracer, Counts& counts) override {
    const Tracer::Scope op(tracer, Layer::kOp);
    StormCounts c;
    {
      const Tracer::Scope span(tracer, Layer::kStorm);
      c = storm();
    }
    ++counts.cells;
    counts.events += c.events;
    counts.messages += c.messages;
    return check(c);
  }

 private:
  // bench_sweep's hot-path storm (n=8, 4 tokens per process) cut to a
  // short horizon, so one pass holds enough runs for a tail percentile.
  [[nodiscard]] StormCounts storm() const {
    return run_storm(8, 4, 250.0, seed_);
  }

  OpOutput check(const StormCounts& c) {
    if (!first_.has_value()) first_ = c;
    return {"events=" + std::to_string(c.events) +
                " messages=" + std::to_string(c.messages),
            c.events == first_->events && c.messages == first_->messages};
  }

  std::uint64_t seed_;
  std::size_t runs_;
  std::optional<StormCounts> first_;
};

std::vector<std::uint64_t> seed_window(std::uint64_t first,
                                       std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = first + i;
  return seeds;
}

// Workload sizes: one pass takes about 1.5-4 s on the machine README.md
// describes, so a run measures several whole passes, and one pass alone
// leaves at least 10 samples beyond the tail percentile.
constexpr std::size_t kFullSeeds = 20;         // 240 cells per seed
constexpr std::size_t kAdversarialSeeds = 10;  // 264 cells per seed
constexpr std::size_t kLargeNSeeds = 20;       // 5 cells per seed
constexpr std::size_t kSearches = 100;
constexpr int kSearchBudget = 48;
constexpr std::size_t kStormRuns = 100;

const std::vector<harness::VcKind> kAllStacks{
    harness::VcKind::kAuthenticated, harness::VcKind::kNonAuthenticated,
    harness::VcKind::kFast};

harness::ScenarioMatrix adversarial_matrix(std::uint64_t seed) {
  // Pinned rather than read from the registry, so a new strategy does not
  // change this workload.
  std::vector<harness::FaultSpec> faults{harness::FaultSpec{"silent", 0}};
  for (const char* strategy :
       {"silent", "crash", "equivocate", "delay", "mutate",
        "equivocate-scheduled", "adaptive", "collude-equivocate",
        "collude-withhold", "forge-qc"}) {
    faults.push_back(harness::FaultSpec{strategy});
  }
  return harness::ScenarioMatrix()
      .vc_kinds(kAllStacks)
      .validities({harness::ValidityKind::kStrong})
      .faults(std::move(faults))
      .sizes({{4, 1}, {7, 2}})
      .gsts({0.0, 5.0})
      .cert_modes({core::CertMode::kPerVote, core::CertMode::kAggregate})
      .seeds(seed_window(seed, kAdversarialSeeds));
}

harness::ScenarioMatrix large_n_matrix(std::uint64_t seed) {
  std::vector<std::pair<int, int>> sizes;
  for (const int n : {250, 500, 1000, 2000, 4000}) {
    sizes.emplace_back(n, (n - 1) / 3);
  }
  return harness::ScenarioMatrix()
      .vc_kinds({harness::VcKind::kAuthenticated})
      .validities({harness::ValidityKind::kStrong})
      .patterns({"unanimous"})
      .faults({harness::FaultSpec{"silent", 0}})
      .sizes(std::move(sizes))
      .topologies({"committee-7"})
      .cert_modes({core::CertMode::kAggregate})
      .seeds(seed_window(seed, kLargeNSeeds));
}

harness::SearchOptions search_options() {
  harness::SearchOptions options;
  options.space.sizes = {{4, 2}, {3, 1}};  // unsound: violations exist
  options.budget = kSearchBudget;
  options.jobs = 1;
  options.shrink = true;
  return options;
}

const std::vector<std::string> kWorkloads{"sweep-full", "adversarial",
                                          "large-n", "search-unsound",
                                          "storm"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sweep-full") {
    return std::make_unique<SweepWorkload>(
        harness::named_matrix("full").seeds(seed_window(seed, kFullSeeds)));
  }
  if (name == "adversarial") {
    return std::make_unique<SweepWorkload>(adversarial_matrix(seed));
  }
  if (name == "large-n") {
    return std::make_unique<SweepWorkload>(large_n_matrix(seed));
  }
  if (name == "search-unsound") {
    return std::make_unique<SearchWorkload>(search_options(), seed, kSearches);
  }
  if (name == "storm") {
    return std::make_unique<StormWorkload>(seed, kStormRuns);
  }
  return nullptr;
}

/// Highest of a fixed ladder of percentiles that leaves at least 10 of one
/// pass's samples beyond it. Depends only on the pass size, so a workload
/// reports the same percentile in every run.
double tail_percentile(std::size_t ops_per_pass) {
  for (const int per_mille : {990, 980, 950, 900, 800, 750}) {
    if (ops_per_pass * static_cast<std::size_t>(1000 - per_mille) >= 10000) {
      return per_mille / 10.0;
    }
  }
  return 50.0;
}

// --------------------------------------------------------------- set-up

/// Rebuilds the pinned full-matrix sweep document (header, outcome lines,
/// footer, as valcon_sweep writes it) on this thread and compares its
/// SHA-256 with the committed golden digest.
bool golden_matches(const std::string& golden_path) {
  std::ifstream golden(golden_path);
  std::string expected;
  if (!(golden >> expected) || expected.size() != 64) {
    std::cerr << "bench_valcon: cannot read a digest from " << golden_path
              << "\n";
    return false;
  }
  const harness::ScenarioMatrix matrix = harness::named_matrix("full");
  const std::size_t total = matrix.size();
  std::ostringstream doc;
  harness::io::document_header(doc, "full", std::nullopt, total);
  harness::io::JsonSummary summary;
  for (std::size_t i = 0; i < total; ++i) {
    const std::string line =
        harness::io::outcome_line(harness::run_point(matrix.point_at(i)));
    summary.add(harness::io::parse_outcome_line(line));
    doc << line << (i + 1 < total ? ",\n" : "\n");
  }
  harness::io::document_footer(doc, summary);
  const std::string text = doc.str();
  const crypto::Sha256::Digest digest =
      crypto::Sha256::hash(text.data(), text.size());
  std::string hex;
  for (const std::uint8_t byte : digest) {
    static const char* kHex = "0123456789abcdef";
    hex.push_back(kHex[byte >> 4]);
    hex.push_back(kHex[byte & 0xf]);
  }
  if (hex != expected) {
    std::cerr << "bench_valcon: full-matrix document digest " << hex
              << " != golden " << expected << "\n";
    return false;
  }
  return true;
}

// --------------------------------------------------------------- probes

constexpr int kProbeCalls = 100000;
constexpr int kProbeRounds = 3;

/// Median over rounds of the per-call time of `call`, each round timing
/// kProbeCalls calls. `call` returns false on a wrong answer.
template <typename Fn>
double probe_ns(Fn&& call) {
  std::vector<double> rounds;
  for (int r = 0; r < kProbeRounds; ++r) {
    int good = 0;
    const Clock::time_point start = Clock::now();
    for (int c = 0; c < kProbeCalls; ++c) good += call(c) ? 1 : 0;
    rounds.push_back(seconds_since(start) * 1e9 / kProbeCalls);
    if (good != kProbeCalls) {
      throw std::runtime_error("probe returned a wrong answer");
    }
  }
  return median(rounds);
}

struct Probes {
  double verify_ns = 0.0;
  double verify_aggregate_ns = 0.0;
  double lambda_ns = 0.0;
  double storm_ns_per_event = 0.0;
  double storm_allocs_per_msg = 0.0;
};

/// Unit probes of the layers the workloads share, against a 7-process key
/// registry (the committee size of large-n and the n of the (7,2) cells).
Probes run_probes(std::uint64_t seed) {
  Probes p;
  const crypto::KeyRegistry keys(7, 5, seed);
  std::vector<crypto::Signature> sigs;
  for (ProcessId i = 0; i < 7; ++i) {
    sigs.push_back(keys.signer_for(i).sign(
        crypto::Hasher("perfbench/probe").add(i).finish()));
  }
  p.verify_ns = probe_ns([&](int c) {
    return keys.verify(sigs[static_cast<std::size_t>(c % 7)]);
  });

  const crypto::Hash digest = crypto::Hasher("perfbench/quorum").finish();
  std::vector<crypto::Signature> partials;
  crypto::VoterBitset voters(7);
  for (ProcessId i = 0; i < 5; ++i) {
    partials.push_back(keys.signer_for(i).sign(digest));
    voters.set(i);
  }
  const std::optional<crypto::AggregateSignature> agg =
      crypto::aggregate(partials);
  if (!agg.has_value()) throw std::runtime_error("aggregate() failed");
  p.verify_aggregate_ns =
      probe_ns([&](int) { return keys.verify_aggregate(voters, *agg); });

  const auto validity =
      harness::make_validity(harness::ValidityKind::kStrong, 7, 2);
  const core::LambdaFn lambda = core::make_lambda(*validity, 7, 2);
  const core::InputConfig config =
      core::InputConfig::of(7, {{0, 1}, {1, 1}, {2, 2}, {3, 1}, {4, 0}});
  const Value expected = lambda(config);
  p.lambda_ns = probe_ns([&](int) { return lambda(config) == expected; });

  // A short storm, warmed once, then timed per event over a few runs.
  static_cast<void>(run_storm(8, 4, 20.0, seed));
  std::vector<double> ns_per_event;
  for (int r = 0; r < kProbeRounds; ++r) {
    const std::uint64_t allocs_before = heap_allocs();
    const Clock::time_point start = Clock::now();
    const StormCounts c = run_storm(8, 4, 200.0, seed);
    ns_per_event.push_back(seconds_since(start) * 1e9 /
                           static_cast<double>(c.events));
    p.storm_allocs_per_msg =
        ratio(static_cast<double>(heap_allocs() - allocs_before),
              static_cast<double>(c.messages));
  }
  p.storm_ns_per_event = median(ns_per_event);
  return p;
}

// ------------------------------------------------------------ measuring

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string golden;
  std::string trace;
};

/// One set-up: build the workload, check the golden document, warm up on
/// every 50th operation.
struct SetUp {
  std::unique_ptr<Workload> workload;
  bool golden_ok = false;
  double seconds = 0.0;
};

SetUp set_up(const Options& opts) {
  SetUp s;
  const Clock::time_point start = Clock::now();
  s.workload = make_workload(opts.workload, opts.seed);
  s.golden_ok = golden_matches(opts.golden);
  for (std::size_t i = 0; i < s.workload->ops_per_pass(); i += 50) {
    static_cast<void>(s.workload->run(i));
  }
  s.seconds = seconds_since(start);
  return s;
}

/// Everything the measurement loop observed.
struct Measurement {
  std::vector<double> setup_s;  // one per pass
  bool golden_ok = true;
  std::size_t ops_per_pass = 0;
  double wall_traced = 0.0;
  /// Operation times in µs, one row per pass, untraced and traced apart.
  std::vector<std::vector<double>> op_us;
  std::vector<std::vector<double>> traced_op_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t allocs_first_pass = 0;
  Counts counts;  // first traced pass
  LayerTotals layers;
};

/// Sets up, runs one whole pass, and repeats until the passes have taken
/// opts.seconds. Setting up before every pass spreads the set-up samples
/// over the run, so a burst of load from outside the process skews one of
/// them rather than all. Pass 0 is untraced and is the reference every
/// later pass must reproduce. Untraced runs make at least kMinPasses
/// passes; traced runs alternate untraced and traced passes and make at
/// least one of each.
constexpr std::size_t kMinPasses = 3;

Measurement measure(const Options& opts, Tracer* tracer) {
  Measurement m;
  std::vector<std::uint64_t> ref_hash;
  std::vector<std::string> ref_bytes;
  double measured = 0.0;
  for (std::size_t pass = 0;; ++pass) {
    const SetUp setup = set_up(opts);
    m.setup_s.push_back(setup.seconds);
    m.golden_ok = m.golden_ok && setup.golden_ok;
    Workload& workload = *setup.workload;
    const std::size_t ops = workload.ops_per_pass();
    if (pass == 0) {
      m.ops_per_pass = ops;
      ref_hash.resize(ops);
      if (tracer != nullptr) ref_bytes.resize(ops);
    }
    const bool traced = tracer != nullptr && pass % 2 == 1;
    Counts scratch;
    Counts& counts = traced && m.traced_op_us.empty() ? m.counts : scratch;
    std::vector<double>& times =
        (traced ? m.traced_op_us : m.op_us).emplace_back();
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      OpOutput out;
      const std::uint64_t allocs_before = heap_allocs();
      const Clock::time_point op_start = Clock::now();
      if (traced) {
        tracer->set_trace_id(i);
        out = workload.run_traced(i, *tracer, counts);
      } else {
        out = workload.run(i);
      }
      times.push_back(seconds_since(op_start) * 1e6);
      if (pass == 0) m.allocs_first_pass += heap_allocs() - allocs_before;
      bool same = true;
      if (pass == 0) {
        ref_hash[i] = fnv1a(out.bytes);
        if (tracer != nullptr) ref_bytes[i] = out.bytes;
      } else if (tracer != nullptr) {
        same = out.bytes == ref_bytes[i];
      } else {
        same = fnv1a(out.bytes) == ref_hash[i];
      }
      ++m.attempted;
      if (!out.ok || !same) {
        if (m.failed == 0) {
          std::cerr << "bench_valcon: operation " << i << " of pass " << pass
                    << (out.ok ? " did not reproduce pass 0's bytes"
                               : " failed its check")
                    << ":\n"
                    << out.bytes << "\n";
        }
        ++m.failed;
      }
    }
    const double wall = seconds_since(pass_start);
    measured += wall;
    if (traced) {
      tracer->fold(m.layers);
      m.wall_traced += wall;
    }
    const bool enough = tracer != nullptr ? !m.traced_op_us.empty()
                                          : m.op_us.size() >= kMinPasses;
    if (enough && measured >= opts.seconds) break;
  }
  return m;
}

/// The process's peak resident set, from VmHWM in /proc/self/status.
/// getrusage's ru_maxrss is not used: Linux carries it across exec, so it
/// would report the launching process's peak whenever that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --------------------------------------------------------------- output

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
    std::printf("  %-36s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

/// Each operation's median time across `passes`. Timings are taken over
/// these: a burst of load from outside the process slows different
/// operations in different passes, and the median drops it, while the
/// workload's mix of operations stays exactly one pass.
std::vector<double> per_op_medians(
    const std::vector<std::vector<double>>& passes) {
  std::vector<double> out(passes.front().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> runs;
    for (const std::vector<double>& pass : passes) runs.push_back(pass[i]);
    out[i] = median(std::move(runs));
  }
  return out;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

void add_end_to_end(MetricsJson& json, const Measurement& m) {
  const std::size_t ops_per_pass = m.ops_per_pass;
  std::vector<double> op_us = per_op_medians(m.op_us);
  const double pass_us = sum(op_us);
  const double q = tail_percentile(ops_per_pass);
  std::printf("  op_tail_us is p%g of %zu per-operation medians over %zu "
              "passes (%zu beyond it)\n",
              q, ops_per_pass, m.op_us.size(),
              ops_per_pass - static_cast<std::size_t>(
                                 q / 100.0 * static_cast<double>(ops_per_pass) +
                                 0.5));
  json.add("ops_per_s", ratio(static_cast<double>(ops_per_pass) * 1e6, pass_us),
           "1/s");
  json.add("op_p50_us", percentile(op_us, 50.0), "us");
  json.add("op_tail_us", percentile(std::move(op_us), q), "us");
  json.add("setup_s", median(m.setup_s), "s");
  json.add("peak_rss_mb", peak_rss_mib(), "MiB");
}

void add_per_layer(MetricsJson& json, const Measurement& m, const Probes& p) {
  const LayerTotals& l = m.layers;
  const auto ops_per_pass = static_cast<double>(m.ops_per_pass);
  const double traced_ns = m.wall_traced * 1e9;
  const auto pct = [&](Layer layer) {
    return 100.0 * ratio(l.self(layer), traced_ns);
  };
  double attributed = 0.0;
  for (std::size_t i = 1; i < kLayerCount; ++i) attributed += l.self_ns[i];
  json.add("harness.point_at_pct", pct(Layer::kPointAt), "%");
  json.add("core.lambda_build_pct", pct(Layer::kLambdaBuild), "%");
  json.add("harness.run_universal_self_pct", pct(Layer::kRunUniversal), "%");
  json.add("core.lambda_call_pct", pct(Layer::kLambdaCall), "%");
  json.add("core.check_execution_pct", pct(Layer::kCheck), "%");
  json.add("sweep_io.outcome_line_pct", pct(Layer::kOutcomeLine), "%");
  json.add("search.generate_pct", pct(Layer::kSearchGenerate), "%");
  json.add("search.shrink_pct", pct(Layer::kSearchShrink), "%");
  json.add("sim.storm_pct", pct(Layer::kStorm), "%");
  json.add("trace.attributed_pct", 100.0 * ratio(attributed, traced_ns), "%");
  json.add("trace.overhead_pct",
           100.0 * (ratio(sum(per_op_medians(m.traced_op_us)),
                          sum(per_op_medians(m.op_us))) -
                    1.0),
           "%");

  const Counts& c = m.counts;
  const auto cells = static_cast<double>(c.cells);
  const auto per_cell = [&](double v) { return ratio(v, cells); };
  const double sim_ns = (l.self(Layer::kRunUniversal) +
                         l.self(Layer::kLambdaCall) + l.self(Layer::kStorm)) /
                        static_cast<double>(m.traced_op_us.size());
  json.add("sim.ns_per_msg", ratio(sim_ns, static_cast<double>(c.messages)),
           "ns");
  json.add("sim.events_per_cell", per_cell(static_cast<double>(c.events)),
           "events");
  json.add("sim.msgs_per_cell", per_cell(static_cast<double>(c.messages)),
           "msgs");
  json.add("harness.cut_frac", per_cell(static_cast<double>(c.cut)), "frac");
  json.add("harness.allocs_per_op",
           ratio(static_cast<double>(m.allocs_first_pass), ops_per_pass),
           "allocs");
  const auto decisions = static_cast<double>(c.decisions);
  json.add("consensus.msgs_per_decision",
           ratio(static_cast<double>(c.messages), decisions), "msgs");
  json.add("consensus.words_per_decision",
           ratio(static_cast<double>(c.words), decisions), "words");
  json.add("consensus.decide_time_delta",
           ratio(c.decide_time_delta, static_cast<double>(c.decided_cells)),
           "delta");
  json.add("crypto.verify_signature_per_cell",
           per_cell(static_cast<double>(c.verifies.signature)), "verifies");
  json.add("crypto.verify_threshold_per_cell",
           per_cell(static_cast<double>(c.verifies.threshold)), "verifies");
  json.add("crypto.verify_aggregate_per_cell",
           per_cell(static_cast<double>(c.verifies.aggregate)), "verifies");
  json.add("crypto.key_derivations", static_cast<double>(c.key_derivations()),
           "count");
  json.add("core.lambda_calls_per_cell",
           per_cell(static_cast<double>(l.count(Layer::kLambdaCall)) /
                    static_cast<double>(m.traced_op_us.size())),
           "calls");
  json.add("sweep_io.bytes_per_cell", per_cell(static_cast<double>(c.bytes)),
           "bytes");
  const auto searches = static_cast<double>(c.searches);
  json.add("search.evals_per_op", ratio(static_cast<double>(c.evals), searches),
           "evals");
  json.add("search.shrink_probes_per_op",
           ratio(static_cast<double>(c.shrink_probes), searches), "probes");
  json.add("search.counterexamples_per_op",
           ratio(static_cast<double>(c.counterexamples), searches), "count");
  json.add("crypto.verify_ns", p.verify_ns, "ns");
  json.add("crypto.verify_aggregate_ns", p.verify_aggregate_ns, "ns");
  json.add("core.lambda_ns_per_call", p.lambda_ns, "ns");
  json.add("sim.storm_ns_per_event", p.storm_ns_per_event, "ns");
  json.add("sim.storm_allocs_per_msg", p.storm_allocs_per_msg, "allocs");
}

int usage() {
  std::cerr << "usage: bench_valcon --workload NAME --seed S --seconds N"
               " --golden FILE [--trace FILE]\nworkloads:";
  for (const std::string& w : kWorkloads) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &used);
        have_seed = used == value.size() && value[0] != '-';
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && o.seconds > 0;
      } else if (flag == "--golden") {
        o.golden = value;
      } else if (flag == "--trace") {
        o.trace = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds ||
      o.golden.empty()) {
    return std::nullopt;
  }
  return o;
}

int run(const Options& opts) {
  if (make_workload(opts.workload, opts.seed) == nullptr) return usage();
  const bool traced = !opts.trace.empty();
  const Probes probes = traced ? run_probes(opts.seed) : Probes{};
  Tracer tracer;
  const Measurement m = measure(opts, traced ? &tracer : nullptr);

  std::printf("workload %s, seed %llu: %zu ops per pass, %zu untraced + %zu "
              "traced passes, %llu attempted, %llu failed, golden %s\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), m.ops_per_pass,
              m.op_us.size(), m.traced_op_us.size(),
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed),
              m.golden_ok ? "ok" : "MISMATCH");
  std::printf("set-up times (s):");
  for (const double t : m.setup_s) std::printf(" %.4f", t);
  std::printf("\n");
  MetricsJson json;
  if (traced) {
    add_per_layer(json, m, probes);
    std::ofstream file(opts.trace, std::ios::binary | std::ios::trunc);
    tracer.write_jsonl(file);
    if (!file) {
      std::cerr << "bench_valcon: cannot write " << opts.trace << "\n";
      return 1;
    }
  } else {
    add_end_to_end(json, m);
  }
  const bool correct = m.golden_ok && m.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed), json.body().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace valcon::perfbench

int main(int argc, char** argv) {
  const auto opts = valcon::perfbench::parse_args(argc, argv);
  if (!opts.has_value()) return valcon::perfbench::usage();
  try {
    return valcon::perfbench::run(*opts);
  } catch (const std::exception& e) {
    std::cerr << "bench_valcon: " << e.what() << "\n";
    return 1;
  }
}
