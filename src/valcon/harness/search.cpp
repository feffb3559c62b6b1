#include "valcon/harness/search.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>

#include "valcon/harness/sweep_io.hpp"
#include "valcon/sim/rng.hpp"

namespace valcon::harness {

Verdict classify(const SweepOutcome& outcome) {
  if (!outcome.error.empty()) return Verdict::kError;
  if (!outcome.agreement) return Verdict::kAgreement;
  if (!outcome.validity_ok) return Verdict::kValidity;
  if (!outcome.decided) return Verdict::kTermination;
  return Verdict::kClean;
}

namespace {

/// One wire token of an enum.
template <typename E>
struct Token {
  E value;
  const char* text;
};

// Each enum's tokens, spelled once and read both ways.
constexpr Token<Verdict> kVerdictTokens[] = {
    {Verdict::kClean, "clean"},         {Verdict::kTermination, "termination"},
    {Verdict::kAgreement, "agreement"}, {Verdict::kValidity, "validity"},
    {Verdict::kError, "error"},
};
constexpr Token<VcKind> kVcTokens[] = {
    {VcKind::kAuthenticated, "auth"},
    {VcKind::kNonAuthenticated, "nonauth"},
    {VcKind::kFast, "fast"},
};
constexpr Token<ValidityKind> kValidityTokens[] = {
    {ValidityKind::kStrong, "strong"},
    {ValidityKind::kWeak, "weak"},
    {ValidityKind::kCorrectProposal, "correct-proposal"},
    {ValidityKind::kMedian, "median"},
    {ValidityKind::kConvexHull, "convex-hull"},
};

constexpr const auto& tokens(Verdict /*tag*/) { return kVerdictTokens; }
constexpr const auto& tokens(VcKind /*tag*/) { return kVcTokens; }
constexpr const auto& tokens(ValidityKind /*tag*/) { return kValidityTokens; }

template <typename E>
std::string token_of(E value) {
  for (const auto& [v, text] : tokens(value)) {
    if (v == value) return text;
  }
  return "?";
}

template <typename E>
std::optional<E> from_token(const std::string& token) {
  for (const auto& [v, text] : tokens(E{})) {
    if (token == text) return v;
  }
  return std::nullopt;
}

// ------------------------------------------------------------ cell fields

/// One field of a counterexample cell.
struct Field {
  const char* key;  // its JSON member
  /// A "-<value>" segment of the cell file name.
  bool segment = false;
  /// A wire-gated named axis: left out of the cell, key() and the file
  /// name at its table default, and checked by the axis when read.
  std::optional<Axis> gate = std::nullopt;
};

/// The cell's fields in corpus-JSON order: the one list the cell writer,
/// parse_cell, key() and cell_filename derive from. `visit(field, value)`
/// runs once per field; C is Candidate or const Candidate.
template <typename C, typename Visit>
void visit_fields(C& c, Visit&& visit) {
  visit(Field{"vc", true}, c.vc);
  visit(Field{"validity"}, c.validity);
  visit(Field{"strategy", true}, c.named[Axis::kStrategy]);
  visit(Field{"fault_count"}, c.fault_count);
  visit(Field{"pattern"}, c.named[Axis::kPattern]);
  visit(Field{"net_profile"}, c.named[Axis::kNetProfile]);
  visit(Field{"n"}, c.n);
  visit(Field{"t"}, c.t);
  visit(Field{"gst"}, c.gst);
  visit(Field{"delta"}, c.delta);
  visit(Field{"domain"}, c.domain);
  visit(Field{"victims"}, c.victims);
  visit(Field{"observe"}, c.observe);
  // Axes added after the first corpus are gated, so its cells keep their
  // bytes.
  const auto gated = [&](const char* key, Axis axis) {
    visit(Field{key, true, axis}, c.named[axis]);
  };
  gated("cert_mode", Axis::kCertMode);
  gated("topology", Axis::kTopology);
  visit(Field{"seed"}, c.seed);
}

/// visit_fields() over the fields the wire gate keeps.
template <typename Visit>
void visit_written(const Candidate& c, Visit&& visit) {
  visit_fields(c, [&visit](const Field& f, const auto& value) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 std::string>) {
      if (f.gate && value == axis_info(*f.gate).default_value) return;
    }
    visit(f, value);
  });
}

/// A field's text in key() and the file name.
template <typename T>
std::string text(const T& value) {
  if constexpr (std::is_enum_v<T>) {
    return token_of(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    return io::json_number(value);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else {
    return value;
  }
}

/// A field's JSON value: numbers bare, names and tokens quoted.
template <typename T>
std::string json_value(const T& value) {
  if constexpr (std::is_arithmetic_v<T>) {
    return text(value);
  } else {
    return "\"" + io::json_escape(text(value)) + "\"";
  }
}

[[noreturn]] void bad_cell(const std::string& what) {
  throw std::runtime_error("malformed counterexample cell: " + what);
}

/// A field parse_cell requires: present and well formed.
template <typename T>
T required(std::optional<T> value, const std::string& key) {
  if (!value.has_value()) bad_cell("missing or malformed field '" + key + "'");
  return *std::move(value);
}

/// Reads field `f` of `json` into `value`, strictly.
template <typename T>
void read_field(const std::string& json, const Field& f, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    value = required(io::bool_field(json, f.key), f.key);
  } else if constexpr (std::is_floating_point_v<T>) {
    value = required(io::number_field(json, f.key), f.key);
  } else if constexpr (std::is_integral_v<T>) {
    value = required(io::integer_field<T>(json, f.key), f.key);
  } else {
    std::string token = required(io::string_field(json, f.key), f.key);
    if constexpr (std::is_enum_v<T>) {
      const std::optional<T> parsed = from_token<T>(token);
      if (!parsed.has_value()) {
        bad_cell(std::string("unknown ") + f.key + " token");
      }
      value = *parsed;
    } else {
      if (f.gate) {
        // A corpus cell must always replay.
        try {
          axis_info(*f.gate).check(token);
        } catch (const std::invalid_argument& e) {
          bad_cell(std::string(f.key) + ": " + e.what());
        }
      }
      value = std::move(token);
    }
  }
}

}  // namespace

std::string verdict_token(Verdict v) { return token_of(v); }
std::optional<Verdict> verdict_from_token(const std::string& token) {
  return from_token<Verdict>(token);
}
std::string vc_token(VcKind vc) { return token_of(vc); }
std::optional<VcKind> vc_from_token(const std::string& token) {
  return from_token<VcKind>(token);
}
std::string validity_token(ValidityKind kind) { return token_of(kind); }
std::optional<ValidityKind> validity_from_token(const std::string& token) {
  return from_token<ValidityKind>(token);
}

std::string Candidate::key() const {
  std::string key;
  const char* sep = "";
  visit_written(*this, [&](const Field& /*f*/, const auto& value) {
    key += sep + text(value);
    sep = "/";
  });
  return key;
}

SweepPoint candidate_point(const Candidate& c) {
  FaultSpec spec;  // "none" keeps the default strategy, with no faults
  const std::string& strategy = c.named[Axis::kStrategy];
  if (strategy == "none") {
    spec.count = 0;
  } else {
    spec.strategy = strategy;
    spec.count = c.fault_count;
  }
  spec.victims = c.victims;
  spec.observe = c.observe;
  ScenarioMatrix matrix;
  for (const AxisInfo& info : axes()) {
    // The strategy reaches the matrix through the fault spec above.
    if (info.axis != Axis::kStrategy) {
      matrix.declare(info.axis, {c.named[info.axis]});
    }
  }
  return matrix.vc_kinds({c.vc})
      .validities({c.validity})
      .faults({spec})
      .sizes({{c.n, c.t}})
      .gsts({c.gst})
      .deltas({c.delta})
      .seeds({c.seed})
      .proposal_domain(c.domain)
      .record_near_miss(true)
      // Bounded liveness cutoff: a non-terminating candidate (the search's
      // whole point) re-arms view timers forever, so the 1e9 default would
      // grind for hours of wall-clock. 200 * delta past GST is >10x the
      // worst decision latency ever observed in the pinned full matrix
      // (~16 * delta) and a pure function of the candidate, so replay sees
      // the exact same cutoff.
      .horizon(c.gst + 200.0 * c.delta)
      .point_at(0);
}

SweepOutcome evaluate(const Candidate& c) {
  return run_point(candidate_point(c));
}

double near_miss_score(const SweepOutcome& outcome) {
  if (!outcome.error.empty()) return 0.0;
  const RunResult& r = outcome.result;
  double score = 0.0;
  // A QC won by a sliver: one flipped vote from certifying a rival digest.
  if (r.min_vote_margin >= 0) {
    score += 10.0 / (1.0 + static_cast<double>(r.min_vote_margin));
  }
  // Conflicting proposals reached the voting stage at all.
  if (r.conflicting_votes > 0) {
    score += 5.0 + std::log2(static_cast<double>(r.conflicting_votes) + 1.0);
  }
  // The run was cut with traffic still in flight, not quiescent.
  if (!r.queue_drained) score += 2.0;
  // Little slack between the end of the run and the grace cutoff: the last
  // decision barely beat the window.
  if (r.grace_cutoff >= 0.0) {
    const double slack = std::max(0.0, r.grace_cutoff - r.end_time);
    score += 3.0 / (1.0 + slack);
  }
  return score;
}

void SearchSpace::set_pool(Axis axis, const std::vector<std::string>& names) {
  for (const std::string& name : names) axis_info(axis).check(name);
  named[axis] = names;
}

namespace {

// ------------------------------------------------------------------ drawing

template <typename T>
const T& pick(sim::Rng& rng, const std::vector<T>& pool) {
  return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
}

/// Redraws a typed field from its pool.
template <auto Field, auto Pool>
void draw(sim::Rng& rng, const SearchSpace& space, Candidate& c) {
  c.*Field = pick(rng, space.*Pool);
}

/// Redraws named axis A from its pool.
template <Axis A>
void draw_named(sim::Rng& rng, const SearchSpace& space, Candidate& c) {
  c.named[A] = pick(rng, space.named[A]);
}

/// One step of the draw order: redraws one part of a candidate.
struct Draw {
  void (*redraw)(sim::Rng& rng, const SearchSpace& space, Candidate& c);
  bool fresh = true;  // sample() takes it too, not only mutate()
};

/// The draw order sample() and mutate() share. sample() takes the fresh
/// steps in order; mutate() takes one or two steps at random. The search
/// goldens pin the order through the RNG stream: every step draws, even
/// from a one-value pool.
constexpr Draw kDraws[] = {
    {draw_named<Axis::kStrategy>},
    {draw<&Candidate::vc, &SearchSpace::vcs>},
    {draw<&Candidate::validity, &SearchSpace::validities>},
    {draw_named<Axis::kPattern>},
    {draw_named<Axis::kNetProfile>},
    {[](sim::Rng& rng, const SearchSpace& s, Candidate& c) {
      std::tie(c.n, c.t) = pick(rng, s.sizes);
      if (c.fault_count > c.t) c.fault_count = -1;
    }},
    {draw<&Candidate::gst, &SearchSpace::gsts>},
    {draw<&Candidate::delta, &SearchSpace::deltas>},
    {draw<&Candidate::domain, &SearchSpace::domains>},
    // The fault knobs. A fresh candidate has all t faulty with the Fault
    // defaults; shrinking minimizes later.
    {[](sim::Rng& rng, const SearchSpace& /*s*/, Candidate& c) {
       c.fault_count = c.t > 0 ? static_cast<int>(1 + rng.next_below(
                                     static_cast<std::uint64_t>(c.t)))
                               : 0;
     },
     false},
    {[](sim::Rng& rng, const SearchSpace& /*s*/, Candidate& c) {
       // Small pools for the knobs the colluding/adaptive strategies
       // consume (-1 = the Fault default).
       static const std::vector<int> kVictims{-1, 1, 2, 3};
       static const std::vector<int> kObserve{-1, 1, 4, 8, 16, 32};
       c.victims = pick(rng, kVictims);
       c.observe = pick(rng, kObserve);
     },
     false},
    {draw_named<Axis::kCertMode>},
    {draw_named<Axis::kTopology>},
    {[](sim::Rng& rng, const SearchSpace& /*s*/, Candidate& c) {
      // Small seeds keep shrunk cells readable and give seed re-derivation
      // a realistic chance; the space is still far larger than any budget.
      c.seed = 1 + rng.next_below(1U << 16);
    }},
};

Candidate sample(sim::Rng& rng, const SearchSpace& space) {
  Candidate c;
  for (const Draw& draw : kDraws) {
    if (draw.fresh) draw.redraw(rng, space, c);
  }
  return c;
}

Candidate mutate(sim::Rng& rng, const SearchSpace& space, Candidate c) {
  const int tweaks = 1 + static_cast<int>(rng.next_below(2));
  for (int i = 0; i < tweaks; ++i) {
    kDraws[rng.next_below(std::size(kDraws))].redraw(rng, space, c);
  }
  return c;
}

void require_nonempty(bool ok, const char* axis) {
  if (!ok) {
    throw std::invalid_argument(std::string("search space: empty ") + axis +
                                " pool");
  }
}

void check_options(const SearchOptions& options) {
  const SearchSpace& s = options.space;
  for (const AxisInfo& info : axes()) {
    require_nonempty(!s.named[info.axis].empty(), info.name);
  }
  require_nonempty(!s.vcs.empty(), "vc");
  require_nonempty(!s.validities.empty(), "validity");
  require_nonempty(!s.sizes.empty(), "size");
  require_nonempty(!s.gsts.empty(), "gst");
  require_nonempty(!s.deltas.empty(), "delta");
  require_nonempty(!s.domains.empty(), "domain");
  if (options.budget <= 0) {
    throw std::invalid_argument("search budget must be positive");
  }
  if (options.population <= 0) {
    throw std::invalid_argument("search population must be positive");
  }
}

// ---------------------------------------------------------------- shrinking

/// One shrink step: the variants of a candidate it offers, simplest first,
/// each strictly simpler than the candidate.
using ShrinkStep = std::vector<Candidate> (*)(const Candidate& c,
                                              const SearchOptions& options);

/// The values of `pool` below `current`, ascending and distinct.
template <typename T>
std::vector<T> below(std::vector<T> pool, const T& current) {
  std::erase_if(pool, [&current](const T& v) { return !(v < current); });
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  return pool;
}

/// `c` with `field` at each value of `pool` below its own, ascending.
template <typename T>
std::vector<Candidate> lower(const Candidate& c, T Candidate::*field,
                             const std::vector<T>& pool) {
  std::vector<Candidate> out;
  for (const T& v : below(pool, c.*field)) out.emplace_back(c).*field = v;
  return out;
}

/// lower() over a typed field's search pool.
template <auto Field, auto Pool>
std::vector<Candidate> lower_in_pool(const Candidate& c,
                                     const SearchOptions& options) {
  return lower(c, Field, options.space.*Pool);
}

/// `c` with named axis A at its table default.
template <Axis A>
std::vector<Candidate> reset_named(const Candidate& c,
                                   const SearchOptions& /*options*/) {
  const char* simplest = axis_info(A).default_value;
  if (c.named[A] == simplest) return {};
  std::vector<Candidate> out{c};
  out.back().named[A] = simplest;
  return out;
}

/// The shrink order. A pass takes each step once and accepts its first
/// variant that keeps the verdict. The identity axes (strategy, stack,
/// property) are never touched: they name WHAT broke, not how hard the
/// cell is to read.
constexpr ShrinkStep kShrinkOrder[] = {
    // Fewer processes first, then lower tolerance.
    [](const Candidate& c, const SearchOptions& options) {
      std::vector<Candidate> out;
      for (const auto& [n, t] : below(options.space.sizes, {c.n, c.t})) {
        Candidate& next = out.emplace_back(c);
        next.n = n;
        next.t = t;
        // >= keeps the count canonical (see shrink()): a count equal to
        // the new t is the same cell as -1.
        if (next.fault_count >= t) next.fault_count = -1;
      }
      return out;
    },
    [](const Candidate& c, const SearchOptions& /*options*/) {
      std::vector<Candidate> out;
      const int resolved =
          c.fault_count < 0 ? c.t : std::min(c.fault_count, c.t);
      for (int k = 1; k < resolved; ++k) out.emplace_back(c).fault_count = k;
      return out;
    },
    reset_named<Axis::kPattern>,
    reset_named<Axis::kNetProfile>,
    lower_in_pool<&Candidate::gst, &SearchSpace::gsts>,
    lower_in_pool<&Candidate::delta, &SearchSpace::deltas>,
    lower_in_pool<&Candidate::domain, &SearchSpace::domains>,
    [](const Candidate& c, const SearchOptions& /*options*/) {
      std::vector<Candidate> out;
      if (c.victims != -1 || c.observe != -1) {
        Candidate& next = out.emplace_back(c);
        next.victims = -1;
        next.observe = -1;
      }
      return out;
    },
    // Per-vote and full-mesh are the simpler cells: a violation that
    // survives without aggregation, or without the committee overlay, is
    // not about the QC layer or the announce/relay layer at all.
    reset_named<Axis::kCertMode>,
    reset_named<Axis::kTopology>,
    // Seed re-derivation, last in each pass: the smallest seed in
    // [1, seed_tries] that still reproduces replaces the found one. At a
    // smaller seed an axis that failed before can simplify, so a pass that
    // accepts one runs again.
    [](const Candidate& c, const SearchOptions& options) {
      std::vector<std::uint64_t> seeds(
          static_cast<std::size_t>(std::max(options.seed_tries, 0)));
      std::iota(seeds.begin(), seeds.end(), std::uint64_t{1});
      return lower(c, &Candidate::seed, seeds);
    },
};

}  // namespace

Counterexample shrink(const Candidate& c, Verdict verdict,
                      const SearchOptions& options) {
  int probes = 0;
  const auto reproduces = [&probes, &options, verdict](const Candidate& cand) {
    if (probes >= options.max_shrink_probes) return false;
    ++probes;
    return classify(evaluate(cand)) == verdict;
  };

  Candidate cur = c;
  // Canonical fault_count: candidate_point clamps counts to t, so any
  // count >= t names the same cell as -1 ("all t faulty"). Normalizing to
  // -1 costs no probe and makes equal cells share a key (dedup) and a
  // corpus file name.
  if (cur.named[Axis::kStrategy] != "none" && cur.fault_count >= cur.t) {
    cur.fault_count = -1;
  }
  // Takes the step's first variant that keeps the verdict.
  const auto simplify = [&](ShrinkStep step) {
    for (const Candidate& next : step(cur, options)) {
      if (reproduces(next)) {
        cur = next;
        return true;
      }
    }
    return false;
  };
  // The shrink order's passes, to a fixpoint: shrinking a shrunk cell
  // changes nothing.
  bool changed = true;
  while (changed && probes < options.max_shrink_probes) {
    changed = false;
    for (const ShrinkStep step : kShrinkOrder) {
      if (simplify(step)) changed = true;
    }
  }

  Counterexample cx;
  cx.candidate = cur;
  cx.verdict = verdict;
  cx.outcome = evaluate(cur);
  cx.shrink_probes = probes;
  return cx;
}

SearchReport run_search(const SearchOptions& options) {
  check_options(options);
  sim::Rng rng(options.search_seed);

  SearchReport report;
  report.search_seed = options.search_seed;
  report.budget = options.budget;

  const SweepRunner runner(options.jobs);
  // The archive of the best clean candidates seen so far, the breeding
  // stock for the next generation. Scoring, ordering and mutation all run
  // on this thread, so the whole loop is independent of the job count
  // (SweepRunner::run returns input-ordered outcomes).
  std::vector<std::pair<double, Candidate>> archive;
  std::vector<std::pair<Candidate, Verdict>> violations;
  std::set<std::string> seen;

  std::vector<Candidate> generation;
  generation.reserve(static_cast<std::size_t>(options.population));
  for (int i = 0; i < options.population; ++i) {
    generation.push_back(sample(rng, options.space));
  }

  while (report.evaluated < static_cast<std::uint64_t>(options.budget)) {
    const auto room =
        static_cast<std::uint64_t>(options.budget) - report.evaluated;
    if (generation.size() > room) {
      generation.resize(static_cast<std::size_t>(room));
    }
    std::vector<SweepPoint> points;
    points.reserve(generation.size());
    for (const Candidate& c : generation) points.push_back(candidate_point(c));
    const std::vector<SweepOutcome> outcomes = runner.run(points);
    report.evaluated += outcomes.size();

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Verdict v = classify(outcomes[i]);
      if (v == Verdict::kError) {
        ++report.errors;
        continue;
      }
      if (v != Verdict::kClean) {
        if (seen.insert(generation[i].key()).second) {
          violations.emplace_back(generation[i], v);
        }
        continue;
      }
      const double score = near_miss_score(outcomes[i]);
      archive.emplace_back(score, generation[i]);
      if (!report.best_candidate.has_value() || score > report.best_score) {
        report.best_score = score;
        report.best_candidate = generation[i];
      }
    }
    // Highest scores first; stable, so earlier discoveries win ties.
    std::stable_sort(archive.begin(), archive.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    if (archive.size() > static_cast<std::size_t>(options.population)) {
      archive.resize(static_cast<std::size_t>(options.population));
    }

    generation.clear();
    for (int i = 0; i < options.population; ++i) {
      if (archive.empty() || rng.next_below(4) == 0) {
        // Fresh blood: a quarter of each generation explores from scratch.
        generation.push_back(sample(rng, options.space));
      } else {
        const std::size_t parent =
            static_cast<std::size_t>(i) % archive.size();
        generation.push_back(mutate(rng, options.space,
                                    archive[parent].second));
      }
    }
  }

  std::set<std::string> emitted;
  for (const auto& [candidate, verdict] : violations) {
    Counterexample cx;
    if (options.shrink) {
      cx = shrink(candidate, verdict, options);
    } else {
      cx.candidate = candidate;
      cx.verdict = verdict;
      cx.outcome = evaluate(candidate);
    }
    if (emitted.insert(cx.candidate.key()).second) {
      report.counterexamples.push_back(std::move(cx));
    }
  }
  return report;
}

// -------------------------------------------------------------- wire format

namespace {

/// The candidate's fields as JSON members (no braces), shared by the cell
/// format and the report's best-near-miss block.
void candidate_fields(std::ostream& os, const Candidate& c) {
  const char* sep = "";
  visit_written(c, [&](const Field& f, const auto& value) {
    os << sep << '"' << f.key << "\": " << json_value(value);
    sep = ", ";
  });
}

void cell_object(std::ostream& os, const Counterexample& cx) {
  os << "{\"schema\": \"valcon-counterexample-v1\", "
     << "\"verdict\": \"" << verdict_token(cx.verdict) << "\", ";
  candidate_fields(os, cx.candidate);
  os << ", \"expect\": {\"decided\": "
     << (cx.outcome.decided ? "true" : "false")
     << ", \"agreement\": " << (cx.outcome.agreement ? "true" : "false")
     << ", \"validity_ok\": " << (cx.outcome.validity_ok ? "true" : "false")
     << "}}";
}

}  // namespace

std::string cell_json(const Counterexample& cx) {
  std::ostringstream os;
  cell_object(os, cx);
  os << "\n";
  return os.str();
}

CorpusCell parse_cell(const std::string& json) {
  // Strict: every field goes through sweep_io's readers (escaped strings
  // unescaped, integers read exactly) and a missing one is an error.
  CorpusCell cell;
  std::string schema;
  read_field(json, Field{"schema"}, schema);
  if (schema != "valcon-counterexample-v1") bad_cell("unknown schema");
  read_field(json, Field{"verdict"}, cell.verdict);
  visit_fields(cell.candidate, [&json](const Field& f, auto& value) {
    // A gated field is absent at its default: not a malformed cell.
    if (f.gate && json.find('"' + std::string(f.key) + "\": ") ==
                      std::string::npos) {
      return;
    }
    read_field(json, f, value);
  });
  const Candidate& c = cell.candidate;
  // A cell that names no runnable configuration is malformed too.
  if (c.n < 1 || c.t < 0 || c.t >= c.n) bad_cell("size violates 0 <= t < n");
  if (c.domain < 2) bad_cell("domain below 2");
  if (!nonnegative_finite(c.gst)) bad_cell("gst not finite and >= 0");
  if (!positive_finite(c.delta)) bad_cell("delta not finite and > 0");
  read_field(json, Field{"decided"}, cell.expect_decided);
  read_field(json, Field{"agreement"}, cell.expect_agreement);
  read_field(json, Field{"validity_ok"}, cell.expect_validity_ok);
  return cell;
}

std::string cell_filename(const Counterexample& cx) {
  const Candidate& c = cx.candidate;
  std::string name = verdict_token(cx.verdict);
  visit_written(c, [&name](const Field& f, const auto& value) {
    if (f.segment) name += "-" + text(value);
  });
  return name + "-n" + std::to_string(c.n) + "t" + std::to_string(c.t) +
         "-s" + std::to_string(c.seed) + ".json";
}

std::string report_json(const SearchReport& report) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"valcon-search-report-v1\",\n"
     << "  \"search_seed\": " << report.search_seed << ",\n"
     << "  \"budget\": " << report.budget << ",\n"
     << "  \"evaluated\": " << report.evaluated << ",\n"
     << "  \"errors\": " << report.errors << ",\n"
     << "  \"counterexamples\": [\n";
  for (std::size_t i = 0; i < report.counterexamples.size(); ++i) {
    os << "    ";
    cell_object(os, report.counterexamples[i]);
    os << (i + 1 < report.counterexamples.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"best_near_miss\": ";
  if (report.best_candidate.has_value()) {
    os << "{\"score\": " << io::json_number(report.best_score) << ", ";
    candidate_fields(os, *report.best_candidate);
    os << "}";
  } else {
    os << "null";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace valcon::harness
