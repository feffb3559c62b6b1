#include "valcon/harness/search.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
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

std::string verdict_token(Verdict v) {
  switch (v) {
    case Verdict::kClean: return "clean";
    case Verdict::kTermination: return "termination";
    case Verdict::kAgreement: return "agreement";
    case Verdict::kValidity: return "validity";
    case Verdict::kError: return "error";
  }
  return "?";
}

std::optional<Verdict> verdict_from_token(const std::string& token) {
  if (token == "clean") return Verdict::kClean;
  if (token == "termination") return Verdict::kTermination;
  if (token == "agreement") return Verdict::kAgreement;
  if (token == "validity") return Verdict::kValidity;
  if (token == "error") return Verdict::kError;
  return std::nullopt;
}

std::string vc_token(VcKind vc) {
  switch (vc) {
    case VcKind::kAuthenticated: return "auth";
    case VcKind::kNonAuthenticated: return "nonauth";
    case VcKind::kFast: return "fast";
  }
  return "?";
}

std::optional<VcKind> vc_from_token(const std::string& token) {
  if (token == "auth") return VcKind::kAuthenticated;
  if (token == "nonauth") return VcKind::kNonAuthenticated;
  if (token == "fast") return VcKind::kFast;
  return std::nullopt;
}

std::string validity_token(ValidityKind kind) {
  switch (kind) {
    case ValidityKind::kStrong: return "strong";
    case ValidityKind::kWeak: return "weak";
    case ValidityKind::kCorrectProposal: return "correct-proposal";
    case ValidityKind::kMedian: return "median";
    case ValidityKind::kConvexHull: return "convex-hull";
  }
  return "?";
}

std::optional<ValidityKind> validity_from_token(const std::string& token) {
  if (token == "strong") return ValidityKind::kStrong;
  if (token == "weak") return ValidityKind::kWeak;
  if (token == "correct-proposal") return ValidityKind::kCorrectProposal;
  if (token == "median") return ValidityKind::kMedian;
  if (token == "convex-hull") return ValidityKind::kConvexHull;
  return std::nullopt;
}

bool Candidate::operator==(const Candidate& other) const {
  return strategy == other.strategy && fault_count == other.fault_count &&
         vc == other.vc && validity == other.validity &&
         pattern == other.pattern && net_profile == other.net_profile &&
         n == other.n && t == other.t && gst == other.gst &&
         delta == other.delta && domain == other.domain &&
         victims == other.victims && observe == other.observe &&
         cert == other.cert && topology == other.topology &&
         seed == other.seed;
}

namespace {

/// The candidate with every axis at its default: the values the wire gate
/// leaves out of keys, cells and file names, and the ones shrinking tries.
const Candidate& defaults() {
  static const Candidate kDefaults;
  return kDefaults;
}

}  // namespace

std::string Candidate::key() const {
  std::ostringstream os;
  os << strategy << '/' << fault_count << '/' << vc_token(vc) << '/'
     << validity_token(validity) << '/' << pattern << '/' << net_profile
     << '/' << n << '/' << t << '/' << io::json_number(gst) << '/'
     << io::json_number(delta) << '/' << domain << '/' << victims << '/'
     << observe << '/';
  // Wire-gated like the cell JSON: the defaults (the historical only
  // values) stay absent, so legacy keys are unchanged.
  if (cert != defaults().cert) os << core::cert_mode_token(cert) << '/';
  if (topology != defaults().topology) os << topology << '/';
  os << seed;
  return os.str();
}

SweepPoint candidate_point(const Candidate& c) {
  FaultSpec spec;  // "none" keeps the default strategy, with no faults
  if (c.strategy == "none") {
    spec.count = 0;
  } else {
    spec.strategy = c.strategy;
    spec.count = c.fault_count;
  }
  spec.victims = c.victims;
  spec.observe = c.observe;
  return ScenarioMatrix()
      .vc_kinds({c.vc})
      .validities({c.validity})
      .patterns({c.pattern})
      .faults({spec})
      .sizes({{c.n, c.t}})
      .network_profiles({c.net_profile})
      .gsts({c.gst})
      .deltas({c.delta})
      .seeds({c.seed})
      .cert_modes({c.cert})
      .topologies({c.topology})
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
  switch (axis) {
    case Axis::kStrategy: strategies = names; break;
    case Axis::kPattern: patterns = names; break;
    case Axis::kNetProfile: net_profiles = names; break;
    case Axis::kCertMode:
      cert_modes.clear();
      for (const std::string& name : names) {
        cert_modes.push_back(*core::cert_mode_from_token(name));
      }
      break;
    case Axis::kTopology: topologies = names; break;
  }
}

namespace {

template <typename T>
const T& pick(sim::Rng& rng, const std::vector<T>& pool) {
  return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
}

std::uint64_t sample_seed(sim::Rng& rng) {
  // Small seeds keep shrunk cells readable and give seed re-derivation a
  // realistic chance; the space is still far larger than any budget.
  return 1 + rng.next_below(1u << 16);
}

Candidate sample(sim::Rng& rng, const SearchSpace& space) {
  Candidate c;
  c.strategy = pick(rng, space.strategies);
  c.vc = pick(rng, space.vcs);
  c.validity = pick(rng, space.validities);
  c.pattern = pick(rng, space.patterns);
  c.net_profile = pick(rng, space.net_profiles);
  const auto [n, t] = pick(rng, space.sizes);
  c.n = n;
  c.t = t;
  c.gst = pick(rng, space.gsts);
  c.delta = pick(rng, space.deltas);
  c.domain = pick(rng, space.domains);
  c.fault_count = -1;  // all t faulty; shrinking minimizes later
  c.cert = pick(rng, space.cert_modes);
  c.topology = pick(rng, space.topologies);
  c.seed = sample_seed(rng);
  return c;
}

Candidate mutate(sim::Rng& rng, const SearchSpace& space, Candidate c) {
  // Small knob pools for the fault parameters the colluding/adaptive
  // strategies consume (-1 = the Fault default).
  static const std::vector<int> kVictims{-1, 1, 2, 3};
  static const std::vector<int> kObserve{-1, 1, 4, 8, 16, 32};
  const int tweaks = 1 + static_cast<int>(rng.next_below(2));
  for (int i = 0; i < tweaks; ++i) {
    switch (rng.next_below(14)) {
      case 0: c.strategy = pick(rng, space.strategies); break;
      case 1: c.vc = pick(rng, space.vcs); break;
      case 2: c.validity = pick(rng, space.validities); break;
      case 3: c.pattern = pick(rng, space.patterns); break;
      case 4: c.net_profile = pick(rng, space.net_profiles); break;
      case 5: {
        const auto [n, t] = pick(rng, space.sizes);
        c.n = n;
        c.t = t;
        if (c.fault_count > t) c.fault_count = -1;
        break;
      }
      case 6: c.gst = pick(rng, space.gsts); break;
      case 7: c.delta = pick(rng, space.deltas); break;
      case 8: c.domain = pick(rng, space.domains); break;
      case 9:
        c.fault_count =
            c.t > 0 ? static_cast<int>(1 + rng.next_below(
                          static_cast<std::uint64_t>(c.t)))
                    : 0;
        break;
      case 10:
        c.victims = pick(rng, kVictims);
        c.observe = pick(rng, kObserve);
        break;
      case 11: c.cert = pick(rng, space.cert_modes); break;
      case 12: c.topology = pick(rng, space.topologies); break;
      default: c.seed = sample_seed(rng); break;
    }
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
  require_nonempty(!s.strategies.empty(), "strategy");
  require_nonempty(!s.vcs.empty(), "vc");
  require_nonempty(!s.validities.empty(), "validity");
  require_nonempty(!s.patterns.empty(), "pattern");
  require_nonempty(!s.net_profiles.empty(), "network-profile");
  require_nonempty(!s.sizes.empty(), "size");
  require_nonempty(!s.gsts.empty(), "gst");
  require_nonempty(!s.deltas.empty(), "delta");
  require_nonempty(!s.domains.empty(), "domain");
  require_nonempty(!s.cert_modes.empty(), "cert-mode");
  require_nonempty(!s.topologies.empty(), "topology");
  if (options.budget <= 0) {
    throw std::invalid_argument("search budget must be positive");
  }
  if (options.population <= 0) {
    throw std::invalid_argument("search population must be positive");
  }
}

// ---------------------------------------------------------------- shrinking

/// Sizes of the pool strictly simpler than (n, t): fewer processes first,
/// then lower tolerance.
std::vector<std::pair<int, int>> simpler_sizes(const SearchSpace& space,
                                               int n, int t) {
  std::vector<std::pair<int, int>> out;
  for (const auto& size : space.sizes) {
    if (size.first < n || (size.first == n && size.second < t)) {
      out.push_back(size);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Times of the pool strictly smaller than `current`, ascending.
std::vector<Time> smaller_times(const std::vector<Time>& pool, Time current) {
  std::vector<Time> out;
  for (const Time v : pool) {
    if (v < current) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

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
  if (cur.strategy != "none" && cur.fault_count >= cur.t) {
    cur.fault_count = -1;
  }
  const SearchSpace& space = options.space;
  // Axis passes to a fixpoint. Each pass tries strictly simpler values for
  // one axis (simplest first) and accepts the first that preserves the
  // verdict; the identity axes (strategy, stack, property) are never
  // touched — they name WHAT broke, not how hard the cell is to read.
  bool changed = true;
  // Resets one axis to its default, the simpler cell, if the verdict holds.
  const auto simplify = [&](auto field) {
    if (cur.*field == defaults().*field) return;
    Candidate next = cur;
    next.*field = defaults().*field;
    if (reproduces(next)) {
      cur = next;
      changed = true;
    }
  };
  while (changed && probes < options.max_shrink_probes) {
    changed = false;
    for (const auto& [n, t] : simpler_sizes(space, cur.n, cur.t)) {
      Candidate next = cur;
      next.n = n;
      next.t = t;
      // >= keeps the count canonical (see entry): a count equal to the new
      // t is the same cell as -1.
      if (next.fault_count >= t) next.fault_count = -1;
      if (reproduces(next)) {
        cur = next;
        changed = true;
        break;
      }
    }
    const int resolved =
        cur.fault_count < 0 ? cur.t : std::min(cur.fault_count, cur.t);
    for (int k = 1; k < resolved; ++k) {
      Candidate next = cur;
      next.fault_count = k;
      if (reproduces(next)) {
        cur = next;
        changed = true;
        break;
      }
    }
    simplify(&Candidate::pattern);
    simplify(&Candidate::net_profile);
    for (const Time gst : smaller_times(space.gsts, cur.gst)) {
      Candidate next = cur;
      next.gst = gst;
      if (reproduces(next)) {
        cur = next;
        changed = true;
        break;
      }
    }
    for (const Time delta : smaller_times(space.deltas, cur.delta)) {
      Candidate next = cur;
      next.delta = delta;
      if (reproduces(next)) {
        cur = next;
        changed = true;
        break;
      }
    }
    {
      std::vector<Value> domains;
      for (const Value d : space.domains) {
        if (d < cur.domain) domains.push_back(d);
      }
      std::sort(domains.begin(), domains.end());
      for (const Value d : domains) {
        Candidate next = cur;
        next.domain = d;
        if (reproduces(next)) {
          cur = next;
          changed = true;
          break;
        }
      }
    }
    if (cur.victims != -1 || cur.observe != -1) {
      Candidate next = cur;
      next.victims = -1;
      next.observe = -1;
      if (reproduces(next)) {
        cur = next;
        changed = true;
      }
    }
    // The per-vote backend is the simpler cell: a violation that survives
    // without aggregation is not about the QC layer at all.
    simplify(&Candidate::cert);
    // Likewise full-mesh: a violation that survives without the committee
    // overlay is not about the announce/relay layer at all.
    simplify(&Candidate::topology);
  }
  // Seed re-derivation: the smallest seed in [1, seed_tries] below the
  // found one that still reproduces. Ascending order + first-accept keeps
  // this idempotent: once replaced, no smaller reproducing seed exists.
  for (std::uint64_t s = 1;
       s <= static_cast<std::uint64_t>(std::max(options.seed_tries, 0)) &&
       s < cur.seed && probes < options.max_shrink_probes;
       ++s) {
    Candidate next = cur;
    next.seed = s;
    if (reproduces(next)) {
      cur = next;
      break;
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

/// The candidate's axis fields as JSON members (no braces), shared by the
/// cell format and the report's best-near-miss block.
void candidate_fields(std::ostream& os, const Candidate& c) {
  os << "\"vc\": \"" << vc_token(c.vc) << "\", "
     << "\"validity\": \"" << validity_token(c.validity) << "\", "
     << "\"strategy\": \"" << io::json_escape(c.strategy) << "\", "
     << "\"fault_count\": " << c.fault_count << ", "
     << "\"pattern\": \"" << io::json_escape(c.pattern) << "\", "
     << "\"net_profile\": \"" << io::json_escape(c.net_profile) << "\", "
     << "\"n\": " << c.n << ", \"t\": " << c.t << ", "
     << "\"gst\": " << io::json_number(c.gst) << ", "
     << "\"delta\": " << io::json_number(c.delta) << ", "
     << "\"domain\": " << c.domain << ", "
     << "\"victims\": " << c.victims << ", "
     << "\"observe\": " << c.observe << ", ";
  // Wire-gated (same convention as the sweep axes): the defaults are
  // absent, so every legacy corpus cell keeps its exact bytes.
  if (c.cert != defaults().cert) {
    os << "\"cert_mode\": \"" << core::cert_mode_token(c.cert) << "\", ";
  }
  if (c.topology != defaults().topology) {
    os << "\"topology\": \"" << io::json_escape(c.topology) << "\", ";
  }
  os << "\"seed\": " << c.seed;
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

[[noreturn]] void bad_cell(const std::string& what) {
  throw std::runtime_error("malformed counterexample cell: " + what);
}

/// A field parse_cell requires: present and well formed.
template <typename T>
T required(std::optional<T> value, const std::string& key) {
  if (!value.has_value()) bad_cell("missing or malformed field '" + key + "'");
  return *std::move(value);
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
  const auto text = [&json](const std::string& key) {
    return required(io::string_field(json, key), key);
  };
  const auto integer = [&json](const std::string& key) {
    return required(io::integer_field<int>(json, key), key);
  };
  const auto count = [&integer](const std::string& key) {
    const int v = integer(key);
    if (v < 0) bad_cell("negative field '" + key + "'");
    return v;
  };
  const auto number = [&json](const std::string& key) {
    return required(io::number_field(json, key), key);
  };
  const auto flag = [&json](const std::string& key) {
    return required(io::bool_field(json, key), key);
  };
  if (text("schema") != "valcon-counterexample-v1") bad_cell("unknown schema");
  CorpusCell cell;
  const auto verdict = verdict_from_token(text("verdict"));
  if (!verdict.has_value()) bad_cell("unknown verdict token");
  cell.verdict = *verdict;
  Candidate& c = cell.candidate;
  const auto vc = vc_from_token(text("vc"));
  if (!vc.has_value()) bad_cell("unknown vc token");
  c.vc = *vc;
  const auto validity = validity_from_token(text("validity"));
  if (!validity.has_value()) bad_cell("unknown validity token");
  c.validity = *validity;
  c.strategy = text("strategy");
  c.fault_count = integer("fault_count");
  c.pattern = text("pattern");
  c.net_profile = text("net_profile");
  c.n = count("n");
  c.t = count("t");
  c.gst = number("gst");
  c.delta = number("delta");
  c.domain = count("domain");
  c.victims = integer("victims");
  c.observe = integer("observe");
  // Absent on legacy cells (strictness exception: absence IS the per-vote
  // / full-mesh default under the wire gate, not a malformed cell).
  if (json.find("\"cert_mode\": \"") != std::string::npos) {
    const auto cert = core::cert_mode_from_token(text("cert_mode"));
    if (!cert.has_value()) bad_cell("unknown cert_mode token");
    c.cert = *cert;
  }
  if (json.find("\"topology\": \"") != std::string::npos) {
    c.topology = text("topology");
    // Throws for malformed names; a corpus cell must always replay.
    static_cast<void>(named_topology(c.topology));
  }
  c.seed = required(io::integer_field<std::uint64_t>(json, "seed"), "seed");
  cell.expect_decided = flag("decided");
  cell.expect_agreement = flag("agreement");
  cell.expect_validity_ok = flag("validity_ok");
  return cell;
}

std::string cell_filename(const Counterexample& cx) {
  const Candidate& c = cx.candidate;
  std::ostringstream os;
  os << verdict_token(cx.verdict) << "-" << vc_token(c.vc) << "-"
     << c.strategy;
  if (c.cert != defaults().cert) os << "-" << core::cert_mode_token(c.cert);
  if (c.topology != defaults().topology) os << "-" << c.topology;
  os << "-n" << c.n << "t" << c.t << "-s" << c.seed << ".json";
  return os.str();
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
