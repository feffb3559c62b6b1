#include "valcon/harness/sweep.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "valcon/core/lambda.hpp"
#include "valcon/harness/net_profile.hpp"
#include "valcon/harness/pattern.hpp"
#include "valcon/harness/strategy.hpp"
#include "valcon/harness/table.hpp"

namespace valcon::harness {

namespace {

constexpr std::array<AxisInfo, kAxisCount> kAxes{{
    {Axis::kStrategy, "strategy", "--strategies", "strategies", "", "",
     "silent",
     [](const std::string& name) {
       // "none" selects the fault-free spec; make() throws with the list
       // of registered names.
       if (name != "none") {
         static_cast<void>(StrategyRegistry::global().make(name));
       }
     }},
    {Axis::kPattern, "pattern", "--patterns", "patterns", "pattern", "pat",
     "rotating",
     [](const std::string& name) {
       static_cast<void>(PatternRegistry::global().make(name));
     }},
    {Axis::kNetProfile, "network profile", "--net-profiles", "net_profiles",
     "net_profile", "net", "uniform",
     [](const std::string& name) {
       static_cast<void>(named_network_profile(name));
     }},
    {Axis::kCertMode, "cert mode", "--cert-modes", "cert_modes", "cert_mode",
     "cert", "per-vote",
     [](const std::string& name) {
       if (!core::cert_mode_from_token(name).has_value()) {
         throw std::invalid_argument("unknown cert mode '" + name +
                                     "' (known: aggregate, per-vote)");
       }
     }},
    {Axis::kTopology, "topology", "--topologies", "topologies", "topology",
     "topo", "full-mesh",
     [](const std::string& name) {
       static_cast<void>(named_topology(name));
     }},
}};

/// Filters `values` down to those whose name is in `keep`, failing loudly
/// for a requested name that selects nothing (nothing requested may be
/// dropped silently).
template <typename T, typename NameOf>
std::vector<T> filter_axis(const std::vector<T>& values,
                           const std::vector<std::string>& keep,
                           const AxisInfo& info, NameOf name_of) {
  std::vector<T> kept;
  for (const T& value : values) {
    if (std::find(keep.begin(), keep.end(), name_of(value)) != keep.end()) {
      kept.push_back(value);
    }
  }
  for (const std::string& name : keep) {
    if (std::none_of(kept.begin(), kept.end(), [&](const T& value) {
          return name_of(value) == name;
        })) {
      throw std::invalid_argument(std::string(info.name) + " '" + name +
                                  "' matches no " + info.name +
                                  " value of this matrix");
    }
  }
  return kept;
}

}  // namespace

const std::array<AxisInfo, kAxisCount>& axes() { return kAxes; }

const AxisInfo& axis_info(Axis axis) {
  return kAxes[static_cast<std::size_t>(axis)];
}

std::optional<Axis> axis_for_flag(const std::string& flag) {
  for (const AxisInfo& info : kAxes) {
    if (flag == info.flag) return info.axis;
  }
  return std::nullopt;
}

PerAxis<std::string> axis_defaults() {
  PerAxis<std::string> defaults;
  for (const AxisInfo& info : kAxes) defaults[info.axis] = info.default_value;
  return defaults;
}

std::string FaultSpec::label(int t) const {
  // Mirrors the clamp build() applies, so the label always names the number
  // of faults actually injected.
  const int resolved = count < 0 ? t : std::min(count, t);
  if (resolved == 0) return "none";
  return strategy + "x" + std::to_string(resolved);
}

ScenarioMatrix::ScenarioMatrix() {
  for (const AxisInfo& info : kAxes) {
    if (info.axis != Axis::kStrategy) {
      values_[info.axis] = {info.default_value};
    }
  }
}

ScenarioMatrix& ScenarioMatrix::declare(Axis axis,
                                        std::vector<std::string> values) {
  if (axis == Axis::kStrategy) {
    throw std::invalid_argument("the strategy axis is set through faults()");
  }
  declared_[axis] =
      !(values.size() == 1 && values[0] == axis_info(axis).default_value);
  values_[axis] = std::move(values);
  return *this;
}

ScenarioMatrix& ScenarioMatrix::keep(Axis axis,
                                     const std::vector<std::string>& names) {
  const AxisInfo& info = axis_info(axis);
  if (names.empty()) {
    // An empty keep-list would empty the axis and shrink the matrix to
    // zero cells — a sweep that runs nothing and exits green. A filter
    // that selects nothing is a caller mistake, not a request.
    throw std::invalid_argument(std::string("empty ") + info.name +
                                " filter");
  }
  for (const std::string& name : names) info.check(name);
  if (axis == Axis::kStrategy) {
    faults_ = filter_axis(faults_, names, info, [](const FaultSpec& spec) {
      return spec.effective_strategy();
    });
  } else {
    values_[axis] = filter_axis(values_[axis], names, info,
                                [](const std::string& v) { return v; });
  }
  return *this;
}

ScenarioMatrix& ScenarioMatrix::vc_kinds(std::vector<VcKind> v) {
  vcs_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::validities(std::vector<ValidityKind> v) {
  validities_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::patterns(std::vector<std::string> names) {
  return declare(Axis::kPattern, std::move(names));
}
ScenarioMatrix& ScenarioMatrix::faults(std::vector<FaultSpec> v) {
  faults_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::sizes(std::vector<std::pair<int, int>> nt) {
  sizes_ = std::move(nt);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::network_profiles(
    std::vector<std::string> names) {
  return declare(Axis::kNetProfile, std::move(names));
}
ScenarioMatrix& ScenarioMatrix::cert_modes(std::vector<core::CertMode> modes) {
  std::vector<std::string> tokens;
  tokens.reserve(modes.size());
  for (const core::CertMode mode : modes) {
    tokens.push_back(core::cert_mode_token(mode));
  }
  return declare(Axis::kCertMode, std::move(tokens));
}
ScenarioMatrix& ScenarioMatrix::topologies(std::vector<std::string> names) {
  return declare(Axis::kTopology, std::move(names));
}
ScenarioMatrix& ScenarioMatrix::gsts(std::vector<Time> v) {
  gsts_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::deltas(std::vector<Time> v) {
  deltas_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::seeds(std::vector<std::uint64_t> v) {
  seeds_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::proposal_domain(Value domain_size) {
  if (domain_size < 2) {
    throw std::invalid_argument("proposal domain must have >= 2 values, got " +
                                std::to_string(domain_size));
  }
  domain_ = domain_size;
  return *this;
}
ScenarioMatrix& ScenarioMatrix::record_near_miss(bool enabled) {
  near_miss_ = enabled;
  return *this;
}
ScenarioMatrix& ScenarioMatrix::horizon(Time cap) {
  if (!positive_finite(cap)) {
    throw std::invalid_argument("horizon must be positive and finite");
  }
  horizon_ = cap;
  return *this;
}

std::size_t ScenarioMatrix::size() const {
  return vcs_.size() * validities_.size() * values_[Axis::kPattern].size() *
         faults_.size() * sizes_.size() * values_[Axis::kNetProfile].size() *
         gsts_.size() * deltas_.size() * seeds_.size() *
         values_[Axis::kCertMode].size() * values_[Axis::kTopology].size();
}

void ScenarioMatrix::check_dimensions() const {
  if (domain_ < 2) {
    throw std::invalid_argument("proposal domain must have >= 2 values");
  }
  for (const auto& [n, t] : sizes_) {
    if (n <= 0 || t < 0 || t >= n) {
      throw std::invalid_argument("size (n=" + std::to_string(n) +
                                  ", t=" + std::to_string(t) +
                                  ") violates 0 <= t < n");
    }
  }
  // Pattern / profile *names* are deliberately not resolved here:
  // check_dimensions runs per point_at decode, and taking the registry
  // mutex per name per cell would serialize the pool on 1e6+-cell sweeps.
  // The decode body resolves each name exactly once per cell and throws
  // the same std::invalid_argument (listing what is registered) on the
  // first cell of a misnamed axis.
  // A fault spec naming a proposal outside the domain used to wrap or
  // leak through silently; reject it while the matrix is being built, not
  // deep inside a sweep.
  for (const FaultSpec& spec : faults_) {
    if (spec.equivocal_value >= domain_) {
      throw std::invalid_argument(
          "fault spec '" + spec.strategy + "': equivocal_value " +
          std::to_string(spec.equivocal_value) +
          " outside the proposal domain [0, " + std::to_string(domain_) +
          ") — pick a value the domain can express or raise "
          "proposal_domain()");
    }
  }
}

SweepPoint ScenarioMatrix::point_at(std::size_t index) const {
  check_dimensions();
  if (index >= size()) {
    throw std::out_of_range("matrix index " + std::to_string(index) +
                            " >= size " + std::to_string(size()));
  }
  // Mixed-radix decode, least-significant (fastest-varying) digit first:
  // the dimension nesting is vc > validity > pattern > fault > size >
  // net-profile > gst > delta > seed > cert-mode > topology, so the
  // topology digit is peeled first. This is the one source of truth for
  // the index ↔ cell mapping; build() just replays it. (The four new axes
  // decode as radix-1 digits on legacy matrices, so their indices — and
  // bytes — are untouched.)
  std::size_t rem = index;
  const auto digit = [&rem](std::size_t radix) {
    const std::size_t d = rem % radix;
    rem /= radix;
    return d;
  };
  PerAxis<const std::string*> picked{};
  const auto pick = [&](Axis axis) -> const std::string& {
    const std::vector<std::string>& values = values_[axis];
    picked[axis] = &values[digit(values.size())];
    return *picked[axis];
  };
  const std::string& topology_name = pick(Axis::kTopology);
  const std::string& cert_token = pick(Axis::kCertMode);
  const std::uint64_t seed = seeds_[digit(seeds_.size())];
  const Time delta = deltas_[digit(deltas_.size())];
  const Time gst = gsts_[digit(gsts_.size())];
  const std::string& profile_name = pick(Axis::kNetProfile);
  const auto [n, t] = sizes_[digit(sizes_.size())];
  const FaultSpec& spec = faults_[digit(faults_.size())];
  const std::string& pattern_name = pick(Axis::kPattern);
  const ValidityKind validity = validities_[digit(validities_.size())];
  const VcKind vc = vcs_[rem];

  ScenarioConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.delta = delta;
  cfg.gst = gst;
  cfg.seed = seed;
  cfg.vc = vc;
  cfg.horizon = horizon_;
  cfg.cert_mode = *core::cert_mode_from_token(cert_token);
  cfg.topology = named_topology(topology_name);
  cfg.net_profile = named_network_profile(profile_name);
  const PatternEnv penv{n, t, seed, domain_, validity};
  cfg.proposals = PatternRegistry::global().make(pattern_name)->assign(penv);
  if (static_cast<int>(cfg.proposals.size()) != n) {
    throw std::invalid_argument(
        "pattern '" + pattern_name + "' assigned " +
        std::to_string(cfg.proposals.size()) + " proposals for n=" +
        std::to_string(n));
  }
  for (const Value v : cfg.proposals) {
    if (v < 0 || v >= domain_) {
      throw std::invalid_argument(
          "pattern '" + pattern_name + "' assigned proposal " +
          std::to_string(v) + " outside the domain [0, " +
          std::to_string(domain_) + ")");
    }
  }
  const int count = std::min(spec.count < 0 ? t : spec.count, t);
  for (int f = 0; f < count; ++f) {
    const ProcessId pid = n - 1 - f;
    Fault fault;  // negative spec fields keep the defaults
    fault.strategy = spec.strategy;
    fault.crash_time = spec.crash_time < 0 ? gst : spec.crash_time;
    fault.release_time = spec.release_time;
    fault.equivocal_value =
        spec.equivocal_value < 0
            ? (cfg.proposals[static_cast<std::size_t>(pid)] + 1) % domain_
            : spec.equivocal_value;
    if (spec.mutate_rate >= 0) {
      fault.mutate_rate = spec.mutate_rate;
    }
    fault.switch_time = spec.switch_time;
    if (spec.victims >= 0) fault.victims = spec.victims;
    if (spec.observe >= 0) fault.observe = spec.observe;
    cfg.faults[pid] = fault;
  }
  SweepPoint point;
  point.index = index;
  point.config = std::move(cfg);
  point.validity = validity;
  point.pattern = pattern_name;
  point.label = "vc=" + to_string(vc) + " val=" + to_string(validity) +
                " fault=" + spec.label(t) + " n=" + std::to_string(n) +
                " t=" + std::to_string(t) + " gst=" + fmt(gst) +
                " delta=" + fmt(delta) + " seed=" + std::to_string(seed);
  // A named axis surfaces in labels and the wire format only when the
  // matrix declares it; a legacy matrix (every axis at its single default)
  // keeps the legacy bytes — the pinned "full" document depends on this.
  for (const AxisInfo& info : kAxes) {
    if (!declared_[info.axis]) continue;
    point.tags[info.axis] = *picked[info.axis];
    point.label += std::string(" ") + info.label_segment + "=" +
                   point.tags[info.axis];
  }
  point.near_miss = near_miss_;
  return point;
}

std::vector<SweepPoint> ScenarioMatrix::build() const {
  check_dimensions();
  std::vector<SweepPoint> points;
  const std::size_t total = size();
  points.reserve(total);
  for (std::size_t i = 0; i < total; ++i) points.push_back(point_at(i));
  return points;
}

SweepOutcome run_point(const SweepPoint& point) {
  const auto start = std::chrono::steady_clock::now();
  SweepOutcome outcome;
  outcome.point = point;
  const auto stamp = [&outcome, start] {
    outcome.wall_micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  };
  const ScenarioConfig& cfg = point.config;
  const auto validity = make_validity(point.validity, cfg.n, cfg.t);
  try {
    const auto lambda = core::make_lambda(*validity, cfg.n, cfg.t);
    outcome.result = run_universal(cfg, lambda);
  } catch (const std::exception& e) {
    outcome.error = e.what();
    outcome.decided = false;
    stamp();
    return outcome;
  }
  // One formal judgment for the three properties: check_execution builds
  // input_conf(E) from the correct proposals and returns the per-property
  // verdicts plus human-readable violation messages. The boolean flags are
  // derived from the report, so the wire format is unchanged while callers
  // (the adversary search above all) can tell a liveness miss from a
  // validity breach.
  std::set<ProcessId> faulty;
  for (const auto& [pid, fault] : cfg.faults) faulty.insert(pid);
  outcome.report = core::check_execution(*validity, cfg.n, cfg.t,
                                         cfg.proposals, faulty,
                                         outcome.result.decisions);
  outcome.decided = outcome.report.termination;
  outcome.agreement = outcome.report.agreement;
  outcome.validity_ok = outcome.report.validity;
  stamp();
  return outcome;
}

SweepRunner::SweepRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<SweepPoint>& points) const {
  std::vector<SweepOutcome> outcomes;
  outcomes.reserve(points.size());
  stream(
      0, points.size(),
      [&points](std::size_t i) { return run_point(points[i]); },
      [&outcomes](SweepOutcome&& o) { outcomes.push_back(std::move(o)); });
  return outcomes;
}

void SweepRunner::run_range(
    const ScenarioMatrix& matrix, std::size_t begin, std::size_t end,
    const std::function<void(SweepOutcome&&)>& on_outcome) const {
  if (begin > end || end > matrix.size()) {
    throw std::invalid_argument(
        "run_range [" + std::to_string(begin) + ", " + std::to_string(end) +
        ") is not a slice of the " + std::to_string(matrix.size()) +
        "-cell matrix");
  }
  stream(
      begin, end,
      [&matrix](std::size_t i) { return run_point(matrix.point_at(i)); },
      on_outcome);
}

void SweepRunner::stream(
    std::size_t begin, std::size_t end,
    const std::function<SweepOutcome(std::size_t)>& evaluate,
    const std::function<void(SweepOutcome&&)>& sink) const {
  if (begin == end) return;
  const std::size_t count = end - begin;
  if (jobs_ == 1 || count == 1) {
    for (std::size_t i = begin; i < end; ++i) sink(evaluate(i));
    return;
  }

  // Workers claim indices from an atomic cursor and park finished outcomes
  // in `pending` until the emit cursor reaches them; a worker more than
  // `window` cells ahead of the emit cursor blocks, which is what bounds
  // memory to O(jobs) however uneven the per-cell runtimes are. The worker
  // holding the emit-cursor index never blocks (its index always satisfies
  // the window predicate), so the emit frontier always advances.
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::size_t, SweepOutcome> pending;
  std::size_t next_emit = begin;
  std::atomic<std::size_t> next_claim{begin};
  std::exception_ptr failure;
  bool aborted = false;
  const std::size_t window = 16u * static_cast<std::size_t>(jobs_);

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next_claim.fetch_add(1);
      if (i >= end) return;
      SweepOutcome outcome;
      try {
        // evaluate can throw (a custom pattern violating the domain
        // contract in point_at, say); an exception escaping a pool thread
        // would std::terminate the process, so it is captured and
        // rethrown on the caller's thread — the same loud failure jobs=1
        // produces.
        outcome = evaluate(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!failure) failure = std::current_exception();
        aborted = true;
        cv.notify_all();
        return;
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return aborted || i < next_emit + window; });
      if (aborted) return;
      pending.emplace(i, std::move(outcome));
      try {
        while (!pending.empty() && pending.begin()->first == next_emit) {
          SweepOutcome ready = std::move(pending.begin()->second);
          pending.erase(pending.begin());
          ++next_emit;
          sink(std::move(ready));
        }
      } catch (...) {
        failure = std::current_exception();
        aborted = true;
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), count);
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  if (failure) std::rethrow_exception(failure);
}

ScenarioMatrix named_matrix(const std::string& name) {
  const std::vector<VcKind> all_vcs{VcKind::kAuthenticated,
                                    VcKind::kNonAuthenticated, VcKind::kFast};
  // The four legacy FaultKind patterns (plus fault-free), in the historical
  // order: "full" built from these is the pinned determinism reference, so
  // neither the order nor the contents may change.
  const std::vector<FaultSpec> legacy_faults{
      FaultSpec{"silent", 0},  // fault-free
      FaultSpec{"silent"},
      FaultSpec{"crash"},
      FaultSpec{"equivocate"},
      FaultSpec{"delay"},
  };
  if (name == "smoke") {
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong})
        .faults(legacy_faults)
        .sizes({{4, 1}})
        .seeds({1, 2});
  }
  if (name == "full") {
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong, ValidityKind::kWeak,
                     ValidityKind::kMedian, ValidityKind::kConvexHull})
        .faults(legacy_faults)
        .sizes({{4, 1}, {7, 2}})
        .gsts({0.0, 5.0})
        .seeds({1, 2, 3});
  }
  if (name == "byzantine") {
    std::vector<FaultSpec> specs = legacy_faults;
    specs.push_back(FaultSpec{"mutate"});
    specs.push_back(FaultSpec{"equivocate-scheduled"});
    specs.push_back(FaultSpec{"adaptive"});
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong})
        .faults(std::move(specs))
        .sizes({{4, 1}})
        .gsts({0.0, 5.0})
        .seeds({1, 2});
  }
  if (name == "validity") {
    // The input-space coverage matrix: every validity property crossed
    // with every proposal pattern and every network profile over a
    // 2-value domain. CorrectProposal validity is the reason the domain is
    // 2: at n=4, t=1 an all-distinct 3-entry decision vector over a
    // 3-value domain has no (t+1)-multiplicity value (Λ undefined,
    // unsolvable), while over domain 2 the pigeonhole guarantees one — so
    // this matrix is where CorrectProposal demonstrably gets solved,
    // including under the maximally diverse "adversarial" pattern.
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong, ValidityKind::kWeak,
                     ValidityKind::kCorrectProposal, ValidityKind::kMedian,
                     ValidityKind::kConvexHull})
        .patterns({"rotating", "unanimous", "split", "adversarial"})
        .faults({FaultSpec{"silent", 0}, FaultSpec{"crash"}})
        .sizes({{4, 1}})
        .network_profiles(
            {"uniform", "pre-gst-starve", "targeted-slow-links"})
        .gsts({0.0, 5.0})
        .proposal_domain(2)
        .seeds({1});
  }
  if (name == "certs") {
    // The cert_mode coverage matrix: both certificate backends over the
    // vote-heavy fault patterns. The cert axis is declared non-trivially,
    // so every cell carries the cert_mode wire field; test_qc pins this
    // matrix's job-count determinism.
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong})
        .faults({FaultSpec{"silent", 0}, FaultSpec{"crash"},
                 FaultSpec{"equivocate"}})
        .sizes({{4, 1}, {7, 2}})
        .cert_modes({core::CertMode::kPerVote, core::CertMode::kAggregate})
        .seeds({1, 2});
  }
  if (name == "committee") {
    // The large-n topology matrix: committees of {4, 7, 10} inside systems
    // of {50, 100, 200} processes, both certificate backends, fault-free
    // and crash. Faults land on the highest ids (point_at's assignment
    // rule), i.e. on listeners — the committee itself stays correct, so
    // every cell must terminate cleanly. Unanimous proposals keep every
    // validity verdict trivially green whatever the committee decides.
    // The topology and cert axes are non-trivial, so every cell carries
    // the topology and cert_mode wire fields; test_topology pins this
    // matrix's job-count determinism.
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong})
        .patterns({"unanimous"})
        .faults({FaultSpec{"silent", 0}, FaultSpec{"crash"}})
        .sizes({{50, 4}, {100, 8}, {200, 16}})
        .topologies({"committee-4", "committee-7", "committee-10"})
        .cert_modes({core::CertMode::kPerVote, core::CertMode::kAggregate})
        .seeds({1, 2});
  }
  throw std::invalid_argument("unknown matrix '" + name +
                              "' (expected: smoke, full, byzantine,"
                              " validity, certs, committee)");
}

}  // namespace valcon::harness
