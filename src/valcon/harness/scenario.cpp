#include "valcon/harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "valcon/consensus/auth_vector_consensus.hpp"
#include "valcon/consensus/fast_vector_consensus.hpp"
#include "valcon/consensus/nonauth_vector_consensus.hpp"
#include "valcon/harness/strategy.hpp"

namespace valcon::harness {

std::string to_string(VcKind kind) {
  switch (kind) {
    case VcKind::kAuthenticated: return "auth(Alg1)";
    case VcKind::kNonAuthenticated: return "nonauth(Alg3)";
    case VcKind::kFast: return "fast(Alg6)";
  }
  return "?";
}

bool RunResult::all_correct_decided(const ScenarioConfig& cfg) const {
  for (ProcessId p = 0; p < cfg.n; ++p) {
    if (cfg.faults.count(p) != 0) continue;
    if (decisions.count(p) == 0) return false;
  }
  return true;
}

bool RunResult::agreement() const {
  std::optional<Value> seen;
  for (const auto& [pid, v] : decisions) {
    if (seen.has_value() && *seen != v) return false;
    seen = v;
  }
  return true;
}

std::optional<Value> RunResult::common_decision() const {
  if (decisions.empty() || !agreement()) return std::nullopt;
  return decisions.begin()->second;
}

namespace {

std::unique_ptr<consensus::VectorConsensus> make_vc(const ScenarioConfig& cfg) {
  consensus::QuadOptions quad_options;
  quad_options.decide_echo = cfg.quad_decide_echo;
  quad_options.cert_mode = cfg.cert_mode;
  switch (cfg.vc) {
    case VcKind::kAuthenticated:
      return std::make_unique<consensus::AuthVectorConsensus>(quad_options);
    case VcKind::kNonAuthenticated:
      return std::make_unique<consensus::NonAuthVectorConsensus>(cfg.n,
                                                                cfg.cert_mode);
    case VcKind::kFast:
      return std::make_unique<consensus::FastVectorConsensus>(quad_options);
  }
  return nullptr;
}

}  // namespace

std::shared_ptr<const crypto::KeyRegistry> shared_key_registry(
    int n, int threshold_k, std::uint64_t seed) {
  using CacheKey = std::tuple<int, int, std::uint64_t>;
  static std::mutex mu;
  static std::map<CacheKey, std::shared_ptr<const crypto::KeyRegistry>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  // A sweep over thousands of seeds creates thousands of (tiny) registries;
  // dropping the whole cache at a generous bound keeps the worst case flat
  // without an eviction order that would be dead weight for every realistic
  // sweep.
  if (cache.size() >= 8192) cache.clear();
  auto& entry = cache[CacheKey{n, threshold_k, seed}];
  if (entry == nullptr) {
    entry = std::make_shared<const crypto::KeyRegistry>(n, threshold_k, seed);
  }
  return entry;
}

std::unique_ptr<core::Universal> make_universal(
    const ScenarioConfig& cfg, Value proposal, core::LambdaFn lambda,
    core::Universal::DecideCb on_decide) {
  auto universal = std::make_unique<core::Universal>(
      make_vc(cfg), std::move(lambda), std::move(on_decide));
  universal->propose(proposal);
  return universal;
}

void validate(const ScenarioConfig& cfg) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ScenarioConfig: " + what);
  };
  if (cfg.n <= 0) fail("n must be positive, got n=" + std::to_string(cfg.n));
  if (cfg.t < 0 || cfg.t >= cfg.n) {
    fail("t must satisfy 0 <= t < n, got n=" + std::to_string(cfg.n) +
         " t=" + std::to_string(cfg.t));
  }
  if (static_cast<int>(cfg.proposals.size()) != cfg.n) {
    fail("expected one proposal per process (n=" + std::to_string(cfg.n) +
         "), got " + std::to_string(cfg.proposals.size()));
  }
  if (static_cast<int>(cfg.faults.size()) > cfg.t) {
    fail("more faults (" + std::to_string(cfg.faults.size()) +
         ") than the tolerance t=" + std::to_string(cfg.t));
  }
  for (const auto& [pid, fault] : cfg.faults) {
    if (pid < 0 || pid >= cfg.n) {
      fail("fault id " + std::to_string(pid) + " outside [0, " +
           std::to_string(cfg.n) + ")");
    }
    // Strategy resolution throws for unknown names; the strategy's own hook
    // checks its parameters.
    StrategyRegistry::global().make(fault.strategy)->validate(fault, cfg);
  }
  if (!positive_finite(cfg.delta)) fail("delta must be positive and finite");
  if (!nonnegative_finite(cfg.gst)) fail("gst must be finite and >= 0");
  if (!positive_finite(cfg.horizon)) {
    fail("horizon must be positive and finite");
  }
  if (!positive_finite(cfg.grace_multiplier)) {
    fail("grace_multiplier must be positive and finite");
  }
  cfg.topology.validate(cfg.n);
}

RunResult run_universal(const ScenarioConfig& cfg,
                        const core::LambdaFn& lambda) {
  validate(cfg);

  sim::SimConfig sim_cfg;
  sim_cfg.n = cfg.n;
  sim_cfg.t = cfg.t;
  sim_cfg.seed = cfg.seed;
  sim_cfg.net.gst = cfg.gst;
  sim_cfg.net.delta = cfg.delta;
  sim_cfg.keys = shared_key_registry(cfg.n, cfg.n - cfg.t, cfg.seed);
  sim::Simulator simulator(sim_cfg);
  // The profile's per-link policy goes in before any process is installed,
  // so even start-time sends see the adversarial schedule.
  if (auto policy = cfg.net_profile.make_delay_policy(cfg.gst)) {
    simulator.network().set_delay_policy(std::move(policy));
  }

  auto result = std::make_shared<RunResult>();
  auto correct_decided = std::make_shared<int>(0);

  // Committee topology: the inner stack runs over a k-sized system (and a
  // k-sized key registry) on the k lowest-id processes; everyone else is a
  // listener. Full mesh takes exactly the legacy path — same stacks, same
  // registry, byte-identical runs.
  const bool committee = !cfg.topology.full_mesh();
  const int committee_k = committee ? cfg.topology.committee_k : cfg.n;
  const int committee_t =
      committee ? Topology::committee_fault_tolerance(committee_k) : cfg.t;
  std::shared_ptr<const crypto::KeyRegistry> committee_keys;
  std::shared_ptr<const ScenarioConfig> inner_cfg;
  if (committee) {
    committee_keys = shared_key_registry(
        committee_k, committee_k - committee_t, cfg.seed);
    auto inner = std::make_shared<ScenarioConfig>(cfg);
    inner->n = committee_k;
    inner->t = committee_t;
    inner_cfg = std::move(inner);
  }

  // Builds the same full Universal stack a correct process runs, proposing
  // `v`. `record` wires its decisions into the RunResult (they are pruned
  // from the correctness-facing views at the end if the process is faulty);
  // a non-recorded stack discards them (equivocation faces etc.).
  const auto make_stack =
      [&](Value v, bool record, bool is_correct) -> std::unique_ptr<sim::Process> {
    auto on_decide =
        record ? core::Universal::DecideCb(
                     [result, correct_decided, is_correct](sim::Context& ctx,
                                                           Value decided) {
                       result->decisions[ctx.id()] = decided;
                       result->decide_times[ctx.id()] = ctx.now();
                       if (is_correct) ++*correct_decided;
                     })
               : core::Universal::DecideCb([](sim::Context&, Value) {});
    if (!committee) {
      return std::make_unique<sim::ComponentHost>(
          make_universal(cfg, v, lambda, std::move(on_decide)));
    }
    CommitteeHost::StackFactory factory =
        [inner_cfg, v, lambda](core::Universal::DecideCb inner_decide) {
          return make_universal(*inner_cfg, v, lambda,
                                std::move(inner_decide));
        };
    return std::make_unique<CommitteeHost>(
        committee_k, committee_t, cfg.cert_mode, committee_keys,
        std::move(factory), std::move(on_decide));
  };

  // One blackboard per run: colluding strategies coordinate through it
  // (shared partition plans, withholding ledgers). Builds are sequential in
  // pid order, so "first builder initializes" is deterministic.
  StrategyShared shared;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    const auto fault = cfg.faults.find(p);
    if (fault == cfg.faults.end()) {
      simulator.add_process(
          p, make_stack(cfg.proposals[static_cast<std::size_t>(p)],
                        /*record=*/true, /*is_correct=*/true));
      continue;
    }
    simulator.mark_faulty(p);
    StrategyEnv env{
        cfg,
        fault->second,
        p,
        simulator,
        /*recorded_stack=*/
        [&make_stack](Value v) {
          return make_stack(v, /*record=*/true, /*is_correct=*/false);
        },
        /*shadow_stack=*/
        [&make_stack](Value v) {
          return make_stack(v, /*record=*/false, /*is_correct=*/false);
        },
        /*shared=*/shared,
    };
    simulator.add_process(
        p, StrategyRegistry::global().make(fault->second.strategy)->build(env));
  }

  // Run to quiescence, but once every correct process has decided only let
  // the residual protocol chatter (decide-echo waves etc.) play out for a
  // bounded grace window: a faulty process — e.g. an equivocator's inner
  // stacks — may otherwise re-arm timers forever and drag the run to the
  // horizon. The cutoff is in simulated time, so results stay deterministic.
  const int n_correct = cfg.n - static_cast<int>(cfg.faults.size());
  Time cutoff = cfg.horizon;
  bool grace_armed = false;
  std::uint64_t events = 0;
  // The whole event loop runs on this thread, so the thread-local verify
  // tally's delta is exactly this run's signature checks.
  const std::uint64_t verifies_before = crypto::verify_counters().total();
  while (simulator.step(cutoff)) {
    ++events;
    if (!grace_armed && *correct_decided == n_correct) {
      grace_armed = true;
      cutoff = std::min(cfg.horizon,
                        simulator.now() + cfg.grace_multiplier * cfg.delta);
    }
  }
  result->events = events;
  result->verifies_total = crypto::verify_counters().total() - verifies_before;
  result->queue_drained = simulator.idle();
  result->end_time = simulator.now();
  result->grace_cutoff = grace_armed ? cutoff : -1.0;
  result->message_complexity = simulator.metrics().message_complexity();
  result->word_complexity = simulator.metrics().communication_complexity();
  result->messages_total = simulator.metrics().messages_total();
  result->min_vote_margin = simulator.metrics().near_miss().min_vote_margin;
  result->conflicting_votes = simulator.metrics().near_miss().conflicting_votes;
  // Crashed processes may have "decided" before crashing; they are faulty,
  // so drop them from the correctness-facing views.
  for (const auto& [pid, fault] : cfg.faults) {
    result->decisions.erase(pid);
    result->decide_times.erase(pid);
  }
  // last_decision_time must be derived from the decisions that survive the
  // pruning: a faulty recorded stack (an equivocator face, a process that
  // decides and later crashes) can decide after every correct process, and
  // folding its time into the max would inflate latency metrics computed
  // over correct processes only.
  result->last_decision_time = 0.0;
  for (const auto& [pid, when] : result->decide_times) {
    result->last_decision_time = std::max(result->last_decision_time, when);
  }
  return *result;
}

double loglog_slope(const std::vector<double>& xs,
                    const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    throw std::invalid_argument(
        "loglog_slope: needs two equal-length series of at least 2 points");
  }
  if (!std::all_of(xs.begin(), xs.end(), positive_finite) ||
      !std::all_of(ys.begin(), ys.end(), positive_finite)) {
    throw std::invalid_argument(
        "loglog_slope: every value must be positive and finite");
  }
  if (std::all_of(xs.begin(), xs.end(),
                  [&](double x) { return x == xs.front(); })) {
    throw std::invalid_argument("loglog_slope: the xs are all equal");
  }
  const std::size_t m = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = static_cast<double>(m) * sxx - sx * sx;
  return (static_cast<double>(m) * sxy - sx * sy) / denom;
}

}  // namespace valcon::harness
