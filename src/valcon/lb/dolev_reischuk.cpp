#include "valcon/lb/dolev_reischuk.hpp"

#include "valcon/sim/adversary.hpp"

namespace valcon::lb {

EbaseOutcome run_ebase_experiment(int n, int t, harness::VcKind vc,
                                  std::uint64_t seed) {
  const int half_t = (t + 1) / 2;  // ceil(t/2)
  const Value v_star = 7;

  harness::ScenarioConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.vc = vc;
  cfg.seed = seed;
  cfg.gst = 0.0;

  sim::SimConfig sim_cfg;
  sim_cfg.n = n;
  sim_cfg.t = t;
  sim_cfg.seed = seed;
  sim_cfg.net.gst = 0.0;
  sim_cfg.net.delta = 1.0;
  sim::Simulator simulator(sim_cfg);

  const core::StrongValidity validity;
  const core::LambdaFn lambda = core::make_lambda(validity, n, t);

  auto outcome = std::make_shared<EbaseOutcome>();
  auto decisions = std::make_shared<std::map<ProcessId, Value>>();

  // Members of B: the last ceil(t/2) processes.
  std::vector<ProcessId> group_b;
  for (ProcessId p = n - half_t; p < n; ++p) group_b.push_back(p);

  for (ProcessId p = 0; p < n; ++p) {
    auto stack = std::make_unique<sim::ComponentHost>(harness::make_universal(
        cfg, v_star, lambda, [decisions, p](sim::Context&, Value v) {
          (*decisions)[p] = v;
        }));
    if (p >= n - half_t) {
      // E_base: ignore the first ceil(t/2) messages, never send to B.
      simulator.mark_faulty(p);
      simulator.add_process(
          p, std::make_unique<sim::FilterShim>(
                 std::move(stack),
                 sim::FilterShim::Hooks{.inbound = sim::ignore_first(half_t),
                                        .outbound = sim::omit_to(group_b)}));
    } else {
      simulator.add_process(p, std::move(stack));
    }
  }

  simulator.run(1e7);

  outcome->correct_messages = simulator.metrics().message_complexity();
  outcome->bound =
      static_cast<std::uint64_t>(half_t) * static_cast<std::uint64_t>(half_t);
  outcome->bound_respected = outcome->correct_messages > outcome->bound;

  bool all_decided = true;
  for (ProcessId p = 0; p < n - half_t; ++p) {
    if (decisions->count(p) == 0) all_decided = false;
  }
  outcome->all_correct_decided = all_decided;
  std::optional<Value> seen;
  bool agree = true;
  for (ProcessId p = 0; p < n - half_t; ++p) {
    const auto it = decisions->find(p);
    if (it == decisions->end()) continue;
    if (seen.has_value() && *seen != it->second) agree = false;
    seen = it->second;
  }
  outcome->agreement = agree;
  return *outcome;
}

}  // namespace valcon::lb
