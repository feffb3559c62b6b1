#include "valcon/lb/partition.hpp"

#include <stdexcept>
#include <string>

#include "valcon/sim/adversary.hpp"

namespace valcon::lb {

PartitionOutcome run_partition_experiment(int n, int t, std::uint64_t seed) {
  // Theorem 1's construction needs n <= 3t (here the two canonical shapes);
  // a throw, not an assert — NDEBUG builds would otherwise run a partition
  // geometry the proof says nothing about and report it as a result.
  if (t < 1 || (n != 3 * t && n != 3 * t + 1)) {
    throw std::invalid_argument(
        "run_partition_experiment requires n == 3t or n == 3t+1 with "
        "t >= 1, got n=" + std::to_string(n) + " t=" + std::to_string(t));
  }
  // Groups: A = [0, n-2t), B = [n-2t, n-t) (Byzantine), C = [n-t, n).
  const int a_end = n - 2 * t;
  const int b_end = n - t;
  const Value value_a = 0;
  const Value value_c = 1;
  // Both sides must independently run many views (the C side only decides
  // in C-led views), so give the partition plenty of pre-GST time.
  const Time partition_until = 1e6;
  const Time gst = 2e6;

  harness::ScenarioConfig cfg;  // reused only for stack construction
  cfg.n = n;
  cfg.t = t;
  cfg.vc = harness::VcKind::kAuthenticated;

  sim::SimConfig sim_cfg;
  sim_cfg.n = n;
  sim_cfg.t = t;
  sim_cfg.seed = seed;
  sim_cfg.net.gst = gst;
  sim_cfg.net.delta = 1.0;
  sim::Simulator simulator(sim_cfg);

  const core::StrongValidity validity;
  const core::LambdaFn lambda = core::make_lambda(validity, n, t);

  auto outcome = std::make_shared<PartitionOutcome>();

  const auto side_of = [b_end](ProcessId p, Time) {
    return p >= b_end ? 1 : 0;
  };

  for (ProcessId p = 0; p < n; ++p) {
    if (p < a_end) {
      simulator.add_process(
          p, std::make_unique<sim::ComponentHost>(harness::make_universal(
                 cfg, value_a, lambda,
                 [outcome, p](sim::Context& ctx, Value v) {
                   outcome->decisions[p] = v;
                   static_cast<void>(ctx);
                 })));
    } else if (p < b_end) {
      // Split-brain: face 0 plays the A side with A's proposal, face 1
      // plays the C side with C's proposal.
      simulator.mark_faulty(p);
      auto face0 = std::make_unique<sim::ComponentHost>(harness::make_universal(
          cfg, value_a, lambda, [](sim::Context&, Value) {}));
      auto face1 = std::make_unique<sim::ComponentHost>(harness::make_universal(
          cfg, value_c, lambda, [](sim::Context&, Value) {}));
      simulator.add_process(p, std::make_unique<sim::FacedProcess>(
                                   std::move(face0), std::move(face1),
                                   side_of));
    } else {
      simulator.add_process(
          p, std::make_unique<sim::ComponentHost>(harness::make_universal(
                 cfg, value_c, lambda,
                 [outcome, p](sim::Context& ctx, Value v) {
                   outcome->decisions[p] = v;
                   static_cast<void>(ctx);
                 })));
    }
  }

  // Step 3 of the Lemma 2 construction: delay A <-> C communication.
  std::vector<ProcessId> group_a;
  std::vector<ProcessId> group_c;
  for (ProcessId p = 0; p < a_end; ++p) group_a.push_back(p);
  for (ProcessId p = b_end; p < n; ++p) group_c.push_back(p);
  simulator.network().hold_between(group_a, group_c, partition_until);

  outcome->events = simulator.run(gst + 200.0);

  for (const auto& [pid, v] : outcome->decisions) {
    if (pid < a_end) {
      outcome->side_a_value = v;
    } else {
      outcome->side_c_value = v;
    }
  }
  outcome->agreement_violated =
      outcome->side_a_value.has_value() && outcome->side_c_value.has_value() &&
      *outcome->side_a_value != *outcome->side_c_value;
  return *outcome;
}

}  // namespace valcon::lb
