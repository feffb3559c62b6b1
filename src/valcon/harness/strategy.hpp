// Pluggable Byzantine adversary strategies.
//
// The paper's separation results each hinge on a different adversary
// construction (Lemma 2's partitioner, Theorem 1's equivocator, Theorem 4's
// message-dropper), and new adversarial scenarios should not require edits
// to the harness core. A Strategy builds the sim::Process installed for a
// faulty process — wrapping a correct stack in shims, running several
// stacks side by side, or installing network-level side effects — and the
// string-keyed StrategyRegistry makes every strategy addressable from
// ScenarioConfig, the sweep matrix and the valcon_sweep CLI.
//
// Determinism contract for strategy authors (see docs/adversaries.md): a
// strategy may only draw randomness from the per-process Rng of the
// Context it is given (sim/rng.hpp) and may not consult wall-clock time or
// any other ambient state, so that every run stays a deterministic function
// of (configuration, seed) whatever the sweep job count.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "valcon/harness/registry.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/sim/simulator.hpp"

namespace valcon::harness {

/// Per-run blackboard for *colluding* strategies: faulty processes built by
/// the same (or cooperating) strategies in one run share state through it —
/// a common partition plan, a joint vote-withholding ledger. run_universal
/// creates one instance per run and hands every StrategyEnv a reference, so
/// shared state never leaks across runs (or across the concurrent runs of a
/// sweep). Builds within one run are sequential; no locking.
class StrategyShared {
 public:
  /// Returns the slot registered under `key`, default-constructing a T on
  /// first use. All callers for one key must agree on T (checked: a
  /// mismatched type throws std::logic_error).
  template <typename T>
  std::shared_ptr<T> get_or_make(const std::string& key) {
    auto [it, inserted] = slots_.try_emplace(key);
    if (inserted) {
      auto made = std::make_shared<T>();
      it->second = Slot{made, &typeid(T)};
      return made;
    }
    if (*it->second.type != typeid(T)) {
      throw std::logic_error("StrategyShared: key '" + key +
                             "' already holds a different type");
    }
    return std::static_pointer_cast<T>(it->second.value);
  }

 private:
  struct Slot {
    std::shared_ptr<void> value;
    const std::type_info* type = nullptr;
  };
  std::map<std::string, Slot> slots_;
};

/// Everything a Strategy may use while installing the process for one
/// faulty id. The stack factories build a full Universal stack (the same
/// one a correct process runs) proposing a value of the strategy's choice.
struct StrategyEnv {
  const ScenarioConfig& cfg;
  const Fault& fault;   // the parameters for this faulty process
  ProcessId self;       // the faulty process being built
  sim::Simulator& sim;  // for network()-level side effects (holds)

  /// Stack whose decisions are recorded in the RunResult (and pruned from
  /// the correctness-facing views afterwards, as the process is faulty) —
  /// use for mostly-correct behaviors such as crash or delay.
  std::function<std::unique_ptr<sim::Process>(Value proposal)> recorded_stack;

  /// Stack whose decisions are discarded — use for parallel copies such as
  /// equivocation faces, where per-face decisions are meaningless.
  std::function<std::unique_ptr<sim::Process>(Value proposal)> shadow_stack;

  /// Per-run blackboard for colluding strategies (see StrategyShared).
  StrategyShared& shared;

  /// The proposal ScenarioConfig assigns to `self`.
  [[nodiscard]] Value own_proposal() const {
    return cfg.proposals[static_cast<std::size_t>(self)];
  }
};

/// One adversary behavior. Implementations must be stateless across runs
/// (a fresh instance is made per lookup); all per-run state lives in the
/// returned Process.
class Strategy {
 public:
  /// Names a strategy in StrategyRegistry's messages.
  static constexpr const char* kNoun = "adversary strategy";

  virtual ~Strategy() = default;

  /// Builds the process installed for env.self (never null). May also
  /// install network-level side effects through env.sim. The caller has
  /// already marked env.self faulty.
  [[nodiscard]] virtual std::unique_ptr<sim::Process> build(
      const StrategyEnv& env) const = 0;

  /// Parameter validation hook, called from harness::validate(). Throw
  /// std::invalid_argument for out-of-range parameters.
  virtual void validate(const Fault& /*fault*/,
                        const ScenarioConfig& /*cfg*/) const {}
};

/// The strategy registry (registry.hpp). Its global() instance starts with
/// the built-in strategies ("silent", "crash", "equivocate", "delay",
/// "mutate", "equivocate-scheduled", "adaptive", "collude-equivocate",
/// "collude-withhold", "forge-qc") registered.
using StrategyRegistry = Registry<Strategy>;

template <>
StrategyRegistry& StrategyRegistry::global();

}  // namespace valcon::harness
