#include "valcon/harness/strategy.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "valcon/core/quorum.hpp"
#include "valcon/sim/adversary.hpp"
#include "valcon/sim/component.hpp"

namespace valcon::harness {

namespace {

using Hooks = sim::FilterShim::Hooks;
using Verdict = sim::FilterShim::Verdict;

[[noreturn]] void bad_param(const std::string& strategy,
                            const std::string& what) {
  throw std::invalid_argument("strategy '" + strategy + "': " + what);
}

bool contains(const std::vector<ProcessId>& set, ProcessId p) {
  return std::find(set.begin(), set.end(), p) != set.end();
}

/// "silent" — no computational steps at all (canonical executions, §3.1).
class SilentStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv&) const override {
    return std::make_unique<sim::SilentProcess>();
  }
};

/// "crash" — correct until fault.crash_time, then silent.
class CrashStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    return std::make_unique<sim::FilterShim>(
        env.recorded_stack(env.own_proposal()),
        Hooks{.stop = env.fault.crash_time});
  }
  void validate(const Fault& fault, const ScenarioConfig&) const override {
    if (fault.crash_time < 0) bad_param("crash", "crash_time must be >= 0");
  }
};

/// "equivocate" — the Lemma 2 partitioning adversary: two independent
/// correct stacks with conflicting proposals, each confined to its half of
/// the process set (lower half sees the own proposal, upper half sees
/// fault.equivocal_value).
class EquivocateStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    const int half = env.cfg.n / 2;
    return std::make_unique<sim::FacedProcess>(
        env.shadow_stack(env.own_proposal()),
        env.shadow_stack(env.fault.equivocal_value),
        [half](ProcessId q, Time) { return q < half ? 0 : 1; });
  }
};

/// "delay" — the process itself behaves correctly; the adversary holds all
/// its outbound links (the self-link models local computation and stays
/// prompt) until release_time, clipped by the network to the model bound
/// max(send, GST) + delta.
class DelayStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    const Time release = env.fault.release_time >= 0
                             ? env.fault.release_time
                             : env.cfg.gst + env.cfg.delta;
    for (ProcessId q = 0; q < env.cfg.n; ++q) {
      if (q != env.self) env.sim.network().hold(env.self, q, release);
    }
    return env.recorded_stack(env.own_proposal());
  }
};

/// "mutate" — correct stack whose outbound messages are tampered with
/// probability fault.mutate_rate (drop / garble / duplicate).
class MutateStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    return std::make_unique<sim::FilterShim>(
        env.recorded_stack(env.own_proposal()),
        Hooks{.outbound = [rate = env.fault.mutate_rate](
                              sim::Context& ctx, ProcessId,
                              sim::PayloadPtr& payload) {
          return tamper(ctx.rng(), rate, payload);
        }});
  }
  void validate(const Fault& fault, const ScenarioConfig&) const override {
    if (fault.mutate_rate < 0.0 || fault.mutate_rate > 1.0) {
      bad_param("mutate", "mutate_rate must be in [0, 1]");
    }
  }

 private:
  /// Tampers with one send with probability `rate`: drops it, replaces it
  /// by a GarbagePayload of the same word size, or sends it twice, chosen
  /// uniformly. Draws `uniform` for every send, then `next_below(3)` only
  /// for a tampered one.
  static Verdict tamper(sim::Rng& rng, double rate, sim::PayloadPtr& payload) {
    if (rng.uniform(0.0, 1.0) >= rate) return Verdict::kPass;
    switch (rng.next_below(3)) {
      case 0:  // omission
        return Verdict::kDrop;
      case 1:  // corruption
        payload = sim::make_payload<sim::GarbagePayload>(payload->size_words());
        return Verdict::kReplace;
      default:  // duplication
        return Verdict::kDuplicate;
    }
  }
};

/// "equivocate-scheduled" — everyone sees face 0 (own proposal) until
/// fault.switch_time (< 0 resolves to GST); from then on the upper half is
/// handled by a second stack proposing fault.equivocal_value, which joins
/// the run late with conflicting state.
class ScheduledEquivocateStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    const Time switch_at =
        env.fault.switch_time >= 0 ? env.fault.switch_time : env.cfg.gst;
    const int half = env.cfg.n / 2;
    return std::make_unique<sim::FacedProcess>(
        env.shadow_stack(env.own_proposal()),
        env.shadow_stack(env.fault.equivocal_value),
        [half, switch_at](ProcessId q, Time now) {
          return (now >= switch_at && q >= half) ? 1 : 0;
        });
  }
};

/// Victim choice of one "adaptive" process: counts inbound deliveries per
/// sender until `observe` of them have arrived, then picks the `victims`
/// most talkative senders (ties broken towards lower ids) — an adversary
/// that targets whoever is driving progress. The choice depends only on the
/// delivery order, so it is deterministic per (config, seed).
struct AdaptivePick {
  int victims;
  int observe;  // deliveries still to watch before picking
  std::map<ProcessId, std::uint64_t> counts;
  std::vector<ProcessId> chosen;

  void watch(ProcessId from) {
    if (observe <= 0) return;
    ++counts[from];
    if (--observe > 0) return;
    std::vector<std::pair<ProcessId, std::uint64_t>> ranked(counts.begin(),
                                                            counts.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    const auto k = std::min<std::size_t>(ranked.size(),
                                         static_cast<std::size_t>(victims));
    for (std::size_t i = 0; i < k; ++i) chosen.push_back(ranked[i].first);
  }
};

/// "adaptive" — correct stack that counts inbound deliveries and, after
/// fault.observe of them, permanently omits sends to the fault.victims
/// busiest senders.
class AdaptiveStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    auto pick = std::make_shared<AdaptivePick>(
        AdaptivePick{env.fault.victims, env.fault.observe, {}, {}});
    return std::make_unique<sim::FilterShim>(
        env.recorded_stack(env.own_proposal()),
        Hooks{.inbound = [pick](sim::Context&, ProcessId from,
                                const sim::PayloadPtr&) {
                pick->watch(from);
                return true;
              },
              .outbound = [pick](sim::Context&, ProcessId to,
                                 sim::PayloadPtr&) {
                return contains(pick->chosen, to) ? Verdict::kDrop
                                                  : Verdict::kPass;
              }});
  }
  void validate(const Fault& fault, const ScenarioConfig&) const override {
    if (fault.victims < 0) bad_param("adaptive", "victims must be >= 0");
    if (fault.observe < 1) {
      bad_param("adaptive",
                "observe must be >= 1: victims are picked from the senders "
                "of the first `observe` deliveries, so 0 would pick none");
    }
  }
};

/// Shared partition plan of a collude-equivocate group: the sorted colluder
/// ids, the side assignment for every outsider, and whether the cross-side
/// network holds were already installed (the first builder does it once for
/// the whole group).
struct CollusionPlan {
  std::vector<ProcessId> colluders;
  std::vector<int> side;  // indexed by pid; colluders' own entries unused
  bool holds_installed = false;
};

/// Builds (once per run) the partition plan shared by every process whose
/// fault uses `strategy_name`: colluders are all such processes, outsiders
/// are split lower-half / upper-half into sides 0 and 1.
std::shared_ptr<CollusionPlan> collusion_plan(const StrategyEnv& env,
                                              const char* strategy_name) {
  auto plan = env.shared.get_or_make<CollusionPlan>(
      std::string(strategy_name) + "/plan");
  if (plan->side.empty()) {
    plan->side.assign(static_cast<std::size_t>(env.cfg.n), 0);
    for (const auto& [pid, fault] : env.cfg.faults) {
      if (fault.strategy == strategy_name) plan->colluders.push_back(pid);
    }
    std::vector<ProcessId> outsiders;
    for (ProcessId q = 0; q < env.cfg.n; ++q) {
      const auto it = env.cfg.faults.find(q);
      if (it == env.cfg.faults.end() || it->second.strategy != strategy_name) {
        outsiders.push_back(q);
      }
    }
    const std::size_t half = (outsiders.size() + 1) / 2;
    for (std::size_t i = 0; i < outsiders.size(); ++i) {
      plan->side[static_cast<std::size_t>(outsiders[i])] = i < half ? 0 : 1;
    }
  }
  return plan;
}

/// "collude-equivocate" — the Lemma 2 partition adversary executed by the
/// whole colluding group at once. Every colluder runs two faces (own
/// proposal vs. fault.equivocal_value) with ONE shared side assignment, and
/// colluder-to-colluder traffic is face-tagged so both world views stay
/// mutually consistent across the group. The first builder additionally
/// holds the outsider-to-outsider cross-side links until release_time
/// (default: the horizon) — the network clips every held delivery to
/// max(send, GST) + delta (sim/network.hpp), so the partition heals itself
/// at GST and the schedule stays within the model. In the sound regime
/// (n > 3t) this cannot create disagreement; at n <= 3t each side can reach
/// quorum alone pre-GST, which is exactly the counterexample the adversary
/// search mines for.
class ColludeEquivocateStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    auto plan = collusion_plan(env, "collude-equivocate");
    if (!plan->holds_installed) {
      plan->holds_installed = true;
      const Time release = env.fault.release_time >= 0
                               ? env.fault.release_time
                               : env.cfg.horizon;
      std::vector<ProcessId> side0;
      std::vector<ProcessId> side1;
      for (ProcessId q = 0; q < env.cfg.n; ++q) {
        const auto it = env.cfg.faults.find(q);
        if (it != env.cfg.faults.end() &&
            it->second.strategy == "collude-equivocate") {
          continue;
        }
        (plan->side[static_cast<std::size_t>(q)] == 0 ? side0 : side1)
            .push_back(q);
      }
      env.sim.network().hold_between(side0, side1, release);
    }
    return std::make_unique<sim::FacedProcess>(
        env.shadow_stack(env.own_proposal()),
        env.shadow_stack(env.fault.equivocal_value),
        [plan](ProcessId q, Time) {
          return plan->side[static_cast<std::size_t>(q)];
        },
        plan->colluders);
  }
};

/// Shared state of a vote-withholding collusion group: the victim set, the
/// delivery threshold, and the group-wide tally of deliveries observed so
/// far. Every member holds the same instance (built once per run via the
/// StrategyShared blackboard), so the cut trips for the whole group at one
/// logical instant. Runs are single-threaded, so the bare counter is
/// deterministic — delivery order is a function of (config, seed).
struct WithholdLedger {
  std::vector<ProcessId> victims;
  std::uint64_t threshold = 0;
  std::uint64_t deliveries = 0;
  bool configured = false;  // set by whoever fills victims/threshold first
  [[nodiscard]] bool tripped() const { return deliveries >= threshold; }
};

/// "collude-withhold" — quorum-edge vote withholding: the group behaves
/// correctly while a SHARED tally of inbound deliveries (summed over all
/// members) is below fault.observe; the delivery that trips it makes every
/// member simultaneously stop sending to the fault.victims lowest-id
/// correct processes. The shared trip wire is what a lone "adaptive"
/// process cannot do: all colluding votes vanish from the victims' quorums
/// at one logical instant, mid-protocol.
class ColludeWithholdStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    auto ledger =
        env.shared.get_or_make<WithholdLedger>("collude-withhold/ledger");
    if (!ledger->configured) {
      ledger->configured = true;
      ledger->threshold = static_cast<std::uint64_t>(
          env.fault.observe > 0 ? env.fault.observe : 0);
      int want = env.fault.victims;
      for (ProcessId q = 0; q < env.cfg.n && want > 0; ++q) {
        if (env.cfg.faults.count(q) == 0) {
          ledger->victims.push_back(q);
          --want;
        }
      }
    }
    return std::make_unique<sim::FilterShim>(
        env.recorded_stack(env.own_proposal()),
        Hooks{.inbound = [ledger](sim::Context&, ProcessId,
                                  const sim::PayloadPtr&) {
                ++ledger->deliveries;
                return true;
              },
              .outbound = [ledger](sim::Context&, ProcessId to,
                                   sim::PayloadPtr&) {
                return ledger->tripped() && contains(ledger->victims, to)
                           ? Verdict::kDrop
                           : Verdict::kPass;
              }});
  }
  void validate(const Fault& fault, const ScenarioConfig&) const override {
    if (fault.victims < 0) {
      bad_param("collude-withhold", "victims must be >= 0");
    }
    if (fault.observe < 0) {
      bad_param("collude-withhold", "observe must be >= 0");
    }
  }
};

/// Inbound hook of "forge-qc": a forgery reflex. Every genuine
/// QuorumCertificatePayload it observes (unwrapped through the MuxMsg
/// nesting chain, then re-wrapped in the same chain so the forgeries route
/// to the same protocol layer at every receiver) is answered with two
/// forged broadcast variants: one with an inflated voter bitset (a voter
/// the aggregate does not cover) and one with a tampered aggregate MAC over
/// the genuine voter set. One forgery pair per distinct certificate digest
/// keeps the extra traffic bounded; the self-delivered forgeries re-enter
/// with an already-seen digest, so the reflex can never feed itself. Honest
/// receivers recompute the expected digest and pay one verify_aggregate, so
/// every forgery must be rejected — a run with this fault must be
/// indistinguishable (decisions, agreement, validity) from the
/// corresponding fault-free run.
class QcForger {
 public:
  bool operator()(sim::Context& ctx, ProcessId, const sim::PayloadPtr& m) {
    forge(ctx, m);
    return true;
  }

 private:
  /// Re-wraps a forged leaf in the observed MuxMsg chain, outermost first.
  [[nodiscard]] static sim::PayloadPtr rewrap(
      const std::vector<std::uint32_t>& chain, sim::PayloadPtr forged) {
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      forged = sim::make_payload<sim::MuxMsg>(*it, std::move(forged));
    }
    return forged;
  }

  void forge(sim::Context& ctx, const sim::PayloadPtr& m) {
    std::vector<std::uint32_t> chain;
    const sim::Payload* leaf = m.get();
    while (leaf->mux_child() != sim::Payload::kNotWrapped) {
      // Only MuxMsg answers the routing hook (see Payload::mux_child).
      const auto* mux = static_cast<const sim::MuxMsg*>(leaf);
      chain.push_back(mux->child);
      leaf = mux->inner.get();
    }
    const auto* qc =
        dynamic_cast<const core::QuorumCertificatePayload*>(leaf);
    if (qc == nullptr) return;
    if (!forged_.insert(qc->agg.digest).second) return;
    // Variant 1: inflated bitset — claim the lowest non-voter as a voter.
    // (A full bitset has no non-voter to add; the variant would be the
    // genuine certificate, so it is skipped.)
    crypto::VoterBitset inflated = qc->voters;
    for (ProcessId p = 0; p < inflated.capacity(); ++p) {
      if (!inflated.test(p)) {
        inflated.set(p);
        ctx.broadcast(rewrap(
            chain, sim::make_payload<core::QuorumCertificatePayload>(
                       qc->tag, qc->round, qc->value, std::move(inflated),
                       qc->agg, qc->body)));
        break;
      }
    }
    // Variant 2: tampered aggregate MAC over the genuine voter set.
    crypto::AggregateSignature tampered = qc->agg;
    tampered.mac += 1;
    ctx.broadcast(rewrap(chain,
                         sim::make_payload<core::QuorumCertificatePayload>(
                             qc->tag, qc->round, qc->value, qc->voters,
                             tampered, qc->body)));
  }

  std::set<crypto::Hash> forged_;
};

/// "forge-qc" — correct stack plus the QC forgery reflex above. Only bites
/// under cert_mode=aggregate: in per-vote mode no quorum certificates flow
/// and the stack is simply correct, so the strategy is safe to keep in the
/// default (sound-regime) search pool.
class ForgeQcStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    return std::make_unique<sim::FilterShim>(
        env.recorded_stack(env.own_proposal()),
        Hooks{.inbound = QcForger{}});
  }
};

}  // namespace

template <>
StrategyRegistry& StrategyRegistry::global() {
  static StrategyRegistry* registry = [] {
    auto* r = new StrategyRegistry();
    r->add<SilentStrategy>("silent");
    r->add<CrashStrategy>("crash");
    r->add<EquivocateStrategy>("equivocate");
    r->add<DelayStrategy>("delay");
    r->add<MutateStrategy>("mutate");
    r->add<ScheduledEquivocateStrategy>("equivocate-scheduled");
    r->add<AdaptiveStrategy>("adaptive");
    r->add<ColludeEquivocateStrategy>("collude-equivocate");
    r->add<ColludeWithholdStrategy>("collude-withhold");
    r->add<ForgeQcStrategy>("forge-qc");
    return r;
  }();
  return *registry;
}

}  // namespace valcon::harness
