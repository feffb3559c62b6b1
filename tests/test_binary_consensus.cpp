// Unit tests: the signature-free binary consensus (the "Binary DBFT"
// substrate of Algorithm 3) — agreement, termination, the justified-value
// validity Algorithm 3 depends on, late proposals, silent faults, and
// Byzantine equivocation — plus a lockstep check of the flat-tally engine
// against a verbatim copy of the set-and-rescan engine it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "valcon/consensus/binary_consensus.hpp"
#include "valcon/core/quorum.hpp"
#include "valcon/core/thresholds.hpp"
#include "valcon/crypto/hash.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/adversary.hpp"
#include "valcon/sim/simulator.hpp"

using namespace valcon;
using namespace valcon::sim;
using consensus::BinaryConsensus;

namespace {

class BinHost final : public Mux {
 public:
  BinHost(std::optional<bool> input, Time propose_at,
          std::map<ProcessId, bool>* decisions)
      : input_(input), propose_at_(propose_at), decisions_(decisions) {
    bin_ = &make_child<BinaryConsensus>([this](Context& ctx, bool v) {
      decisions_->emplace(ctx.id(), v);
    });
  }

 protected:
  void own_start(Context& ctx) override {
    if (!input_.has_value()) return;
    if (propose_at_ <= 0) {
      bin_->propose(child_context(0), *input_);
    } else {
      set_own_timer(ctx, propose_at_, 1);
    }
  }
  void own_timer(Context&, std::uint64_t) override {
    if (input_.has_value()) bin_->propose(child_context(0), *input_);
  }

 private:
  std::optional<bool> input_;
  Time propose_at_;
  std::map<ProcessId, bool>* decisions_;
  BinaryConsensus* bin_;
};

SimConfig cfg(int n, int t, std::uint64_t seed) {
  SimConfig c;
  c.n = n;
  c.t = t;
  c.seed = seed;
  c.net.delta = 1.0;
  return c;
}

struct Setup {
  int n;
  int t;
  std::uint64_t seed;
};

std::map<ProcessId, bool> run_binary(
    const Setup& setup, const std::vector<std::optional<bool>>& inputs,
    const std::vector<ProcessId>& silent = {}, Time late_at = 0.0) {
  Simulator sim(cfg(setup.n, setup.t, setup.seed));
  std::map<ProcessId, bool> decisions;
  for (ProcessId p = 0; p < setup.n; ++p) {
    const bool is_silent =
        std::find(silent.begin(), silent.end(), p) != silent.end();
    if (is_silent) {
      sim.mark_faulty(p);
      sim.add_process(p, std::make_unique<SilentProcess>());
      continue;
    }
    sim.add_process(
        p, std::make_unique<ComponentHost>(std::make_unique<BinHost>(
               inputs[static_cast<std::size_t>(p)], late_at, &decisions)));
  }
  sim.run(1e6);
  for (const ProcessId p : silent) decisions.erase(p);
  return decisions;
}

}  // namespace

TEST(BinaryConsensus, UnanimousOneDecidesOne) {
  const auto decisions = run_binary({4, 1, 1}, {true, true, true, true});
  ASSERT_EQ(decisions.size(), 4u);
  for (const auto& [p, v] : decisions) EXPECT_TRUE(v);
}

TEST(BinaryConsensus, UnanimousZeroDecidesZero) {
  const auto decisions = run_binary({4, 1, 2}, {false, false, false, false});
  ASSERT_EQ(decisions.size(), 4u);
  for (const auto& [p, v] : decisions) EXPECT_FALSE(v);
}

TEST(BinaryConsensus, MixedInputsAgreeOnAProposedValue) {
  const auto decisions = run_binary({4, 1, 3}, {true, false, true, false});
  ASSERT_EQ(decisions.size(), 4u);
  std::optional<bool> seen;
  for (const auto& [p, v] : decisions) {
    if (seen.has_value()) {
      EXPECT_EQ(v, *seen);
    }
    seen = v;
  }
}

TEST(BinaryConsensus, JustifiedValidity_AllCorrectZeroByzantineCannotForceOne) {
  // Three correct processes propose 0; the faulty one is silent. The
  // decision must be 0: 1 is never justified (at most t EST(1) senders).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto decisions =
        run_binary({4, 1, seed}, {false, false, false, std::nullopt}, {3});
    ASSERT_EQ(decisions.size(), 3u) << "seed " << seed;
    for (const auto& [p, v] : decisions) EXPECT_FALSE(v) << "seed " << seed;
  }
}

TEST(BinaryConsensus, ToleratesSilentProposer) {
  // P0 proposes round 0; make it silent — rounds must rotate past it.
  const auto decisions =
      run_binary({4, 1, 4}, {std::nullopt, true, true, true}, {0});
  ASSERT_EQ(decisions.size(), 3u);
  for (const auto& [p, v] : decisions) EXPECT_TRUE(v);
}

TEST(BinaryConsensus, LateProposalsStillTerminate) {
  // Algorithm 3 proposes 0s only after n-t instances decided 1: proposals
  // can arrive long after on_start. Delay all proposals by 30 delta.
  const auto decisions = run_binary({4, 1, 5}, {true, true, false, true}, {},
                                    /*late_at=*/30.0);
  ASSERT_EQ(decisions.size(), 4u);
  std::optional<bool> seen;
  for (const auto& [p, v] : decisions) {
    if (seen.has_value()) {
      EXPECT_EQ(v, *seen);
    }
    seen = v;
  }
}

TEST(BinaryConsensus, EquivocatingProcessCannotBreakAgreement) {
  // A two-faced process proposes 0 to one half and 1 to the other.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Simulator sim(cfg(4, 1, seed));
    std::map<ProcessId, bool> decisions;
    sim.mark_faulty(3);
    for (ProcessId p = 0; p < 3; ++p) {
      sim.add_process(
          p, std::make_unique<ComponentHost>(std::make_unique<BinHost>(
                 p % 2 == 0, 0.0, &decisions)));
    }
    std::map<ProcessId, bool> byz_decisions;
    auto face0 = std::make_unique<ComponentHost>(
        std::make_unique<BinHost>(false, 0.0, &byz_decisions));
    auto face1 = std::make_unique<ComponentHost>(
        std::make_unique<BinHost>(true, 0.0, &byz_decisions));
    sim.add_process(3, std::make_unique<FacedProcess>(
                           std::move(face0), std::move(face1),
                           [](ProcessId p, Time) { return p % 2; }));
    sim.run(1e6);
    ASSERT_EQ(decisions.size(), 3u) << "seed " << seed;
    std::optional<bool> seen;
    for (const auto& [p, v] : decisions) {
      if (seen.has_value()) {
        EXPECT_EQ(v, *seen) << "seed " << seed;
      }
      seen = v;
    }
  }
}

// Parameterized sweep: agreement + termination across system sizes, fault
// patterns and schedules.
class BinarySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BinarySweep, AgreementAndTermination) {
  const auto [n, seed_int] = GetParam();
  const int t = (n - 1) / 3;
  const auto seed = static_cast<std::uint64_t>(seed_int);
  std::vector<std::optional<bool>> inputs;
  for (int p = 0; p < n; ++p) inputs.emplace_back((p + seed_int) % 2 == 0);
  std::vector<ProcessId> silent;
  for (int f = 0; f < t; ++f) silent.push_back(n - 1 - f);
  const auto decisions = run_binary({n, t, seed}, inputs, silent);
  ASSERT_EQ(decisions.size(), static_cast<std::size_t>(n - t));
  std::optional<bool> seen;
  for (const auto& [p, v] : decisions) {
    if (seen.has_value()) {
      EXPECT_EQ(v, *seen);
    }
    seen = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BinarySweep,
                         ::testing::Combine(::testing::Values(4, 7, 10),
                                            ::testing::Range(1, 6)));

// ------------------------------------------------ lockstep reference

namespace {

/// The engine as it was before its tallies went flat, verbatim apart from
/// its name and the codec declarations: std::set tallies keyed through
/// std::map, and poll() rescanning every round for the decide and
/// validValue rules. The lockstep test below drives it next to the real
/// engine; any divergence in sends, timers or decisions fails at the
/// delivery that caused it.
class ReferenceBinaryConsensus final : public sim::Component {
 public:
  using DecideCb = std::function<void(sim::Context&, bool)>;

  /// `instance` names this consensus instance inside its deployment (the
  /// vector-consensus slot index): aggregate-mode vote signatures bind it,
  /// so a certificate from one instance cannot be replayed into another.
  explicit ReferenceBinaryConsensus(
      DecideCb on_decide, core::CertMode cert_mode = core::CertMode::kPerVote,
      int instance = 0)
      : on_decide_(std::move(on_decide)),
        cert_mode_(cert_mode),
        instance_(instance) {}

  /// Proposes a bit. May arrive before or (well) after on_start; processes
  /// participate in rounds regardless, per Algorithm 3's late proposals
  /// ("propose 0 to every instance not yet proposed to").
  void propose(sim::Context& ctx, bool value);

  [[nodiscard]] bool decided() const { return decided_.has_value(); }
  [[nodiscard]] std::optional<bool> decision() const { return decided_; }

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const sim::PayloadPtr& m) override;
  void on_timer(sim::Context& ctx, std::uint64_t tag) override;

  // The test's codec for this copy's payload classes (not part of the
  // copied engine).
  [[nodiscard]] static sim::PayloadPtr encode(const BinaryConsensus::Wire& w);
  [[nodiscard]] static std::optional<BinaryConsensus::Wire> decode(
      const sim::Payload& payload);

 private:
  enum class Step { kPropose, kPrevote, kPrecommit };

  struct MEst;
  struct MProposal;
  struct MPrevote;
  struct MPrecommit;
  struct MDecided;
  struct MVoteSig;

  // QC tags (protocol-local; this Mux child only sees its own traffic).
  static constexpr std::uint32_t kTagPrevoteCert = 1;
  static constexpr std::uint32_t kTagPrecommitCert = 2;
  // Step codes bound into aggregate-mode vote digests.
  static constexpr std::uint32_t kStepPrevote = 0;
  static constexpr std::uint32_t kStepPrecommit = 1;

  struct RoundState {
    std::optional<std::pair<bool, std::int64_t>> proposal;  // (v, validRound)
    bool proposal_seen = false;
    bool proposal_sent = false;
    // prevotes / precommits: value -> senders; nullopt = nil.
    std::map<std::optional<bool>, std::set<ProcessId>> prevotes;
    std::map<std::optional<bool>, std::set<ProcessId>> precommits;
    std::set<ProcessId> participants;  // senders of any message this round
  };

  [[nodiscard]] ProcessId proposer_of(std::int64_t round, int n) const {
    return static_cast<ProcessId>(round % n);
  }
  [[nodiscard]] bool justified(bool v, sim::Context& ctx) const;
  [[nodiscard]] int count_prevotes(std::int64_t round,
                                   std::optional<bool> v) const;
  [[nodiscard]] int count_precommits(std::int64_t round,
                                     std::optional<bool> v) const;

  void start_round(sim::Context& ctx, std::int64_t round);
  void maybe_send_proposal(sim::Context& ctx);
  void poll(sim::Context& ctx);
  void decide(sim::Context& ctx, bool v);
  void do_prevote(sim::Context& ctx, std::optional<bool> v);
  void do_precommit(sim::Context& ctx, std::optional<bool> v);
  // Aggregate-mode helpers: send one signed vote to the round's proposer
  // (or tally the own vote when we are the proposer), certify a quorum and
  // broadcast the certificate, absorb a received certificate's voters into
  // the RoundState tallies.
  void send_vote(sim::Context& ctx, std::uint32_t step, std::optional<bool> v);
  void maybe_certify_votes(sim::Context& ctx, std::int64_t round,
                           std::uint32_t step, std::optional<bool> v);
  void on_vote_cert(sim::Context& ctx,
                    const core::QuorumCertificatePayload& qc);
  [[nodiscard]] double timeout(std::int64_t round, sim::Context& ctx) const {
    return (4.0 + static_cast<double>(round)) * ctx.delta();
  }

  DecideCb on_decide_;
  core::CertMode cert_mode_;
  int instance_;
  // Aggregate-mode proposer state: the vote tally (digests bind instance,
  // round, step and value, so one collector serves every round we lead)
  // and the certificates already broadcast.
  core::QuorumCollector vote_tally_;
  std::set<crypto::Hash> certified_;
  bool started_ = false;
  std::optional<bool> input_;
  bool est_broadcast_ = false;
  std::optional<bool> decided_;

  std::int64_t round_ = -1;
  Step step_ = Step::kPropose;
  std::optional<bool> locked_value_;
  std::int64_t locked_round_ = -1;
  std::optional<bool> valid_value_;
  std::int64_t valid_round_ = -1;

  std::map<std::int64_t, RoundState> rounds_;
  std::set<ProcessId> est_senders_[2];  // who announced 0 / 1

  // Termination gadget: deciders broadcast DECIDED and keep participating
  // (a Byzantine vote can complete a quorum for a single process only, so
  // a decider that went silent could strand the rest one vote short).
  // t+1 matching DECIDEDs are a decision (at least one correct decider);
  // n-t DECIDEDs for the decided value mean every correct process is done,
  // so the instance halts and stops scheduling timers.
  std::set<ProcessId> decided_senders_[2];
  bool halted_ = false;
};

// ---------------------------------------------------------------- wire

struct ReferenceBinaryConsensus::MEst final : sim::Payload {
  explicit MEst(bool v) : value(v) {}
  VALCON_PAYLOAD_TYPE("bin/est")
  bool value;
};

struct ReferenceBinaryConsensus::MProposal final : sim::Payload {
  MProposal(std::int64_t r, bool v, std::int64_t vr)
      : round(r), value(v), valid_round(vr) {}
  VALCON_PAYLOAD_TYPE("bin/proposal")
  std::int64_t round;
  bool value;
  std::int64_t valid_round;
};

struct ReferenceBinaryConsensus::MPrevote final : sim::Payload {
  MPrevote(std::int64_t r, std::optional<bool> v) : round(r), value(v) {}
  VALCON_PAYLOAD_TYPE("bin/prevote")
  std::int64_t round;
  std::optional<bool> value;
};

struct ReferenceBinaryConsensus::MPrecommit final : sim::Payload {
  MPrecommit(std::int64_t r, std::optional<bool> v) : round(r), value(v) {}
  VALCON_PAYLOAD_TYPE("bin/precommit")
  std::int64_t round;
  std::optional<bool> value;
};

struct ReferenceBinaryConsensus::MDecided final : sim::Payload {
  explicit MDecided(bool v) : value(v) {}
  VALCON_PAYLOAD_TYPE("bin/decided")
  bool value;
};

struct ReferenceBinaryConsensus::MVoteSig final : sim::Payload {
  MVoteSig(std::int64_t r, std::uint32_t s, std::optional<bool> v,
           crypto::Signature sig_in)
      : round(r), step(s), value(v), sig(sig_in) {}
  VALCON_PAYLOAD_TYPE("bin/vote-sig")
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  std::int64_t round;
  std::uint32_t step;
  std::optional<bool> value;
  crypto::Signature sig;
};

// ------------------------------------------------------------ helpers

namespace {

// -1 encodes a nil vote, matching QuorumCertificatePayload's convention.
std::int64_t encode_vote(std::optional<bool> v) {
  if (!v.has_value()) return -1;
  return *v ? 1 : 0;
}

bool decode_vote(std::int64_t encoded, std::optional<bool>& out) {
  if (encoded == -1) {
    out = std::nullopt;
    return true;
  }
  if (encoded == 0 || encoded == 1) {
    out = encoded == 1;
    return true;
  }
  return false;  // malformed certificate
}

crypto::Hash vote_digest(int instance, std::int64_t round, std::uint32_t step,
                         std::optional<bool> v) {
  return crypto::Hasher("valcon/bin-vote-sig")
      .add(instance)
      .add(round)
      .add(static_cast<std::int64_t>(step))
      .add(encode_vote(v))
      .finish();
}

}  // namespace

bool ReferenceBinaryConsensus::justified(bool v, sim::Context& ctx) const {
  return static_cast<int>(est_senders_[v ? 1 : 0].size()) >=
         core::plurality(ctx.t());
}

int ReferenceBinaryConsensus::count_prevotes(std::int64_t round,
                                    std::optional<bool> v) const {
  const auto rit = rounds_.find(round);
  if (rit == rounds_.end()) return 0;
  const auto it = rit->second.prevotes.find(v);
  return it == rit->second.prevotes.end()
             ? 0
             : static_cast<int>(it->second.size());
}

int ReferenceBinaryConsensus::count_precommits(std::int64_t round,
                                      std::optional<bool> v) const {
  const auto rit = rounds_.find(round);
  if (rit == rounds_.end()) return 0;
  const auto it = rit->second.precommits.find(v);
  return it == rit->second.precommits.end()
             ? 0
             : static_cast<int>(it->second.size());
}

// ----------------------------------------------------------- lifecycle

void ReferenceBinaryConsensus::on_start(sim::Context& ctx) {
  started_ = true;
  if (input_.has_value() && !est_broadcast_) {
    est_broadcast_ = true;
    ctx.broadcast(sim::make_payload<MEst>(*input_));
  }
  start_round(ctx, 0);
}

void ReferenceBinaryConsensus::propose(sim::Context& ctx, bool value) {
  if (input_.has_value()) return;
  input_ = value;
  if (started_ && !est_broadcast_) {
    est_broadcast_ = true;
    ctx.broadcast(sim::make_payload<MEst>(value));
    maybe_send_proposal(ctx);
    poll(ctx);
  }
}

void ReferenceBinaryConsensus::start_round(sim::Context& ctx, std::int64_t round) {
  if (halted_ || round <= round_) return;
  round_ = round;
  step_ = Step::kPropose;
  maybe_send_proposal(ctx);
  // Propose-step timeout: prevote nil if no acceptable proposal arrives.
  ctx.set_timer(timeout(round, ctx),
                static_cast<std::uint64_t>(round) * 4 + 1);
  poll(ctx);
}

void ReferenceBinaryConsensus::maybe_send_proposal(sim::Context& ctx) {
  if (halted_ || round_ < 0) return;
  if (proposer_of(round_, ctx.n()) != ctx.id()) return;
  RoundState& rs = rounds_[round_];
  if (rs.proposal_sent || rs.proposal_seen) return;
  // Value choice: validValue if set; otherwise the own input, preferring a
  // justified bit so the proposal can gather prevotes.
  std::optional<bool> choice;
  std::int64_t vr = -1;
  if (decided_.has_value() && valid_value_ == decided_) {
    choice = decided_;
    vr = valid_round_;
  } else if (valid_value_.has_value()) {
    choice = valid_value_;
    vr = valid_round_;
  } else if (input_.has_value()) {
    choice = input_;
    if (!justified(*choice, ctx) && justified(!*choice, ctx)) {
      choice = !*choice;
    }
  }
  if (!choice.has_value()) return;
  rs.proposal_sent = true;
  ctx.broadcast(sim::make_payload<MProposal>(round_, *choice, vr));
}

void ReferenceBinaryConsensus::do_prevote(sim::Context& ctx, std::optional<bool> v) {
  step_ = Step::kPrevote;
  if (cert_mode_ == core::CertMode::kAggregate) {
    send_vote(ctx, kStepPrevote, v);
  } else {
    ctx.broadcast(sim::make_payload<MPrevote>(round_, v));
  }
  ctx.set_timer(timeout(round_, ctx),
                static_cast<std::uint64_t>(round_) * 4 + 2);
}

void ReferenceBinaryConsensus::do_precommit(sim::Context& ctx, std::optional<bool> v) {
  step_ = Step::kPrecommit;
  if (cert_mode_ == core::CertMode::kAggregate) {
    send_vote(ctx, kStepPrecommit, v);
  } else {
    ctx.broadcast(sim::make_payload<MPrecommit>(round_, v));
  }
  ctx.set_timer(timeout(round_, ctx),
                static_cast<std::uint64_t>(round_) * 4 + 3);
}

void ReferenceBinaryConsensus::send_vote(sim::Context& ctx, std::uint32_t step,
                                std::optional<bool> v) {
  const crypto::Signature sig =
      ctx.signer().sign(vote_digest(instance_, round_, step, v));
  const ProcessId leader = proposer_of(round_, ctx.n());
  if (leader == ctx.id()) {
    vote_tally_.add(sig);
    maybe_certify_votes(ctx, round_, step, v);
  } else {
    ctx.send(leader, sim::make_payload<MVoteSig>(round_, step, v, sig));
  }
}

void ReferenceBinaryConsensus::maybe_certify_votes(sim::Context& ctx, std::int64_t round,
                                          std::uint32_t step,
                                          std::optional<bool> v) {
  const crypto::Hash digest = vote_digest(instance_, round, step, v);
  if (certified_.contains(digest)) return;
  const int threshold = core::byz_quorum(ctx.n(), ctx.t());
  if (vote_tally_.count(digest) < threshold) return;
  auto cert = core::certify_verified(vote_tally_, ctx.keys(), digest, ctx.n(),
                                     threshold);
  if (!cert) return;
  certified_.insert(digest);
  ctx.broadcast(sim::make_payload<core::QuorumCertificatePayload>(
      step == kStepPrevote ? kTagPrevoteCert : kTagPrecommitCert, round,
      encode_vote(v), std::move(cert->voters), cert->agg));
}

void ReferenceBinaryConsensus::on_vote_cert(sim::Context& ctx,
                                   const core::QuorumCertificatePayload& qc) {
  if (qc.tag != kTagPrevoteCert && qc.tag != kTagPrecommitCert) return;
  std::optional<bool> decoded;
  if (!decode_vote(qc.value, decoded)) return;
  const std::uint32_t step =
      qc.tag == kTagPrevoteCert ? kStepPrevote : kStepPrecommit;
  // Recompute the digest the certified votes must have signed; the carried
  // one is untrusted.
  if (qc.agg.digest != vote_digest(instance_, qc.round, step, decoded)) {
    return;
  }
  if (qc.voters.count() < core::byz_quorum(ctx.n(), ctx.t())) return;
  if (!ctx.keys().verify_aggregate(qc.voters, qc.agg)) return;
  RoundState& rs = rounds_[qc.round];
  std::set<ProcessId>& votes = step == kStepPrevote ? rs.prevotes[decoded]
                                                    : rs.precommits[decoded];
  for (ProcessId p = 0; p < ctx.n(); ++p) {
    if (qc.voters.test(p)) {
      votes.insert(p);
      rs.participants.insert(p);
    }
  }
  poll(ctx);
}

void ReferenceBinaryConsensus::on_timer(sim::Context& ctx, std::uint64_t tag) {
  if (halted_) return;
  const auto round = static_cast<std::int64_t>(tag / 4);
  const std::uint64_t kind = tag % 4;
  if (round != round_) return;  // stale
  if (kind == 1 && step_ == Step::kPropose) {
    do_prevote(ctx, std::nullopt);
    poll(ctx);
  } else if (kind == 2 && step_ == Step::kPrevote) {
    do_precommit(ctx, std::nullopt);
    poll(ctx);
  } else if (kind == 3 && step_ == Step::kPrecommit) {
    start_round(ctx, round_ + 1);
  }
}

// ------------------------------------------------------------- messages

void ReferenceBinaryConsensus::on_message(sim::Context& ctx, ProcessId from,
                                 const sim::PayloadPtr& m) {
  if (halted_) return;
  if (cert_mode_ == core::CertMode::kAggregate) {
    if (const auto* vote = dynamic_cast<const MVoteSig*>(m.get())) {
      // Only the round's proposer tallies votes, and only votes whose
      // signature is shaped right: signed by the network-level sender over
      // exactly the digest the claimed (round, step, value) implies. The
      // MAC itself is checked once, at certify time.
      if (proposer_of(vote->round, ctx.n()) != ctx.id()) return;
      if (vote->sig.signer != from) return;
      if (vote->sig.digest !=
          vote_digest(instance_, vote->round, vote->step, vote->value)) {
        return;
      }
      vote_tally_.add(vote->sig);
      maybe_certify_votes(ctx, vote->round, vote->step, vote->value);
      return;
    }
    if (const auto* qc =
            dynamic_cast<const core::QuorumCertificatePayload*>(m.get())) {
      on_vote_cert(ctx, *qc);
      return;
    }
  }
  if (const auto* done = dynamic_cast<const MDecided*>(m.get())) {
    decided_senders_[done->value ? 1 : 0].insert(from);
    poll(ctx);
    return;
  }
  if (const auto* est = dynamic_cast<const MEst*>(m.get())) {
    est_senders_[est->value ? 1 : 0].insert(from);
    poll(ctx);
    return;
  }
  if (const auto* proposal = dynamic_cast<const MProposal*>(m.get())) {
    if (from != proposer_of(proposal->round, ctx.n())) return;
    RoundState& rs = rounds_[proposal->round];
    rs.participants.insert(from);
    if (!rs.proposal_seen) {
      rs.proposal_seen = true;
      rs.proposal = {proposal->value, proposal->valid_round};
    }
    poll(ctx);
    return;
  }
  if (const auto* prevote = dynamic_cast<const MPrevote*>(m.get())) {
    if (cert_mode_ == core::CertMode::kAggregate) return;
    RoundState& rs = rounds_[prevote->round];
    rs.participants.insert(from);
    rs.prevotes[prevote->value].insert(from);
    poll(ctx);
    return;
  }
  if (const auto* precommit = dynamic_cast<const MPrecommit*>(m.get())) {
    if (cert_mode_ == core::CertMode::kAggregate) return;
    RoundState& rs = rounds_[precommit->round];
    rs.participants.insert(from);
    rs.precommits[precommit->value].insert(from);
    poll(ctx);
    return;
  }
}

// ------------------------------------------------------------- engine

void ReferenceBinaryConsensus::decide(sim::Context& ctx, bool v) {
  if (decided_.has_value()) return;
  decided_ = v;
  ctx.broadcast(sim::make_payload<MDecided>(v));
  if (on_decide_) on_decide_(ctx, v);
}

void ReferenceBinaryConsensus::poll(sim::Context& ctx) {
  if (!started_ || round_ < 0 || halted_) return;
  const int n = ctx.n();
  const int t = ctx.t();
  const int quorum = core::byz_quorum(n, t);

  // Decide: 2t+1 precommits for a bit in any round, or t+1 DECIDEDs
  // (at least one correct process decided that bit).
  if (!decided_.has_value()) {
    for (const bool b : {false, true}) {
      if (static_cast<int>(decided_senders_[b ? 1 : 0].size()) >=
          core::plurality(t)) {
        decide(ctx, b);
        break;
      }
    }
  }
  if (!decided_.has_value()) {
    for (const auto& [round, rs] : rounds_) {
      for (const bool b : {false, true}) {
        const auto it = rs.precommits.find(b);
        if (it != rs.precommits.end() &&
            static_cast<int>(it->second.size()) >= quorum) {
          decide(ctx, b);
          break;
        }
      }
      if (decided_.has_value()) break;
    }
  }
  // Halt once n-t processes report the decided bit: every correct process
  // has decided, nobody needs our votes anymore.
  if (decided_.has_value()) {
    const std::size_t idx = *decided_ ? 1 : 0;
    if (static_cast<int>(decided_senders_[idx].size()) >=
        core::quorum_n_minus_t(n, t)) {
      halted_ = true;
      return;
    }
  }

  // Round skip: t+1 distinct participants in a future round.
  for (auto it = rounds_.upper_bound(round_); it != rounds_.end(); ++it) {
    if (static_cast<int>(it->second.participants.size()) >=
        core::plurality(t)) {
      start_round(ctx, it->first);
      return;
    }
  }

  RoundState& rs = rounds_[round_];

  // validValue update: 2t+1 prevotes for a bit, any round.
  for (const auto& [round, state] : rounds_) {
    for (const bool b : {false, true}) {
      const auto it = state.prevotes.find(b);
      if (it != state.prevotes.end() &&
          static_cast<int>(it->second.size()) >= quorum &&
          round > valid_round_) {
        valid_value_ = b;
        valid_round_ = round;
      }
    }
  }

  // Propose step: evaluate the proposal acceptance rules.
  if (step_ == Step::kPropose && rs.proposal.has_value()) {
    const auto [v, vr] = *rs.proposal;
    bool accept = false;
    if (justified(v, ctx)) {
      if (vr < 0) {
        accept = locked_round_ == -1 || locked_value_ == v;
      } else if (vr < round_ && count_prevotes(vr, v) >= quorum) {
        accept = locked_round_ <= vr || locked_value_ == v;
      }
    }
    if (accept) {
      do_prevote(ctx, v);
      poll(ctx);
      return;
    }
  }

  // Prevote step: 2t+1 matching prevotes lock and precommit; 2t+1 nil
  // prevotes precommit nil.
  if (step_ == Step::kPrevote) {
    for (const bool b : {false, true}) {
      if (count_prevotes(round_, b) >= quorum) {
        locked_value_ = b;
        locked_round_ = round_;
        valid_value_ = b;
        valid_round_ = round_;
        do_precommit(ctx, b);
        poll(ctx);
        return;
      }
    }
    if (count_prevotes(round_, std::nullopt) >= quorum) {
      do_precommit(ctx, std::nullopt);
      poll(ctx);
      return;
    }
  }

  // Precommit step: a full set of precommits (any mix) ends the round early.
  if (step_ == Step::kPrecommit) {
    int total = 0;
    for (const auto& [v, senders] : rs.precommits) {
      total += static_cast<int>(senders.size());
    }
    if (total >= core::quorum_n_minus_t(n, t) &&
        count_precommits(round_, std::nullopt) >= core::plurality(t)) {
      start_round(ctx, round_ + 1);
      return;
    }
  }
}

sim::PayloadPtr ReferenceBinaryConsensus::encode(
    const BinaryConsensus::Wire& w) {
  using Kind = BinaryConsensus::Wire::Kind;
  const bool bit = w.value.value_or(false);
  switch (w.kind) {
    case Kind::kEst:
      return sim::make_payload<MEst>(bit);
    case Kind::kProposal:
      return sim::make_payload<MProposal>(w.round, bit, w.valid_round);
    case Kind::kPrevote:
      return sim::make_payload<MPrevote>(w.round, w.value);
    case Kind::kPrecommit:
      return sim::make_payload<MPrecommit>(w.round, w.value);
    case Kind::kDecided:
      return sim::make_payload<MDecided>(bit);
    case Kind::kVoteSig:
      return sim::make_payload<MVoteSig>(w.round, w.step, w.value, w.sig);
  }
  return nullptr;
}

std::optional<BinaryConsensus::Wire> ReferenceBinaryConsensus::decode(
    const sim::Payload& payload) {
  using Kind = BinaryConsensus::Wire::Kind;
  BinaryConsensus::Wire w;
  if (const auto* est = dynamic_cast<const MEst*>(&payload)) {
    w.kind = Kind::kEst;
    w.value = est->value;
  } else if (const auto* proposal = dynamic_cast<const MProposal*>(&payload)) {
    w.kind = Kind::kProposal;
    w.round = proposal->round;
    w.value = proposal->value;
    w.valid_round = proposal->valid_round;
  } else if (const auto* prevote = dynamic_cast<const MPrevote*>(&payload)) {
    w.kind = Kind::kPrevote;
    w.round = prevote->round;
    w.value = prevote->value;
  } else if (const auto* precommit =
                 dynamic_cast<const MPrecommit*>(&payload)) {
    w.kind = Kind::kPrecommit;
    w.round = precommit->round;
    w.value = precommit->value;
  } else if (const auto* done = dynamic_cast<const MDecided*>(&payload)) {
    w.kind = Kind::kDecided;
    w.value = done->value;
  } else if (const auto* vote = dynamic_cast<const MVoteSig*>(&payload)) {
    w.kind = Kind::kVoteSig;
    w.round = vote->round;
    w.step = vote->step;
    w.value = vote->value;
    w.sig = vote->sig;
  } else {
    return std::nullopt;
  }
  return w;
}

using Wire = BinaryConsensus::Wire;
using Decoder = std::optional<Wire> (*)(const sim::Payload&);

std::string vote_text(std::optional<bool> v) {
  return v.has_value() ? (*v ? "1" : "0") : "nil";
}

/// One send, rendered field by field so two engines' logs compare as
/// strings and a mismatch prints readably.
std::string describe(const sim::Payload& payload, Decoder decode) {
  std::ostringstream out;
  if (const auto* qc =
          dynamic_cast<const core::QuorumCertificatePayload*>(&payload)) {
    out << "qc tag=" << qc->tag << " r=" << qc->round << " v=" << qc->value
        << " voters=";
    for (ProcessId p = 0; p < qc->voters.capacity(); ++p) {
      if (qc->voters.test(p)) out << p << ",";
    }
    out << " agg=" << qc->agg.mac << " words=" << qc->size_words();
    return out.str();
  }
  const std::optional<Wire> w = decode(payload);
  if (!w.has_value()) return std::string("unknown ") + payload.type_name();
  out << payload.type_name() << " r=" << w->round
      << " v=" << vote_text(w->value) << " vr=" << w->valid_round
      << " step=" << w->step << " signer=" << w->sig.signer
      << " mac=" << w->sig.mac << " words=" << payload.size_words();
  return out.str();
}

/// A Context that records every send, timer and decision as a line of
/// text. Timers are also kept as tags so a script can fire them.
class RecordingContext final : public Context {
 public:
  RecordingContext(ProcessId id, int n, int t, const crypto::KeyRegistry& keys,
                   Decoder decode)
      : id_(id), n_(n), t_(t), keys_(keys), signer_(keys.signer_for(id)),
        rng_(99), decode_(decode) {}

  [[nodiscard]] Time now() const override { return 0.0; }
  [[nodiscard]] ProcessId id() const override { return id_; }
  [[nodiscard]] int n() const override { return n_; }
  [[nodiscard]] int t() const override { return t_; }
  [[nodiscard]] Time delta() const override { return 1.0; }
  void send(ProcessId to, PayloadPtr payload) override {
    log.push_back("send " + std::to_string(to) + " " +
                  describe(*payload, decode_));
  }
  void set_timer(Time delay, std::uint64_t tag) override {
    std::ostringstream out;
    out << "timer delay=" << delay << " tag=" << tag;
    log.push_back(out.str());
    timers.push_back(tag);
  }
  [[nodiscard]] const crypto::KeyRegistry& keys() const override {
    return keys_;
  }
  [[nodiscard]] const crypto::Signer& signer() const override {
    return signer_;
  }
  [[nodiscard]] Rng& rng() override { return rng_; }

  std::vector<std::string> log;
  std::vector<std::uint64_t> timers;

 private:
  ProcessId id_;
  int n_;
  int t_;
  const crypto::KeyRegistry& keys_;
  crypto::Signer signer_;
  Rng rng_;
  Decoder decode_;
};

struct LockstepCase {
  int n;
  int t;
  core::CertMode mode;
  std::uint64_t seed;
  int ops;
};

/// Drives the real engine and the reference copy through one seeded
/// script and requires identical logs after every step.
class Lockstep {
 public:
  static constexpr int kInstance = 3;

  explicit Lockstep(const LockstepCase& c)
      : c_(c),
        id_(static_cast<ProcessId>(c.seed % static_cast<std::uint64_t>(c.n))),
        keys_(c.n, core::quorum_n_minus_t(c.n, c.t), c.seed),
        real_ctx_(id_, c.n, c.t, keys_, &BinaryConsensus::decode),
        ref_ctx_(id_, c.n, c.t, keys_, &ReferenceBinaryConsensus::decode),
        real_([this](Context&, bool v) { note_decide(real_ctx_, v); },
              c.mode, kInstance),
        ref_([this](Context&, bool v) { note_decide(ref_ctx_, v); }, c.mode,
             kInstance),
        rng_(c.seed * 7919 + static_cast<std::uint64_t>(c.n)) {}

  /// Runs the script; true iff the engines decided.
  bool run() {
    const int start_at = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(c_.ops / 4 + 1)));
    const int propose_at = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(c_.ops / 2 + 1)));
    for (op_ = 0; op_ < c_.ops; ++op_) {
      if (op_ == start_at) {
        real_.on_start(real_ctx_);
        ref_.on_start(ref_ctx_);
        check("on_start");
      }
      if (op_ == propose_at) {
        const bool bit = rng_.next_below(2) == 1;
        real_.propose(real_ctx_, bit);
        ref_.propose(ref_ctx_, bit);
        check("propose");
      }
      step();
      if (::testing::Test::HasFatalFailure()) break;
    }
    return real_.decided();
  }

 private:
  static void note_decide(RecordingContext& ctx, bool v) {
    ctx.log.push_back(std::string("decide ") + (v ? "1" : "0"));
  }

  [[nodiscard]] int quorum() const { return core::byz_quorum(c_.n, c_.t); }

  [[nodiscard]] ProcessId any_sender() {
    return static_cast<ProcessId>(
        rng_.next_below(static_cast<std::uint64_t>(c_.n)));
  }

  [[nodiscard]] std::optional<bool> any_vote() {
    switch (rng_.next_below(3)) {
      case 0:
        return std::nullopt;
      case 1:
        return false;
      default:
        return true;
    }
  }

  /// Mostly rounds near the engines' current one (the highest round they
  /// armed a timer for); sometimes negative or far in the future.
  [[nodiscard]] std::int64_t any_round() {
    std::int64_t top = 0;
    for (const std::uint64_t tag : real_ctx_.timers) {
      top = std::max(top, static_cast<std::int64_t>(tag / 4));
    }
    switch (rng_.next_below(16)) {
      case 0:
        return -1 - static_cast<std::int64_t>(rng_.next_below(4));
      case 1:
        return std::int64_t{1} << 40;
      case 2:
        return top + 50 + static_cast<std::int64_t>(rng_.next_below(4));
      default:
        return top - 2 + static_cast<std::int64_t>(rng_.next_below(6));
    }
  }

  [[nodiscard]] static crypto::Hash vote_digest(std::int64_t round,
                                                std::uint32_t step,
                                                std::optional<bool> v) {
    return crypto::Hasher("valcon/bin-vote-sig")
        .add(kInstance)
        .add(round)
        .add(static_cast<std::int64_t>(step))
        .add(static_cast<std::int64_t>(v.has_value() ? (*v ? 1 : 0) : -1))
        .finish();
  }

  void deliver(ProcessId from, const Wire& w) {
    if (::testing::Test::HasFatalFailure()) return;
    history_.emplace_back(from, w);
    real_.on_message(real_ctx_, from, BinaryConsensus::encode(w));
    ref_.on_message(ref_ctx_, from, ReferenceBinaryConsensus::encode(w));
    check("deliver from " + std::to_string(from));
  }

  void deliver_shared(ProcessId from, const PayloadPtr& payload) {
    if (::testing::Test::HasFatalFailure()) return;
    real_.on_message(real_ctx_, from, payload);
    ref_.on_message(ref_ctx_, from, payload);
    check("deliver certificate from " + std::to_string(from));
  }

  /// Prevotes or precommits for one (round, value) from a random set of
  /// senders around the quorum size, possibly one short of it.
  void flood(Wire::Kind kind, std::int64_t round, std::optional<bool> v) {
    std::vector<ProcessId> senders(static_cast<std::size_t>(c_.n));
    for (ProcessId p = 0; p < c_.n; ++p) {
      senders[static_cast<std::size_t>(p)] = p;
    }
    for (std::size_t i = senders.size(); i > 1; --i) {
      std::swap(senders[i - 1], senders[rng_.next_below(i)]);
    }
    const int want = std::min(
        c_.n, quorum() - 1 + static_cast<int>(rng_.next_below(3)));
    for (int i = 0; i < want; ++i) {
      Wire w;
      w.kind = kind;
      w.round = round;
      w.value = v;
      deliver(senders[static_cast<std::size_t>(i)], w);
    }
  }

  /// A quorum certificate over a random voter set; `forge` picks one of
  /// the ways a certificate can be malformed.
  void certificate() {
    const std::uint32_t step = static_cast<std::uint32_t>(rng_.next_below(2));
    const std::int64_t round = any_round();
    const std::optional<bool> v = any_vote();
    crypto::VoterBitset voters(c_.n);
    std::vector<crypto::Signature> sigs;
    const int size = std::min(
        c_.n, quorum() - 1 + static_cast<int>(rng_.next_below(3)));
    while (voters.count() < size) {
      const ProcessId p = any_sender();
      if (voters.insert(p)) {
        sigs.push_back(keys_.signer_for(p).sign(vote_digest(round, step, v)));
      }
    }
    std::optional<crypto::AggregateSignature> agg = crypto::aggregate(sigs);
    ASSERT_TRUE(agg.has_value());
    std::uint32_t tag = step + 1;
    std::int64_t value = v.has_value() ? (*v ? 1 : 0) : -1;
    switch (rng_.next_below(8)) {
      case 0:
        agg->mac += 1;  // tampered aggregate
        break;
      case 1:
        tag = 7;  // not a binary-consensus step
        break;
      case 2:
        value = 5;  // malformed vote encoding
        break;
      default:
        break;
    }
    deliver_shared(any_sender(),
                   sim::make_payload<core::QuorumCertificatePayload>(
                       tag, round, value, std::move(voters), *agg));
  }

  /// A signed aggregate-mode vote for a round we lead, sometimes signed
  /// by someone other than its sender.
  void vote_sig() {
    Wire w;
    w.kind = Wire::Kind::kVoteSig;
    w.round = id_ + c_.n * static_cast<std::int64_t>(rng_.next_below(4));
    w.step = static_cast<std::uint32_t>(rng_.next_below(2));
    w.value = any_vote();
    const ProcessId from = any_sender();
    const ProcessId signer = rng_.next_below(8) == 0 ? any_sender() : from;
    w.sig = keys_.signer_for(signer).sign(vote_digest(w.round, w.step, w.value));
    deliver(from, w);
  }

  void step() {
    const std::uint64_t pick = rng_.next_below(64);
    const bool aggregate = c_.mode == core::CertMode::kAggregate;
    if (pick < 10 && !real_ctx_.timers.empty()) {
      const std::uint64_t tag =
          real_ctx_.timers[rng_.next_below(real_ctx_.timers.size())];
      real_.on_timer(real_ctx_, tag);
      ref_.on_timer(ref_ctx_, tag);
      check("timer " + std::to_string(tag));
    } else if (pick < 16) {
      flood(Wire::Kind::kPrevote, any_round(), any_vote());
    } else if (pick < 19) {
      // Mostly nil: a bit quorum decides, which ends the decide rule's
      // part of the script.
      const std::optional<bool> v =
          rng_.next_below(2) == 0 ? std::nullopt : any_vote();
      flood(Wire::Kind::kPrecommit, any_round(), v);
    } else if (pick < 21) {
      // Both bits reach a prevote quorum in one round: the two quorums
      // overlap, so the senders in both equivocate.
      const std::int64_t round = any_round();
      flood(Wire::Kind::kPrevote, round, false);
      flood(Wire::Kind::kPrevote, round, true);
    } else if (pick < 25 && !history_.empty()) {
      const auto [from, w] = history_[rng_.next_below(history_.size())];
      deliver(from, w);  // a duplicate
    } else if (pick < 29 && aggregate) {
      certificate();
    } else if (pick < 33 && aggregate) {
      vote_sig();
    } else {
      single();
    }
  }

  /// One message of any kind from one sender. DECIDED stays rare and late:
  /// n-t of them halt the engine, which ends the script's reach.
  void single() {
    Wire w;
    const std::uint64_t kind = rng_.next_below(20);
    if (kind == 0 && op_ > c_.ops / 2) {
      w.kind = Wire::Kind::kDecided;
      w.value = rng_.next_below(2) == 1;
    } else if (kind < 5) {
      w.kind = Wire::Kind::kEst;
      w.value = rng_.next_below(2) == 1;
    } else if (kind < 10) {
      w.kind = Wire::Kind::kProposal;
      w.round = any_round();
      w.value = rng_.next_below(2) == 1;
      w.valid_round = static_cast<std::int64_t>(rng_.next_below(4)) - 1;
    } else if (kind < 15) {
      w.kind = Wire::Kind::kPrevote;
      w.round = any_round();
      w.value = any_vote();
    } else {
      w.kind = Wire::Kind::kPrecommit;
      w.round = any_round();
      w.value = any_vote();
    }
    // Proposals only count from the round's proposer; aim most at it.
    const ProcessId from =
        w.kind == Wire::Kind::kProposal && rng_.next_below(4) != 0
            ? static_cast<ProcessId>(((w.round % c_.n) + c_.n) % c_.n)
            : any_sender();
    deliver(from, w);
  }

  /// Compares what both engines did since the last check, then drops it.
  void check(const std::string& what) {
    ASSERT_EQ(real_ctx_.log, ref_ctx_.log)
        << "n=" << c_.n << " t=" << c_.t
        << " mode=" << core::cert_mode_token(c_.mode) << " seed=" << c_.seed
        << " op " << op_ << ": " << what;
    ASSERT_EQ(real_.decision(), ref_.decision());
    real_ctx_.log.clear();
    ref_ctx_.log.clear();
  }

  LockstepCase c_;
  ProcessId id_;
  crypto::KeyRegistry keys_;
  RecordingContext real_ctx_;
  RecordingContext ref_ctx_;
  BinaryConsensus real_;
  ReferenceBinaryConsensus ref_;
  Rng rng_;
  int op_ = 0;
  std::vector<std::pair<ProcessId, Wire>> history_;
};

}  // namespace

struct LockstepSize {
  int n;
  int t;
  core::CertMode mode;
};

void PrintTo(const LockstepSize& s, std::ostream* os) {
  *os << "n=" << s.n << " t=" << s.t << " " << core::cert_mode_token(s.mode);
}

class BinaryLockstep : public ::testing::TestWithParam<LockstepSize> {};

TEST_P(BinaryLockstep, MatchesTheReferenceEngineOnSeededScripts) {
  const LockstepSize size = GetParam();
  const int ops = size.n > 64 ? 120 : 600;
  int decided = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    decided += Lockstep(LockstepCase{size.n, size.t, size.mode, seed, ops})
                   .run();
    if (HasFatalFailure()) return;
  }
  // The scripts must reach the decide rule, or they test little.
  EXPECT_GT(decided, 0);
}

// (3, 1) and (4, 2) are n <= 3t; n = 130 runs voter sets wider than the
// bitset's inline words.
INSTANTIATE_TEST_SUITE_P(
    Sizes, BinaryLockstep,
    ::testing::Values(LockstepSize{3, 1, core::CertMode::kPerVote},
                      LockstepSize{3, 1, core::CertMode::kAggregate},
                      LockstepSize{4, 1, core::CertMode::kPerVote},
                      LockstepSize{4, 1, core::CertMode::kAggregate},
                      LockstepSize{4, 2, core::CertMode::kPerVote},
                      LockstepSize{4, 2, core::CertMode::kAggregate},
                      LockstepSize{7, 2, core::CertMode::kPerVote},
                      LockstepSize{7, 2, core::CertMode::kAggregate},
                      LockstepSize{130, 43, core::CertMode::kPerVote},
                      LockstepSize{130, 43, core::CertMode::kAggregate}),
    [](const ::testing::TestParamInfo<LockstepSize>& param_info) {
      const LockstepSize& s = param_info.param;
      return "n" + std::to_string(s.n) + "_t" + std::to_string(s.t) + "_" +
             (s.mode == core::CertMode::kPerVote ? "per_vote" : "aggregate");
    });
