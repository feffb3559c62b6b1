#include "valcon/consensus/binary_consensus.hpp"

#include "valcon/core/thresholds.hpp"

namespace valcon::consensus {

// ---------------------------------------------------------------- wire

struct BinaryConsensus::MEst final : sim::Payload {
  explicit MEst(bool v) : value(v) {}
  VALCON_PAYLOAD_TYPE("bin/est")
  bool value;
};

struct BinaryConsensus::MProposal final : sim::Payload {
  MProposal(std::int64_t r, bool v, std::int64_t vr)
      : round(r), value(v), valid_round(vr) {}
  VALCON_PAYLOAD_TYPE("bin/proposal")
  std::int64_t round;
  bool value;
  std::int64_t valid_round;
};

struct BinaryConsensus::MPrevote final : sim::Payload {
  MPrevote(std::int64_t r, std::optional<bool> v) : round(r), value(v) {}
  VALCON_PAYLOAD_TYPE("bin/prevote")
  std::int64_t round;
  std::optional<bool> value;
};

struct BinaryConsensus::MPrecommit final : sim::Payload {
  MPrecommit(std::int64_t r, std::optional<bool> v) : round(r), value(v) {}
  VALCON_PAYLOAD_TYPE("bin/precommit")
  std::int64_t round;
  std::optional<bool> value;
};

struct BinaryConsensus::MDecided final : sim::Payload {
  explicit MDecided(bool v) : value(v) {}
  VALCON_PAYLOAD_TYPE("bin/decided")
  bool value;
};

struct BinaryConsensus::MVoteSig final : sim::Payload {
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

// Adds `from` to the sender set of bit `v`. The pair is sized on first
// use, since an instance learns n from its first context.
void add_sender(std::array<crypto::VoterBitset, 2>& senders, bool v,
                ProcessId from, int n) {
  if (senders[0].capacity() == 0) {
    senders = {crypto::VoterBitset(n), crypto::VoterBitset(n)};
  }
  senders[v ? 1 : 0].insert(from);
}

}  // namespace

// ------------------------------------------------------------- codec

sim::PayloadPtr BinaryConsensus::encode(const Wire& wire) {
  const bool bit = wire.value.value_or(false);
  switch (wire.kind) {
    case Wire::Kind::kEst:
      return sim::make_payload<MEst>(bit);
    case Wire::Kind::kProposal:
      return sim::make_payload<MProposal>(wire.round, bit, wire.valid_round);
    case Wire::Kind::kPrevote:
      return sim::make_payload<MPrevote>(wire.round, wire.value);
    case Wire::Kind::kPrecommit:
      return sim::make_payload<MPrecommit>(wire.round, wire.value);
    case Wire::Kind::kDecided:
      return sim::make_payload<MDecided>(bit);
    case Wire::Kind::kVoteSig:
      return sim::make_payload<MVoteSig>(wire.round, wire.step, wire.value,
                                         wire.sig);
  }
  return nullptr;
}

std::optional<BinaryConsensus::Wire> BinaryConsensus::decode(
    const sim::Payload& payload) {
  Wire w;
  if (const auto* est = dynamic_cast<const MEst*>(&payload)) {
    w.kind = Wire::Kind::kEst;
    w.value = est->value;
  } else if (const auto* proposal = dynamic_cast<const MProposal*>(&payload)) {
    w.kind = Wire::Kind::kProposal;
    w.round = proposal->round;
    w.value = proposal->value;
    w.valid_round = proposal->valid_round;
  } else if (const auto* prevote = dynamic_cast<const MPrevote*>(&payload)) {
    w.kind = Wire::Kind::kPrevote;
    w.round = prevote->round;
    w.value = prevote->value;
  } else if (const auto* precommit =
                 dynamic_cast<const MPrecommit*>(&payload)) {
    w.kind = Wire::Kind::kPrecommit;
    w.round = precommit->round;
    w.value = precommit->value;
  } else if (const auto* done = dynamic_cast<const MDecided*>(&payload)) {
    w.kind = Wire::Kind::kDecided;
    w.value = done->value;
  } else if (const auto* vote = dynamic_cast<const MVoteSig*>(&payload)) {
    w.kind = Wire::Kind::kVoteSig;
    w.round = vote->round;
    w.step = vote->step;
    w.value = vote->value;
    w.sig = vote->sig;
  } else {
    return std::nullopt;
  }
  return w;
}

// ------------------------------------------------------------- tallies

BinaryConsensus::RoundState::RoundState(int n)
    : prevotes{crypto::VoterBitset(n), crypto::VoterBitset(n),
               crypto::VoterBitset(n)},
      precommits{crypto::VoterBitset(n), crypto::VoterBitset(n),
                 crypto::VoterBitset(n)},
      participants(n) {}

BinaryConsensus::RoundState& BinaryConsensus::round_state(std::int64_t round,
                                                          int n) {
  return rounds_.try_emplace(round, n).first->second;
}

bool BinaryConsensus::justified(bool v, sim::Context& ctx) const {
  return est_senders_[v ? 1 : 0].count() >= core::plurality(ctx.t());
}

int BinaryConsensus::count_prevotes(std::int64_t round,
                                    std::optional<bool> v) const {
  const auto it = rounds_.find(round);
  return it == rounds_.end() ? 0 : it->second.prevotes[vote_slot(v)].count();
}

void BinaryConsensus::tally_vote(sim::Context& ctx, std::uint32_t step,
                                 std::int64_t round, RoundState& rs,
                                 std::optional<bool> v, ProcessId from) {
  rs.participants.insert(from);
  const bool prevote = step == kStepPrevote;
  crypto::VoterBitset& votes =
      (prevote ? rs.prevotes : rs.precommits)[vote_slot(v)];
  if (!votes.insert(from) || !v.has_value() ||
      votes.count() < core::byz_quorum(ctx.n(), ctx.t())) {
    return;
  }
  const std::pair<std::int64_t, bool> key{round, *v};
  if (prevote) {
    // The highest quorum round wins; within a round, bit 0 wins.
    if (!last_prevote_quorum_.has_value() ||
        round > last_prevote_quorum_->first ||
        (round == last_prevote_quorum_->first && !*v)) {
      last_prevote_quorum_ = key;
    }
  } else if (!first_precommit_quorum_.has_value() ||
             key < *first_precommit_quorum_) {
    first_precommit_quorum_ = key;
  }
}

// ----------------------------------------------------------- lifecycle

void BinaryConsensus::on_start(sim::Context& ctx) {
  started_ = true;
  if (input_.has_value() && !est_broadcast_) {
    est_broadcast_ = true;
    ctx.broadcast(sim::make_payload<MEst>(*input_));
  }
  start_round(ctx, 0);
}

void BinaryConsensus::propose(sim::Context& ctx, bool value) {
  if (input_.has_value()) return;
  input_ = value;
  if (started_ && !est_broadcast_) {
    est_broadcast_ = true;
    ctx.broadcast(sim::make_payload<MEst>(value));
    maybe_send_proposal(ctx);
    poll(ctx);
  }
}

void BinaryConsensus::start_round(sim::Context& ctx, std::int64_t round) {
  if (halted_ || round <= round_) return;
  round_ = round;
  step_ = Step::kPropose;
  maybe_send_proposal(ctx);
  // Propose-step timeout: prevote nil if no acceptable proposal arrives.
  ctx.set_timer(timeout(round, ctx),
                static_cast<std::uint64_t>(round) * 4 + 1);
  poll(ctx);
}

void BinaryConsensus::maybe_send_proposal(sim::Context& ctx) {
  if (halted_ || round_ < 0) return;
  if (proposer_of(round_, ctx.n()) != ctx.id()) return;
  RoundState& rs = round_state(round_, ctx.n());
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

void BinaryConsensus::do_prevote(sim::Context& ctx, std::optional<bool> v) {
  step_ = Step::kPrevote;
  if (cert_mode_ == core::CertMode::kAggregate) {
    send_vote(ctx, kStepPrevote, v);
  } else {
    ctx.broadcast(sim::make_payload<MPrevote>(round_, v));
  }
  ctx.set_timer(timeout(round_, ctx),
                static_cast<std::uint64_t>(round_) * 4 + 2);
}

void BinaryConsensus::do_precommit(sim::Context& ctx, std::optional<bool> v) {
  step_ = Step::kPrecommit;
  if (cert_mode_ == core::CertMode::kAggregate) {
    send_vote(ctx, kStepPrecommit, v);
  } else {
    ctx.broadcast(sim::make_payload<MPrecommit>(round_, v));
  }
  ctx.set_timer(timeout(round_, ctx),
                static_cast<std::uint64_t>(round_) * 4 + 3);
}

void BinaryConsensus::send_vote(sim::Context& ctx, std::uint32_t step,
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

void BinaryConsensus::maybe_certify_votes(sim::Context& ctx, std::int64_t round,
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

void BinaryConsensus::on_vote_cert(sim::Context& ctx,
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
  RoundState& rs = round_state(qc.round, ctx.n());
  for (ProcessId p = 0; p < ctx.n(); ++p) {
    if (qc.voters.test(p)) tally_vote(ctx, step, qc.round, rs, decoded, p);
  }
  poll(ctx);
}

void BinaryConsensus::on_timer(sim::Context& ctx, std::uint64_t tag) {
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

void BinaryConsensus::on_message(sim::Context& ctx, ProcessId from,
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
  // Votes first: they are the commonest deliveries by far.
  if (const auto* prevote = dynamic_cast<const MPrevote*>(m.get())) {
    if (cert_mode_ == core::CertMode::kAggregate) return;
    tally_vote(ctx, kStepPrevote, prevote->round,
               round_state(prevote->round, ctx.n()), prevote->value, from);
    poll(ctx);
    return;
  }
  if (const auto* precommit = dynamic_cast<const MPrecommit*>(m.get())) {
    if (cert_mode_ == core::CertMode::kAggregate) return;
    tally_vote(ctx, kStepPrecommit, precommit->round,
               round_state(precommit->round, ctx.n()), precommit->value, from);
    poll(ctx);
    return;
  }
  if (const auto* done = dynamic_cast<const MDecided*>(m.get())) {
    add_sender(decided_senders_, done->value, from, ctx.n());
    poll(ctx);
    return;
  }
  if (const auto* est = dynamic_cast<const MEst*>(m.get())) {
    add_sender(est_senders_, est->value, from, ctx.n());
    poll(ctx);
    return;
  }
  if (const auto* proposal = dynamic_cast<const MProposal*>(m.get())) {
    if (from != proposer_of(proposal->round, ctx.n())) return;
    RoundState& rs = round_state(proposal->round, ctx.n());
    rs.participants.insert(from);
    if (!rs.proposal_seen) {
      rs.proposal_seen = true;
      rs.proposal = {proposal->value, proposal->valid_round};
    }
    poll(ctx);
    return;
  }
}

// ------------------------------------------------------------- engine

void BinaryConsensus::decide(sim::Context& ctx, bool v) {
  if (decided_.has_value()) return;
  decided_ = v;
  ctx.broadcast(sim::make_payload<MDecided>(v));
  if (on_decide_) on_decide_(ctx, v);
}

void BinaryConsensus::poll(sim::Context& ctx) {
  if (!started_ || round_ < 0 || halted_) return;
  const int n = ctx.n();
  const int t = ctx.t();
  const int quorum = core::byz_quorum(n, t);

  // Decide: t+1 DECIDEDs for a bit (at least one correct process decided
  // it), or 2t+1 precommits for a bit in any round — the least such
  // (round, bit), which first_precommit_quorum_ holds.
  if (!decided_.has_value()) {
    for (const bool b : {false, true}) {
      if (decided_senders_[b ? 1 : 0].count() >= core::plurality(t)) {
        decide(ctx, b);
        break;
      }
    }
  }
  if (!decided_.has_value() && first_precommit_quorum_.has_value()) {
    decide(ctx, first_precommit_quorum_->second);
  }
  // Halt once n-t processes report the decided bit: every correct process
  // has decided, nobody needs our votes anymore.
  if (decided_.has_value() && decided_senders_[*decided_ ? 1 : 0].count() >=
                                  core::quorum_n_minus_t(n, t)) {
    halted_ = true;
    return;
  }

  // Round skip: t+1 distinct participants in a future round.
  for (auto it = rounds_.upper_bound(round_); it != rounds_.end(); ++it) {
    if (it->second.participants.count() >= core::plurality(t)) {
      start_round(ctx, it->first);
      return;
    }
  }

  RoundState& rs = round_state(round_, n);

  // validValue update: 2t+1 prevotes for a bit in a round above validRound.
  // Only the highest such round matters, which last_prevote_quorum_ holds.
  if (last_prevote_quorum_.has_value() &&
      last_prevote_quorum_->first > valid_round_) {
    valid_round_ = last_prevote_quorum_->first;
    valid_value_ = last_prevote_quorum_->second;
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
      if (rs.prevotes[vote_slot(b)].count() >= quorum) {
        locked_value_ = b;
        locked_round_ = round_;
        valid_value_ = b;
        valid_round_ = round_;
        do_precommit(ctx, b);
        poll(ctx);
        return;
      }
    }
    if (rs.prevotes[vote_slot(std::nullopt)].count() >= quorum) {
      do_precommit(ctx, std::nullopt);
      poll(ctx);
      return;
    }
  }

  // Precommit step: a full set of precommits (any mix) ends the round early.
  if (step_ == Step::kPrecommit) {
    int total = 0;
    for (const crypto::VoterBitset& senders : rs.precommits) {
      total += senders.count();
    }
    if (total >= core::quorum_n_minus_t(n, t) &&
        rs.precommits[vote_slot(std::nullopt)].count() >= core::plurality(t)) {
      start_round(ctx, round_ + 1);
      return;
    }
  }
}

}  // namespace valcon::consensus
