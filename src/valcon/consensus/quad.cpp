#include "valcon/consensus/quad.hpp"

#include "valcon/core/thresholds.hpp"

namespace valcon::consensus {

// ---------------------------------------------------------------- wire

namespace {

// Extra wire words an aggregate-backend QC costs over the single word the
// threshold-signature backend pays (the voter bitset). Zero in per-vote
// mode, keeping that mode's accounting — and the pinned sweeps — intact.
std::size_t extra_qc_words(const QuorumCert& qc) {
  return qc.aggregate ? qc.voters.words().size() : 0;
}

std::size_t extra_qc_words(const std::optional<QuorumCert>& qc) {
  return qc.has_value() ? extra_qc_words(*qc) : 0;
}

}  // namespace

struct Quad::MViewChange final : sim::Payload {
  MViewChange(std::int64_t v, std::optional<QuorumCert> qc_in,
              QuadProposalPtr value_in)
      : view(v), qc(std::move(qc_in)), value(std::move(value_in)) {}
  VALCON_PAYLOAD_TYPE("quad/view-change")
  [[nodiscard]] std::size_t size_words() const override {
    return 2 + (value ? value->size_words() : 0) + extra_qc_words(qc);
  }
  std::int64_t view;
  std::optional<QuorumCert> qc;
  QuadProposalPtr value;  // the value certified by qc, if any
};

struct Quad::MPropose final : sim::Payload {
  MPropose(std::int64_t v, QuadProposalPtr value_in,
           std::optional<QuorumCert> justify_in)
      : view(v), value(std::move(value_in)), justify(std::move(justify_in)) {}
  VALCON_PAYLOAD_TYPE("quad/propose")
  [[nodiscard]] std::size_t size_words() const override {
    return 2 + (value ? value->size_words() : 0) + extra_qc_words(justify);
  }
  std::int64_t view;
  QuadProposalPtr value;
  std::optional<QuorumCert> justify;
};

struct Quad::MPrepareVote final : sim::Payload {
  MPrepareVote(std::int64_t v, crypto::Hash d, crypto::Signature s)
      : view(v), digest(d), partial(s) {}
  VALCON_PAYLOAD_TYPE("quad/prepare-vote")
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  std::int64_t view;
  crypto::Hash digest;
  crypto::Signature partial;
};

struct Quad::MPrecommit final : sim::Payload {
  MPrecommit(std::int64_t v, QuadProposalPtr value_in, QuorumCert qc_in)
      : view(v), value(std::move(value_in)), qc(std::move(qc_in)) {}
  VALCON_PAYLOAD_TYPE("quad/precommit")
  [[nodiscard]] std::size_t size_words() const override {
    return 2 + (value ? value->size_words() : 0) + extra_qc_words(qc);
  }
  std::int64_t view;
  QuadProposalPtr value;
  QuorumCert qc;
};

struct Quad::MCommitVote final : sim::Payload {
  MCommitVote(std::int64_t v, crypto::Hash d, crypto::Signature s)
      : view(v), digest(d), partial(s) {}
  VALCON_PAYLOAD_TYPE("quad/commit-vote")
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  std::int64_t view;
  crypto::Hash digest;
  crypto::Signature partial;
};

struct Quad::MDecide final : sim::Payload {
  MDecide(QuadProposalPtr value_in, QuorumCert qc_in)
      : value(std::move(value_in)), qc(std::move(qc_in)) {}
  VALCON_PAYLOAD_TYPE("quad/decide")
  [[nodiscard]] std::size_t size_words() const override {
    return 2 + (value ? value->size_words() : 0) + extra_qc_words(qc);
  }
  QuadProposalPtr value;
  QuorumCert qc;
};

struct Quad::MEpochOver final : sim::Payload {
  MEpochOver(std::int64_t e, crypto::Signature s) : epoch(e), partial(s) {}
  VALCON_PAYLOAD_TYPE("quad/epoch-over")
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  std::int64_t epoch;
  crypto::Signature partial;
};

struct Quad::MEpochCert final : sim::Payload {
  MEpochCert(std::int64_t e, crypto::ThresholdSignature s)
      : epoch(e), tsig(s) {}
  VALCON_PAYLOAD_TYPE("quad/epoch-cert")
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  std::int64_t epoch;
  crypto::ThresholdSignature tsig;
};

// ------------------------------------------------------------- digests

crypto::Hash Quad::phase_digest(const char* phase, std::int64_t view,
                                const crypto::Hash& value) const {
  crypto::Hasher h("valcon/quad-phase");
  h.add(std::string_view(phase)).add(view).add(value);
  return h.finish();
}

crypto::Hash Quad::epoch_digest(std::int64_t epoch) const {
  crypto::Hasher h("valcon/quad-epoch");
  h.add(epoch);
  return h.finish();
}

namespace {

/// Near-miss report for a QC just formed on `winner` (sim/metrics.hpp:
/// NearMiss); an adversary that split the voters shows up as a small
/// margin / nonzero conflict count.
void report_quorum(sim::Context& ctx, const core::QuorumCollector& votes,
                   const crypto::Hash& winner) {
  const auto [margin, conflicting] = votes.rivalry(winner);
  ctx.note_quorum(margin, conflicting);
}

/// Validates either QC representation against the expected phase digest.
/// Both backends cost one signature check; the aggregate form additionally
/// pins the quorum size, which the threshold scheme bakes into the key.
bool valid_qc(sim::Context& ctx, const QuorumCert& qc,
              const crypto::Hash& expected) {
  if (qc.aggregate) {
    return qc.agg.digest == expected &&
           qc.voters.count() >=
               core::quorum_n_minus_t(ctx.n(), ctx.t()) &&
           ctx.keys().verify_aggregate(qc.voters, qc.agg);
  }
  return qc.tsig.digest == expected && ctx.keys().verify(qc.tsig);
}

}  // namespace

bool Quad::valid_prepare_qc(sim::Context& ctx, const QuorumCert& qc) const {
  return valid_qc(ctx, qc, phase_digest("prepare", qc.view, qc.value_digest));
}

bool Quad::valid_commit_qc(sim::Context& ctx, const QuorumCert& qc) const {
  return valid_qc(ctx, qc, phase_digest("commit", qc.view, qc.value_digest));
}

// ------------------------------------------------------------ lifecycle

namespace {

// View duration, in multiples of delta.
constexpr double kViewDurationDeltas = 10.0;
// Leader's view-change collection window, in multiples of delta.
constexpr double kProposeDelayDeltas = 2.0;

}  // namespace

void Quad::on_start(sim::Context& ctx) {
  started_ = true;
  enter_view(ctx, 0);
}

void Quad::propose(sim::Context& ctx, QuadProposalPtr value) {
  if (my_input_.has_value()) return;
  my_input_ = std::move(value);
  if (started_ && !decided_) maybe_propose(ctx);
}

void Quad::enter_view(sim::Context& ctx, std::int64_t view) {
  if (decided_ || view <= cur_view_) return;
  cur_view_ = view;
  const int n = ctx.n();

  // VIEW-CHANGE: report the highest prepare-QC to the leader.
  ctx.send(leader_of(view, n),
           sim::make_payload<MViewChange>(view, high_prepare_, high_value_));

  if (leader_of(view, n) == ctx.id()) {
    // Collection window before proposing (2*delta: after GST this gathers
    // the view-changes of every correct process — no hidden locks).
    ctx.set_timer(kProposeDelayDeltas * ctx.delta(),
                  static_cast<std::uint64_t>(view) * 4 + 1);
  }
  // View timer: advance (or close the epoch) when it expires.
  ctx.set_timer(kViewDurationDeltas * ctx.delta(),
                static_cast<std::uint64_t>(view) * 4 + 2);

  // Re-process any buffered leader-side/replica-side state for this view.
  maybe_propose(ctx);
  ViewState& vs = view_state(view);
  if (vs.pending_propose) process_propose(ctx, *vs.pending_propose);
  maybe_form_prepare_qc(ctx);
  maybe_form_commit_qc(ctx);
}

void Quad::on_timer(sim::Context& ctx, std::uint64_t tag) {
  if (decided_) return;
  const auto view = static_cast<std::int64_t>(tag / 4);
  const std::uint64_t kind = tag % 4;
  if (view != cur_view_) return;  // stale timer
  const int n = ctx.n();

  if (kind == 1) {
    view_state(view).propose_timer_fired = true;
    maybe_propose(ctx);
    return;
  }
  if (kind == 2) {
    // View expired.
    if ((view + 1) % n != 0) {
      enter_view(ctx, view + 1);
      return;
    }
    // Last view of its epoch: signal EPOCH-OVER and wait for the
    // certificate (RareSync-style synchronization).
    const std::int64_t epoch = epoch_of(view, n);
    const crypto::Signature partial =
        ctx.signer().sign(epoch_digest(epoch));
    ctx.broadcast(sim::make_payload<MEpochOver>(epoch, partial));
  }
}

// ---------------------------------------------------------- leader side

void Quad::maybe_propose(sim::Context& ctx) {
  const int n = ctx.n();
  const int t = ctx.t();
  if (decided_ || cur_view_ < 0) return;
  if (leader_of(cur_view_, n) != ctx.id()) return;
  ViewState& vs = view_state(cur_view_);
  if (vs.proposed || !vs.propose_timer_fired) return;
  if (static_cast<int>(vs.view_change_senders.size()) <
      core::quorum_n_minus_t(n, t)) {
    return;
  }

  // Highest valid prepare-QC among the received view-changes, else own input.
  std::optional<QuorumCert> best;
  QuadProposalPtr best_value;
  for (const auto& [qc, value] : vs.view_changes) {
    if (!qc.has_value() || !value) continue;
    if (!valid_prepare_qc(ctx, *qc)) continue;
    if (value->digest() != qc->value_digest) continue;
    if (!best.has_value() || qc->view > best->view) {
      best = qc;
      best_value = value;
    }
  }
  QuadProposalPtr value = best.has_value() ? best_value : my_input_.value_or(nullptr);
  if (!value) return;  // no input yet: retry when propose() arrives
  if (!verifier_(ctx, *value)) return;

  vs.proposed = true;
  ctx.broadcast(sim::make_payload<MPropose>(cur_view_, value, best));
}

std::optional<QuorumCert> Quad::form_qc(sim::Context& ctx, const char* phase,
                                        const QuadProposal& value,
                                        core::QuorumCollector& votes) const {
  // The collector keys by the digest the votes sign — the phase digest —
  // while only the leader's own pending proposal can ever certify, so the
  // check is direct: count the votes on that proposal's phase digest.
  const int n = ctx.n();
  const crypto::Hash value_digest = value.digest();
  const crypto::Hash digest = phase_digest(phase, cur_view_, value_digest);
  const int quorum = core::quorum_n_minus_t(n, ctx.t());
  if (votes.count(digest) < quorum) return std::nullopt;
  QuorumCert qc;
  qc.view = cur_view_;
  qc.value_digest = value_digest;
  if (options_.cert_mode == core::CertMode::kAggregate) {
    auto cert = core::certify_verified(votes, ctx.keys(), digest, n, quorum);
    if (!cert) return std::nullopt;
    qc.aggregate = true;
    qc.voters = std::move(cert->voters);
    qc.agg = cert->agg;
  } else {
    const auto tsig = ctx.keys().combine(votes.partials(digest));
    if (!tsig.has_value()) return std::nullopt;
    qc.tsig = *tsig;
  }
  report_quorum(ctx, votes, digest);
  return qc;
}

void Quad::maybe_form_prepare_qc(sim::Context& ctx) {
  if (cur_view_ < 0 || leader_of(cur_view_, ctx.n()) != ctx.id()) return;
  ViewState& vs = view_state(cur_view_);
  if (vs.sent_precommit || !vs.proposed || !vs.pending_propose) return;
  const QuadProposalPtr value = vs.pending_propose->value;
  const auto qc = form_qc(ctx, "prepare", *value, vs.prepare_votes);
  if (!qc) return;
  vs.sent_precommit = true;
  ctx.broadcast(sim::make_payload<MPrecommit>(cur_view_, value, *qc));
}

void Quad::maybe_form_commit_qc(sim::Context& ctx) {
  if (cur_view_ < 0 || leader_of(cur_view_, ctx.n()) != ctx.id()) return;
  ViewState& vs = view_state(cur_view_);
  if (vs.sent_decide || !vs.pending_propose) return;
  const QuadProposalPtr value = vs.pending_propose->value;
  const auto qc = form_qc(ctx, "commit", *value, vs.commit_votes);
  if (!qc) return;
  vs.sent_decide = true;
  ctx.broadcast(sim::make_payload<MDecide>(value, *qc));
}

// --------------------------------------------------------- replica side

void Quad::process_propose(sim::Context& ctx, const MPropose& msg) {
  if (decided_ || msg.view != cur_view_) return;
  ViewState& vs = view_state(msg.view);
  if (vs.prepare_voted || !msg.value) return;
  if (!verifier_(ctx, *msg.value)) return;
  // Safety rule: accept if unlocked, or the justification is at least as
  // recent as our lock, or the value matches our lock.
  const crypto::Hash digest = msg.value->digest();
  bool acceptable = !locked_.has_value();
  if (!acceptable && msg.justify.has_value() &&
      valid_prepare_qc(ctx, *msg.justify) &&
      msg.justify->value_digest == digest &&
      msg.justify->view >= locked_->view) {
    acceptable = true;
  }
  if (!acceptable && locked_.has_value() &&
      locked_->value_digest == digest) {
    acceptable = true;
  }
  if (!acceptable) return;

  vs.prepare_voted = true;
  const crypto::Hash to_sign = phase_digest("prepare", msg.view, digest);
  ctx.send(leader_of(msg.view, ctx.n()),
           sim::make_payload<MPrepareVote>(msg.view, digest,
                                           ctx.signer().sign(to_sign)));
}

void Quad::deliver_decide(sim::Context& ctx, const QuadProposalPtr& value,
                          const QuorumCert& qc) {
  if (decided_ || !value) return;
  if (!valid_commit_qc(ctx, qc) || qc.value_digest != value->digest()) return;
  if (!verifier_(ctx, *value)) return;
  decided_ = true;
  if (options_.decide_echo) {
    ctx.broadcast(sim::make_payload<MDecide>(value, qc));
  }
  if (on_decide_) on_decide_(ctx, value);
}

// ------------------------------------------------------------- messages

bool Quad::admit_vote(sim::Context& ctx, ProcessId from, const char* phase,
                      std::int64_t view, const crypto::Hash& value_digest,
                      const crypto::Signature& partial) const {
  if (partial.signer != from ||
      partial.digest != phase_digest(phase, view, value_digest)) {
    return false;
  }
  // Aggregate mode defers the MAC check to the one verify_aggregate at
  // certificate formation (speculative aggregation).
  return options_.cert_mode == core::CertMode::kAggregate ||
         ctx.keys().verify(partial);
}

void Quad::on_message(sim::Context& ctx, ProcessId from,
                      const sim::PayloadPtr& m) {
  const int n = ctx.n();
  const int t = ctx.t();

  if (const auto* decide = dynamic_cast<const MDecide*>(m.get())) {
    deliver_decide(ctx, decide->value, decide->qc);
    return;
  }
  if (decided_) return;

  if (const auto* vc = dynamic_cast<const MViewChange*>(m.get())) {
    ViewState& vs = view_state(vc->view);
    if (vs.view_change_senders.insert(from).second) {
      vs.view_changes.emplace_back(vc->qc, vc->value);
    }
    maybe_propose(ctx);
    return;
  }

  if (const auto* propose = dynamic_cast<const MPropose*>(m.get())) {
    if (from != leader_of(propose->view, n)) return;
    ViewState& vs = view_state(propose->view);
    if (!vs.pending_propose) {
      vs.pending_propose =
          std::static_pointer_cast<const MPropose>(m);
    }
    if (propose->view == cur_view_) process_propose(ctx, *propose);
    return;
  }

  if (const auto* vote = dynamic_cast<const MPrepareVote*>(m.get())) {
    if (!admit_vote(ctx, from, "prepare", vote->view, vote->digest,
                    vote->partial)) {
      return;
    }
    view_state(vote->view).prepare_votes.add(vote->partial);
    if (vote->view == cur_view_) maybe_form_prepare_qc(ctx);
    return;
  }

  if (const auto* precommit = dynamic_cast<const MPrecommit*>(m.get())) {
    if (from != leader_of(precommit->view, n)) return;
    if (precommit->view != cur_view_ || !precommit->value) return;
    if (!valid_prepare_qc(ctx, precommit->qc) ||
        precommit->qc.value_digest != precommit->value->digest()) {
      return;
    }
    ViewState& vs = view_state(precommit->view);
    if (vs.commit_voted) return;
    vs.commit_voted = true;
    // Adopt as highest prepare-QC and lock.
    if (!high_prepare_.has_value() ||
        precommit->qc.view > high_prepare_->view) {
      high_prepare_ = precommit->qc;
      high_value_ = precommit->value;
    }
    locked_ = precommit->qc;
    locked_value_ = precommit->value;
    const crypto::Hash to_sign =
        phase_digest("commit", precommit->view, precommit->qc.value_digest);
    ctx.send(leader_of(precommit->view, n),
             sim::make_payload<MCommitVote>(precommit->view,
                                            precommit->qc.value_digest,
                                            ctx.signer().sign(to_sign)));
    return;
  }

  if (const auto* vote = dynamic_cast<const MCommitVote*>(m.get())) {
    if (!admit_vote(ctx, from, "commit", vote->view, vote->digest,
                    vote->partial)) {
      return;
    }
    view_state(vote->view).commit_votes.add(vote->partial);
    if (vote->view == cur_view_) maybe_form_commit_qc(ctx);
    return;
  }

  if (const auto* over = dynamic_cast<const MEpochOver*>(m.get())) {
    if (over->partial.signer != from ||
        over->partial.digest != epoch_digest(over->epoch) ||
        !ctx.keys().verify(over->partial)) {
      return;
    }
    auto& [sigs, senders] = epoch_over_[over->epoch];
    if (!senders.insert(from).second) return;
    sigs.push_back(over->partial);
    if (static_cast<int>(senders.size()) >= core::quorum_n_minus_t(n, t) &&
        over->epoch > highest_epoch_cert_) {
      const auto tsig = ctx.keys().combine(sigs);
      if (tsig.has_value()) {
        handle_epoch_cert(ctx, over->epoch, *tsig);
      }
    }
    return;
  }

  if (const auto* cert = dynamic_cast<const MEpochCert*>(m.get())) {
    if (cert->tsig.digest != epoch_digest(cert->epoch) ||
        !ctx.keys().verify(cert->tsig)) {
      return;
    }
    handle_epoch_cert(ctx, cert->epoch, cert->tsig);
    return;
  }
}

void Quad::handle_epoch_cert(sim::Context& ctx, std::int64_t epoch,
                             const crypto::ThresholdSignature& tsig) {
  if (epoch <= highest_epoch_cert_) return;
  highest_epoch_cert_ = epoch;
  // Forward once so that every correct process enters within delta, then
  // enter the first view of the next epoch.
  ctx.broadcast(sim::make_payload<MEpochCert>(epoch, tsig));
  enter_view(ctx, (epoch + 1) * ctx.n());
}

}  // namespace valcon::consensus
