// Quad-style Byzantine consensus (Civit et al., DISC 2022 [28]), the
// closed-box substrate of the authenticated vector consensus (Algorithm 1)
// and of the O(n^2 log n) variant (Algorithm 6).
//
// Faithful reproduction of the properties Section 5.2.1 relies on:
//
//   * processes propose value-proof pairs; an external predicate
//     verify(value, proof) gates both proposing and deciding — correct
//     processes only decide pairs with verify = true;
//   * Agreement and Termination under partial synchrony with n > 3t;
//   * O(n^2) messages sent by correct processes after GST;
//   * linear latency after GST (and after all correct processes have
//     proposed, see the "note on Quad" in Appendix B.1).
//
// Structure (two-phase leader-based views + RareSync-style epochs):
//
//   view v, leader = v mod n. Entering a view, every process sends its
//   highest prepare-QC to the leader (VIEW-CHANGE). The leader waits 2*delta
//   (so that after GST it holds every correct lock — no hidden-lock stalls),
//   re-proposes the highest QC or its own input (PROPOSE), collects n-t
//   prepare votes into a threshold-signed prepare-QC (PRECOMMIT), which
//   locks recipients, collects n-t commit votes into a commit-QC and
//   broadcasts DECIDE. Deciders echo DECIDE once (totality under a leader
//   crash; ablation flag `decide_echo`).
//
//   Views within an epoch (n consecutive views) advance on local timers
//   only. Epoch boundaries synchronize: EPOCH-OVER carries a partial
//   signature, n-t of them combine into an epoch certificate which is
//   (re)broadcast once and entered on receipt — O(n^2) per epoch, O(1)
//   epochs after GST, hence O(n^2) messages post-GST overall.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "valcon/core/quorum.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/component.hpp"

namespace valcon::consensus {

/// A value-proof pair (VQuad x PQuad). The proof is embedded in the
/// concrete proposal object; verify() inspects both.
class QuadProposal {
 public:
  virtual ~QuadProposal() = default;
  [[nodiscard]] virtual crypto::Hash digest() const = 0;
  [[nodiscard]] virtual std::size_t size_words() const = 0;
};

using QuadProposalPtr = std::shared_ptr<const QuadProposal>;

/// verify : VQuad x PQuad -> {true, false}. Receives the component context
/// so predicates can consult the PKI and the system parameters.
using QuadVerifier =
    std::function<bool(sim::Context&, const QuadProposal&)>;

/// A quorum certificate over (phase, view, value digest), in one of two
/// backend representations: a combined threshold signature (per-vote mode)
/// or a voter bitset plus one aggregate signature (aggregate mode, set
/// `aggregate`). Validators accept either form — which form honest
/// processes emit is QuadOptions::cert_mode — and both cost one signature
/// check to verify.
struct QuorumCert {
  std::int64_t view = -1;
  crypto::Hash value_digest;
  crypto::ThresholdSignature tsig;
  bool aggregate = false;
  crypto::VoterBitset voters;
  crypto::AggregateSignature agg;
};

/// Quad's settings: the decide-echo ablation (bench E5) and the
/// certificate backend. The view timers are constants in quad.cpp.
struct QuadOptions {
  /// Echo DECIDE to all once upon deciding (totality under leader crash).
  bool decide_echo = true;
  /// Certificate backend. In aggregate mode the leader skips per-vote
  /// verification on receipt and pays one verify_aggregate when it forms
  /// the certificate (speculative aggregation) — ~1 check per quorum where
  /// per-vote mode pays n-t. Epoch certificates stay threshold-signed in
  /// both modes: they certify one fixed digest per epoch, so aggregation
  /// has nothing to batch.
  core::CertMode cert_mode = core::CertMode::kPerVote;
};

class Quad final : public sim::Component {
 public:
  using DecideCb = std::function<void(sim::Context&, const QuadProposalPtr&)>;
  using Options = QuadOptions;

  Quad(QuadVerifier verifier, DecideCb on_decide, QuadOptions options = {})
      : verifier_(std::move(verifier)),
        on_decide_(std::move(on_decide)),
        options_(options) {}

  /// Proposes a value-proof pair; the caller guarantees verify(v) = true.
  /// May be invoked before or after on_start.
  void propose(sim::Context& ctx, QuadProposalPtr value);

  [[nodiscard]] bool decided() const { return decided_; }

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const sim::PayloadPtr& m) override;
  void on_timer(sim::Context& ctx, std::uint64_t tag) override;

 private:
  // ---- wire format ----
  struct MViewChange;
  struct MPropose;
  struct MPrepareVote;
  struct MPrecommit;
  struct MCommitVote;
  struct MDecide;
  struct MEpochOver;
  struct MEpochCert;

  struct ViewState {
    // Leader side.
    std::vector<std::pair<std::optional<QuorumCert>, QuadProposalPtr>>
        view_changes;
    std::set<ProcessId> view_change_senders;
    core::QuorumCollector prepare_votes;
    core::QuorumCollector commit_votes;
    bool proposed = false;
    bool propose_timer_fired = false;
    bool sent_precommit = false;
    bool sent_decide = false;
    // Replica side.
    std::shared_ptr<const MPropose> pending_propose;
    bool prepare_voted = false;
    bool commit_voted = false;
  };

  [[nodiscard]] ProcessId leader_of(std::int64_t view, int n) const {
    return static_cast<ProcessId>(view % n);
  }
  [[nodiscard]] std::int64_t epoch_of(std::int64_t view, int n) const {
    return view / n;
  }

  [[nodiscard]] crypto::Hash phase_digest(const char* phase,
                                          std::int64_t view,
                                          const crypto::Hash& value) const;
  [[nodiscard]] crypto::Hash epoch_digest(std::int64_t epoch) const;
  [[nodiscard]] bool valid_prepare_qc(sim::Context& ctx,
                                      const QuorumCert& qc) const;
  [[nodiscard]] bool valid_commit_qc(sim::Context& ctx,
                                     const QuorumCert& qc) const;

  void enter_view(sim::Context& ctx, std::int64_t view);
  void maybe_propose(sim::Context& ctx);
  void process_propose(sim::Context& ctx, const MPropose& msg);
  /// The QC on `value` for `phase` in the current view once `votes` hold
  /// n - t votes on it (a combined threshold signature or an aggregate,
  /// per the cert mode), reported as a near miss; nullopt before that.
  [[nodiscard]] std::optional<QuorumCert> form_qc(
      sim::Context& ctx, const char* phase, const QuadProposal& value,
      core::QuorumCollector& votes) const;
  void maybe_form_prepare_qc(sim::Context& ctx);
  void maybe_form_commit_qc(sim::Context& ctx);
  /// True when `partial` is `from`'s vote for (phase, view, value_digest)
  /// and, in per-vote mode, verifies.
  [[nodiscard]] bool admit_vote(sim::Context& ctx, ProcessId from,
                                const char* phase, std::int64_t view,
                                const crypto::Hash& value_digest,
                                const crypto::Signature& partial) const;
  void handle_epoch_cert(sim::Context& ctx, std::int64_t epoch,
                         const crypto::ThresholdSignature& tsig);
  void deliver_decide(sim::Context& ctx, const QuadProposalPtr& value,
                      const QuorumCert& qc);
  ViewState& view_state(std::int64_t view) { return views_[view]; }

  QuadVerifier verifier_;
  DecideCb on_decide_;
  Options options_;

  bool started_ = false;
  bool decided_ = false;
  std::optional<QuadProposalPtr> my_input_;
  std::int64_t cur_view_ = -1;

  // Highest prepare-QC seen, with its value (the paper's prepareQC-high).
  std::optional<QuorumCert> high_prepare_;
  QuadProposalPtr high_value_;
  // Lock (set when a valid prepare-QC is observed in PRECOMMIT).
  std::optional<QuorumCert> locked_;
  QuadProposalPtr locked_value_;

  std::map<std::int64_t, ViewState> views_;
  std::map<std::int64_t,
           std::pair<std::vector<crypto::Signature>, std::set<ProcessId>>>
      epoch_over_;
  std::int64_t highest_epoch_cert_ = -1;
};

}  // namespace valcon::consensus
