// Signature-free binary Byzantine consensus for partial synchrony, the
// "Binary DBFT [35]" building block of the non-authenticated vector
// consensus (Algorithm 3, Appendix B.2).
//
// We reproduce the class of protocol DBFT belongs to — deterministic,
// leader/coordinator-rotating, signature-free binary consensus with O(n^2)
// messages per round — using the corrected Tendermint-style rules of
// Buchman-Kwon-Milosevic [22] (a protocol the DBFT paper itself positions
// against), hardened with DBFT's BV-justification idea:
//
//   * every process announces its input (EST); a bit b is *justified* once
//     t+1 distinct processes announced b, so any justified bit is the input
//     of at least one correct process;
//   * correct processes only prevote justified bits, which yields the
//     intrusion-tolerant validity Algorithm 3 needs — a decided 1 for
//     instance j implies a correct process proposed 1, i.e. BRB-delivered
//     P_j's proposal;
//   * rounds rotate the proposer; locking (lockedValue/lockedRound) gives
//     Agreement, validValue/validRound re-proposal gives liveness after GST
//     (no hidden-lock stall), t+1 round-skip certificates keep laggards
//     synchronized.
//
// See DESIGN.md §2 for the substitution rationale.
//
// Tallies. Every "who sent this" set (EST and DECIDED senders, each
// round's participants, prevotes and precommits per value nil/0/1) is a
// crypto::VoterBitset: O(1) insert and count, and no heap allocation at
// n <= 128. Rounds live in a map, so the only allocation a vote can cause
// is the node of a round seen for the first time. Two rules range over
// every round: decide on 2t+1 precommits for a bit in any round, and
// raise validValue to the highest round with 2t+1 prevotes for a bit.
// Tallies only grow, so a (round, bit) pair that holds a quorum holds it
// forever, and each rule's answer depends only on the set of quorum
// pairs. Two records (first_precommit_quorum_, last_prevote_quorum_)
// track those answers as votes are inserted, including votes that arrive
// before on_start, so poll() reads them in O(1) instead of walking the
// rounds on every delivery.
//
// CertMode::kAggregate batches the two vote rounds (core/quorum.hpp):
// instead of broadcasting prevotes/precommits all-to-all, each process
// sends one signed vote to the round's proposer, who certifies 2t+1
// matching votes and broadcasts one QuorumCertificatePayload. Receivers
// verify the aggregate once and bulk-insert the certified voters into the
// same RoundState tallies the per-vote engine polls, so every decision
// rule below is shared between the two backends. EST, proposals and the
// DECIDED gadget stay broadcast in both modes. Sub-quorum rules (t+1
// round skip, the early round end) fire less often from certificate-only
// information; the round timers carry liveness exactly as they do when
// votes are lost to the network.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "valcon/core/quorum.hpp"
#include "valcon/crypto/hash.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/component.hpp"

namespace valcon::consensus {

class BinaryConsensus final : public sim::Component {
 public:
  using DecideCb = std::function<void(sim::Context&, bool)>;

  /// `instance` names this consensus instance inside its deployment (the
  /// vector-consensus slot index): aggregate-mode vote signatures bind it,
  /// so a certificate from one instance cannot be replayed into another.
  explicit BinaryConsensus(DecideCb on_decide,
                           core::CertMode cert_mode = core::CertMode::kPerVote,
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

  /// One wire message as plain fields. The payload classes stay private
  /// to the .cpp; encode() builds the payload a field set describes and
  /// decode() reads one back (nullopt for a payload this engine never
  /// sends), so tests can script deliveries and compare sends. `value` is
  /// the vote (nullopt = nil) or, for kEst and kDecided, the bit;
  /// `valid_round` is used by kProposal, `step` and `sig` by kVoteSig.
  struct Wire {
    enum class Kind { kEst, kProposal, kPrevote, kPrecommit, kDecided,
                      kVoteSig };
    Kind kind = Kind::kEst;
    std::int64_t round = 0;
    std::optional<bool> value;
    std::int64_t valid_round = -1;
    std::uint32_t step = 0;
    crypto::Signature sig;
  };
  [[nodiscard]] static sim::PayloadPtr encode(const Wire& wire);
  [[nodiscard]] static std::optional<Wire> decode(const sim::Payload& payload);

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

  // Voter sets per vote value, indexed by vote_slot(): nil, 0, 1.
  using VoteTally = std::array<crypto::VoterBitset, 3>;

  struct RoundState {
    explicit RoundState(int n);

    /// The round proposer's (value, validRound); only the first proposal
    /// counts.
    std::optional<std::pair<bool, std::int64_t>> proposal;
    bool proposal_seen = false;  // `proposal` is set
    bool proposal_sent = false;  // we proposed in this round
    VoteTally prevotes;    // who prevoted each value in this round
    VoteTally precommits;  // who precommitted each value in this round
    crypto::VoterBitset participants;  // senders of any vote or proposal
  };

  [[nodiscard]] static std::size_t vote_slot(std::optional<bool> v) {
    return v.has_value() ? (*v ? 2 : 1) : 0;
  }
  [[nodiscard]] ProcessId proposer_of(std::int64_t round, int n) const {
    return static_cast<ProcessId>(round % n);
  }
  [[nodiscard]] bool justified(bool v, sim::Context& ctx) const;
  [[nodiscard]] int count_prevotes(std::int64_t round,
                                   std::optional<bool> v) const;
  /// The round's state, created empty on first touch.
  RoundState& round_state(std::int64_t round, int n);
  /// Records `from`'s vote for `v` at `step` (kStepPrevote or
  /// kStepPrecommit) of `round`, and keeps the quorum records current.
  void tally_vote(sim::Context& ctx, std::uint32_t step, std::int64_t round,
                  RoundState& rs, std::optional<bool> v, ProcessId from);

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
  std::array<crypto::VoterBitset, 2> est_senders_;  // who announced 0 / 1

  // Quorum records, updated whenever a vote lands in a tally:
  //  * first_precommit_quorum_ is the least (round, bit), in (round, bit)
  //    order, whose precommits reached 2t+1: the bit the decide rule picks;
  //  * last_prevote_quorum_ is the highest round whose prevotes reached
  //    2t+1 for a bit, with that bit (0 when both did): what validValue
  //    and validRound become once that round exceeds validRound.
  std::optional<std::pair<std::int64_t, bool>> first_precommit_quorum_;
  std::optional<std::pair<std::int64_t, bool>> last_prevote_quorum_;

  // Termination gadget: deciders broadcast DECIDED and keep participating
  // (a Byzantine vote can complete a quorum for a single process only, so
  // a decider that went silent could strand the rest one vote short).
  // t+1 matching DECIDEDs are a decision (at least one correct decider);
  // n-t DECIDEDs for the decided value mean every correct process is done,
  // so the instance halts and stops scheduling timers.
  std::array<crypto::VoterBitset, 2> decided_senders_;
  bool halted_ = false;
};

}  // namespace valcon::consensus
