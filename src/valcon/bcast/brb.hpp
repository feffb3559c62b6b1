// Byzantine Reliable Broadcast — Bracha's non-authenticated algorithm
// [20, 23], used by the non-authenticated vector consensus (Appendix B.2).
//
// One instance per designated sender. Requires n > 3t. Guarantees Validity,
// Consistency, Integrity and Totality as listed in Appendix B.2:
//
//   SEND(m)   : sender -> all
//   ECHO(m)   : on first SEND from the sender            -> all
//   READY(m)  : on ceil((n+t+1)/2) ECHOs or t+1 READYs   -> all
//   deliver(m): on 2t+1 READYs
//
// CertMode::kAggregate replaces the all-to-all ECHO round with batched
// votes (core/quorum.hpp): each receiver sends one signed echo-vote to the
// designated sender, who certifies the echo quorum and broadcasts one
// QuorumCertificatePayload carrying the content — O(n^2) echo traffic
// becomes O(n). The READY round and the t+1 amplification rule are
// unchanged, so delivery still needs 2t+1 readies. The trade is liveness
// under a faulty sender: the one certificate broadcast is a single point
// of failure, so a sender that crashes after SEND — or whose QC is garbled
// in flight — leaves the echo votes uncertified and nobody delivers,
// whereas per-vote Bracha's redundant all-to-all ECHO round can still
// complete. Equivalent to the silent-sender outcome; the committed
// cert_mode=aggregate corpus cell (tests/corpus/) pins this down in the
// unsound regime, where the stall flips the termination verdict.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "valcon/core/quorum.hpp"
#include "valcon/crypto/hash.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/component.hpp"

namespace valcon::bcast {

class ReliableBroadcast final : public sim::Component {
 public:
  using Content = std::vector<std::uint8_t>;
  /// deliver(m): fires at most once per instance.
  using DeliverCb = std::function<void(sim::Context&, const Content&)>;

  ReliableBroadcast(ProcessId sender, DeliverCb on_deliver,
                    std::size_t content_words = 1,
                    core::CertMode cert_mode = core::CertMode::kPerVote)
      : sender_(sender),
        on_deliver_(std::move(on_deliver)),
        content_words_(content_words),
        cert_mode_(cert_mode) {}

  /// Invoked by the designated sender to broadcast `content`.
  void broadcast(sim::Context& ctx, Content content);

  void on_message(sim::Context& ctx, ProcessId from,
                  const sim::PayloadPtr& m) override;

  [[nodiscard]] bool delivered() const { return delivered_; }

 private:
  // One class interns three metric names (brb/send, brb/echo, brb/ready)
  // switched on `kind`; VALCON_PAYLOAD_TYPE can only declare a single name.
  // valcon-lint: allow(payload-type) -- multi-name payload, interns per kind
  struct Msg final : sim::Payload {
    enum class Kind { kSend, kEcho, kReady };
    Msg(Kind kind_in, Content content_in, std::size_t words)
        : kind(kind_in), content(std::move(content_in)), words_(words) {}
    [[nodiscard]] const char* type_name() const override {
      switch (kind) {
        case Kind::kSend: return "brb/send";
        case Kind::kEcho: return "brb/echo";
        case Kind::kReady: return "brb/ready";
      }
      return "brb";
    }
    [[nodiscard]] sim::PayloadTypeId type_id() const override {
      static const sim::PayloadTypeId ids[3] = {
          sim::PayloadTypeRegistry::intern("brb/send"),
          sim::PayloadTypeRegistry::intern("brb/echo"),
          sim::PayloadTypeRegistry::intern("brb/ready")};
      return ids[static_cast<std::size_t>(kind)];
    }
    [[nodiscard]] std::size_t size_words() const override { return words_; }
    Kind kind;
    Content content;
    std::size_t words_;
  };

  /// One signed echo-vote, sent point-to-point to the designated sender in
  /// aggregate mode instead of the all-to-all ECHO broadcast.
  struct MEchoSig final : sim::Payload {
    explicit MEchoSig(crypto::Signature sig_in) : sig(sig_in) {}
    VALCON_PAYLOAD_TYPE("brb/echo-sig")
    [[nodiscard]] std::size_t size_words() const override { return 1; }
    crypto::Signature sig;
  };

  /// Tag for the echo-quorum certificate this instance broadcasts.
  static constexpr std::uint32_t kTagEchoCert = 1;

  /// The content digest of `content`. Every correct process relays the
  /// sender's one content, so the bytes nearly always match an entry of
  /// contents_ already, whose digest is reused; only content not seen
  /// before is hashed.
  [[nodiscard]] crypto::Hash digest_of(const Content& content) const;

  void maybe_progress(sim::Context& ctx);
  void maybe_certify(sim::Context& ctx);
  void on_echo_cert(sim::Context& ctx,
                    const core::QuorumCertificatePayload& qc);

  ProcessId sender_;
  DeliverCb on_deliver_;
  std::size_t content_words_;
  core::CertMode cert_mode_;

  // Aggregate-mode state, live only at the designated sender: the digest
  // its echo-votes must sign, the content to embed in the certificate, and
  // the running tally.
  bool sent_recorded_ = false;
  bool cert_broadcast_ = false;
  crypto::Hash echo_sig_digest_;
  Content sent_content_;
  core::QuorumCollector echo_votes_;

  bool echoed_ = false;
  bool readied_ = false;
  bool delivered_ = false;
  // Sender sets per content digest (Byzantine senders can equivocate).
  std::map<crypto::Hash, std::set<ProcessId>> echoes_;
  std::map<crypto::Hash, std::set<ProcessId>> readies_;
  std::map<crypto::Hash, Content> contents_;
};

}  // namespace valcon::bcast
