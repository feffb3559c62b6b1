#include "valcon/bcast/brb.hpp"

#include "valcon/core/thresholds.hpp"

namespace valcon::bcast {

namespace {

crypto::Hash content_digest(const ReliableBroadcast::Content& content) {
  crypto::Hasher h("valcon/brb-content");
  h.add_bytes(content);
  return h.finish();
}

// Domain for the aggregate-mode echo votes. Binding the designated sender
// in keeps a certificate from one BRB instance from being replayed into
// another instance that happens to carry the same content.
crypto::Hash echo_vote_digest(ProcessId sender, const crypto::Hash& content) {
  return crypto::Hasher("valcon/brb-echo-sig").add(sender).add(content).finish();
}

}  // namespace

void ReliableBroadcast::broadcast(sim::Context& ctx, Content content) {
  ctx.broadcast(sim::make_payload<Msg>(Msg::Kind::kSend, std::move(content),
                                       content_words_));
}

void ReliableBroadcast::on_message(sim::Context& ctx, ProcessId from,
                                   const sim::PayloadPtr& m) {
  if (const auto* echo_sig = dynamic_cast<const MEchoSig*>(m.get())) {
    // Echo-votes are only meaningful at the designated sender in aggregate
    // mode. Votes racing ahead of the sender's own SEND self-delivery are
    // tallied speculatively (the collector keys by digest, so a vote for
    // the wrong digest can never certify) instead of dropped — a hostile
    // delay profile must not be able to strand an echo quorum.
    if (cert_mode_ != core::CertMode::kAggregate) return;
    if (ctx.id() != sender_ || cert_broadcast_) return;
    const crypto::Signature& sig = echo_sig->sig;
    if (sig.signer != from) return;
    echo_votes_.add(sig);
    if (sent_recorded_) maybe_certify(ctx);
    return;
  }
  if (const auto* qc =
          dynamic_cast<const core::QuorumCertificatePayload*>(m.get())) {
    if (cert_mode_ == core::CertMode::kAggregate) on_echo_cert(ctx, *qc);
    return;
  }
  const auto* msg = dynamic_cast<const Msg*>(m.get());
  if (msg == nullptr) return;

  switch (msg->kind) {
    case Msg::Kind::kSend: {
      if (from != sender_ || echoed_) return;
      echoed_ = true;
      const crypto::Hash digest = digest_of(msg->content);
      contents_.emplace(digest, msg->content);
      if (cert_mode_ == core::CertMode::kAggregate) {
        // Batched votes: one signed echo to the sender instead of an
        // all-to-all ECHO broadcast. The sender contributes its own vote
        // to the tally directly.
        const crypto::Signature sig =
            ctx.signer().sign(echo_vote_digest(sender_, digest));
        if (ctx.id() == sender_) {
          sent_recorded_ = true;
          echo_sig_digest_ = sig.digest;
          sent_content_ = msg->content;
          echo_votes_.add(sig);
          maybe_certify(ctx);
        } else {
          ctx.send(sender_, sim::make_payload<MEchoSig>(sig));
        }
        return;
      }
      ctx.broadcast(sim::make_payload<Msg>(Msg::Kind::kEcho, msg->content,
                                           content_words_));
      break;
    }
    case Msg::Kind::kEcho: {
      if (cert_mode_ == core::CertMode::kAggregate) return;
      const crypto::Hash digest = digest_of(msg->content);
      contents_.emplace(digest, msg->content);
      echoes_[digest].insert(from);
      break;
    }
    case Msg::Kind::kReady: {
      const crypto::Hash digest = digest_of(msg->content);
      contents_.emplace(digest, msg->content);
      readies_[digest].insert(from);
      break;
    }
  }
  maybe_progress(ctx);
}

crypto::Hash ReliableBroadcast::digest_of(const Content& content) const {
  for (const auto& [digest, held] : contents_) {
    if (held == content) return digest;
  }
  return content_digest(content);
}

void ReliableBroadcast::maybe_certify(sim::Context& ctx) {
  if (cert_broadcast_) return;
  const int threshold = core::brb_echo_quorum(ctx.n(), ctx.t());
  if (echo_votes_.count(echo_sig_digest_) < threshold) return;
  auto cert = core::certify_verified(echo_votes_, ctx.keys(),
                                     echo_sig_digest_, ctx.n(), threshold);
  if (!cert) return;
  cert_broadcast_ = true;
  const auto [margin, conflicting] = echo_votes_.rivalry(echo_sig_digest_);
  ctx.note_quorum(margin, conflicting);
  ctx.broadcast(sim::make_payload<core::QuorumCertificatePayload>(
      kTagEchoCert, static_cast<std::int64_t>(sender_), std::int64_t{0},
      std::move(cert->voters), cert->agg, sent_content_));
}

void ReliableBroadcast::on_echo_cert(sim::Context& ctx,
                                     const core::QuorumCertificatePayload& qc) {
  if (qc.tag != kTagEchoCert) return;
  // Recompute the vote digest from the carried content: a certificate is
  // only as good as the digest the receiver derives itself.
  const crypto::Hash digest = digest_of(qc.body);
  if (qc.agg.digest != echo_vote_digest(sender_, digest)) return;
  if (qc.voters.count() < core::brb_echo_quorum(ctx.n(), ctx.t())) return;
  if (!ctx.keys().verify_aggregate(qc.voters, qc.agg)) return;
  contents_.emplace(digest, qc.body);
  std::set<ProcessId>& echo_set = echoes_[digest];
  for (ProcessId p = 0; p < ctx.n(); ++p) {
    if (qc.voters.test(p)) echo_set.insert(p);
  }
  maybe_progress(ctx);
}

void ReliableBroadcast::maybe_progress(sim::Context& ctx) {
  const int n = ctx.n();
  const int t = ctx.t();
  const int echo_threshold = core::brb_echo_quorum(n, t);

  if (!readied_) {
    for (const auto& [digest, senders] : echoes_) {
      const bool enough_echoes =
          static_cast<int>(senders.size()) >= echo_threshold;
      const auto ready_it = readies_.find(digest);
      const bool enough_readies =
          ready_it != readies_.end() &&
          static_cast<int>(ready_it->second.size()) >= core::plurality(t);
      if (enough_echoes || enough_readies) {
        readied_ = true;
        ctx.broadcast(sim::make_payload<Msg>(
            Msg::Kind::kReady, contents_.at(digest), content_words_));
        break;
      }
    }
    // Amplification from READYs alone (t+1 rule) when no ECHO was seen.
    if (!readied_) {
      for (const auto& [digest, senders] : readies_) {
        if (static_cast<int>(senders.size()) >= core::plurality(t)) {
          readied_ = true;
          ctx.broadcast(sim::make_payload<Msg>(
              Msg::Kind::kReady, contents_.at(digest), content_words_));
          break;
        }
      }
    }
  }

  if (!delivered_) {
    for (const auto& [digest, senders] : readies_) {
      if (static_cast<int>(senders.size()) >= core::byz_quorum(n, t)) {
        delivered_ = true;
        if (on_deliver_) on_deliver_(ctx, contents_.at(digest));
        break;
      }
    }
  }
}

}  // namespace valcon::bcast
