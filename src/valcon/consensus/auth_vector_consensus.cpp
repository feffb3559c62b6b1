#include "valcon/consensus/auth_vector_consensus.hpp"

#include "valcon/core/thresholds.hpp"

namespace valcon::consensus {

crypto::Hash proposal_digest(ProcessId proposer, Value v) {
  crypto::Hasher h("valcon/vc-proposal");
  h.add(static_cast<std::int64_t>(proposer)).add(v);
  return h.finish();
}

std::optional<SignedVector> SignedProposals::add(sim::Context& ctx,
                                                 ProcessId from, Value value,
                                                 const crypto::Signature& sig) {
  // Accept only properly signed proposals from their claimed sender, and
  // stop counting at n-t (Algorithm 1, line 10).
  if (complete_) return std::nullopt;
  if (sig.signer != from || sig.digest != proposal_digest(from, value) ||
      !ctx.keys().verify(sig)) {
    return std::nullopt;
  }
  proposals_.emplace(from, std::make_pair(value, sig));
  if (static_cast<int>(proposals_.size()) <
      core::quorum_n_minus_t(ctx.n(), ctx.t())) {
    return std::nullopt;
  }
  complete_ = true;
  SignedVector out{core::InputConfig(ctx.n()), {}};
  for (const auto& [pid, entry] : proposals_) {
    out.vector.set(pid, entry.first);
    out.proofs.push_back(entry.second);
  }
  return out;
}

bool VectorQuadProposal::verify(const crypto::KeyRegistry& keys, int n,
                                int t) const {
  if (vector_.n() != n || vector_.count() != core::quorum_n_minus_t(n, t)) {
    return false;
  }
  for (const ProcessId p : vector_.processes()) {
    const Value v = *vector_.at(p);
    const crypto::Hash expected = proposal_digest(p, v);
    bool found = false;
    for (const crypto::Signature& sig : proofs_) {
      if (sig.signer == p && sig.digest == expected && keys.verify(sig)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

struct AuthVectorConsensus::MProposal final : sim::Payload {
  MProposal(Value v, crypto::Signature s) : value(v), sig(s) {}
  VALCON_PAYLOAD_TYPE("avc/proposal")
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  Value value;
  crypto::Signature sig;
};

AuthVectorConsensus::AuthVectorConsensus(Quad::Options quad_options) {
  quad_ = &make_child<Quad>(
      // verify(vector, Sigma): every pair accompanied by a valid signed
      // proposal message (Section 5.2.1's predicate for this Quad instance).
      [](sim::Context& qctx, const QuadProposal& value) {
        const auto* vec = dynamic_cast<const VectorQuadProposal*>(&value);
        return vec != nullptr && vec->verify(qctx.keys(), qctx.n(), qctx.t());
      },
      [this](sim::Context& qctx, const QuadProposalPtr& value) {
        const auto* vec = dynamic_cast<const VectorQuadProposal*>(value.get());
        if (vec != nullptr) deliver_vector(qctx, vec->vector());
      },
      quad_options);
}

void AuthVectorConsensus::own_start(sim::Context& ctx) {
  if (input_.has_value()) {
    const Value v = *input_;
    const crypto::Signature sig = ctx.signer().sign(
        proposal_digest(ctx.id(), v));
    ctx.broadcast(sim::make_payload<MProposal>(v, sig));
  }
}

void AuthVectorConsensus::own_message(sim::Context& ctx, ProcessId from,
                                      const sim::PayloadPtr& m) {
  const auto* msg = dynamic_cast<const MProposal*>(m.get());
  if (msg == nullptr) return;
  auto signed_vector = proposals_.add(ctx, from, msg->value, msg->sig);
  if (!signed_vector) return;
  quad_->propose(child_context(0),
                 std::make_shared<const VectorQuadProposal>(
                     std::move(signed_vector->vector),
                     std::move(signed_vector->proofs)));
}

}  // namespace valcon::consensus
