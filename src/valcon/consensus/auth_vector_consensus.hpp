// Authenticated vector consensus — Algorithm 1.
//
//   on propose(v):      beb-broadcast <PROPOSAL, v> signed;
//   on n-t proposals:   build vector + proof Sigma (the signed proposal
//                       messages) and propose (vector, Sigma) to Quad;
//   on Quad decide:     decide the vector.
//
// Quad's external predicate verify(vector, Sigma) checks that every
// process-proposal pair in the vector is accompanied by a properly signed
// proposal message, which is exactly what gives Vector Validity
// (Theorem 6). Message complexity: O(n^2) (Theorem 7).
#pragma once

#include <vector>

#include "valcon/consensus/quad.hpp"
#include "valcon/consensus/vector_consensus.hpp"

namespace valcon::consensus {

/// The (vector, Sigma) value-proof pair proposed to Quad.
class VectorQuadProposal final : public QuadProposal {
 public:
  VectorQuadProposal(core::InputConfig vec,
                     std::vector<crypto::Signature> proofs)
      : vector_(std::move(vec)), proofs_(std::move(proofs)) {}

  [[nodiscard]] const core::InputConfig& vector() const { return vector_; }
  [[nodiscard]] const std::vector<crypto::Signature>& proofs() const {
    return proofs_;
  }

  [[nodiscard]] crypto::Hash digest() const override {
    return vector_.digest();
  }
  [[nodiscard]] std::size_t size_words() const override {
    // The vector (one word per pair) plus Sigma (one word per signature).
    return static_cast<std::size_t>(vector_.count()) + proofs_.size();
  }

  /// verify(vector, Sigma): every pair carries a valid signed proposal, and
  /// the vector has exactly n-t pairs.
  [[nodiscard]] bool verify(const crypto::KeyRegistry& keys, int n,
                            int t) const;

 private:
  core::InputConfig vector_;
  std::vector<crypto::Signature> proofs_;
};

class AuthVectorConsensus final : public VectorConsensus {
 public:
  explicit AuthVectorConsensus(Quad::Options quad_options = {});

 protected:
  void own_start(sim::Context& ctx) override;
  void own_message(sim::Context& ctx, ProcessId from,
                   const sim::PayloadPtr& m) override;

 private:
  struct MProposal;

  Quad* quad_ = nullptr;
  SignedProposals proposals_;
};

}  // namespace valcon::consensus
