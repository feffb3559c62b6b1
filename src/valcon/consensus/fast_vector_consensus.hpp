// O(n^2 log n)-communication vector consensus — Algorithm 6
// (Appendix B.3.2).
//
//   propose(v):           beb-broadcast a signed <PROPOSAL, v>;
//   on n-t proposals:     build the vector, hand it to vector dissemination;
//   on acquire(H, tsig):  propose (H, tsig) to Quad (values are hashes,
//                         proofs are threshold signatures — constant size);
//   on Quad decide(H'):   feed ADD with the cached vector matching H'
//                         (or ⊥ if not cached);
//   on ADD output:        decide the reconstructed vector.
//
// Redundancy of vector dissemination guarantees at least t+1 correct
// processes cached the vector whose hash Quad decided, which is exactly
// ADD's precondition; Agreement/Termination lift from Quad and ADD
// (Theorem 11). Communication: O(n^2 log n) words after GST (Theorem 12),
// at the cost of the slow-broadcast's exponential worst-case latency.
#pragma once

#include <vector>

#include "valcon/consensus/add.hpp"
#include "valcon/consensus/quad.hpp"
#include "valcon/consensus/vector_consensus.hpp"
#include "valcon/consensus/vector_dissemination.hpp"

namespace valcon::consensus {

/// The (hash, threshold signature) value-proof pair proposed to Quad.
class HashQuadProposal final : public QuadProposal {
 public:
  HashQuadProposal(crypto::Hash h, crypto::ThresholdSignature tsig)
      : hash_(h), tsig_(tsig) {}

  [[nodiscard]] const crypto::Hash& hash() const { return hash_; }
  [[nodiscard]] const crypto::ThresholdSignature& tsig() const {
    return tsig_;
  }

  [[nodiscard]] crypto::Hash digest() const override {
    crypto::Hasher h("valcon/hash-proposal");
    h.add(hash_).add(tsig_.mac);
    return h.finish();
  }
  [[nodiscard]] std::size_t size_words() const override { return 2; }

 private:
  crypto::Hash hash_;
  crypto::ThresholdSignature tsig_;
};

class FastVectorConsensus final : public VectorConsensus {
 public:
  explicit FastVectorConsensus(Quad::Options quad_options = {});

 protected:
  void own_start(sim::Context& ctx) override;
  void own_message(sim::Context& ctx, ProcessId from,
                   const sim::PayloadPtr& m) override;

 private:
  struct MProposal;

  void on_acquire(sim::Context& ctx, const crypto::Hash& h,
                  const crypto::ThresholdSignature& tsig);
  void on_quad_decide(sim::Context& ctx, const QuadProposalPtr& value);
  void on_add_output(sim::Context& ctx, const std::vector<std::uint8_t>& m);

  VectorDissemination* disseminator_ = nullptr;
  Quad* quad_ = nullptr;
  Add* add_ = nullptr;

  SignedProposals proposals_;
  bool proposed_to_quad_ = false;
  bool fed_add_ = false;
};

}  // namespace valcon::consensus
