// Vector consensus (Section 5.2.1).
//
// Correct processes agree on an input configuration with exactly n-t
// process-proposal pairs (Vo = I_{n-t}), under Vector Validity: if the
// decided vector assigns proposal v to a *correct* process P, then P really
// proposed v. The paper gives three implementations, all provided here:
//
//   AuthVectorConsensus  (Algorithm 1)  — signed proposals + Quad,
//                                         O(n^2) messages;
//   NonAuthVectorConsensus (Algorithm 3) — Bracha BRB + n binary consensus
//                                         instances, no signatures,
//                                         O(n^4) messages worst case;
//   FastVectorConsensus  (Algorithm 6)  — vector dissemination + Quad over
//                                         hashes + ADD, O(n^2 log n) words
//                                         but exponential worst-case latency.
//
// Universal (Algorithm 2) is parametric in which implementation it stacks on.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "valcon/core/input_config.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/component.hpp"

namespace valcon::consensus {

class VectorConsensus : public sim::Mux {
 public:
  using DecideCb = std::function<void(sim::Context&, const core::InputConfig&)>;

  /// Sets the proposal; must be called before the component starts.
  void set_input(Value v) { input_ = v; }

  void set_on_decide(DecideCb cb) { on_decide_ = std::move(cb); }

  [[nodiscard]] bool has_decided() const { return decided_vector_.has_value(); }
  [[nodiscard]] const std::optional<core::InputConfig>& decided_vector() const {
    return decided_vector_;
  }

 protected:
  /// Fires the decision exactly once.
  void deliver_vector(sim::Context& ctx, const core::InputConfig& vec) {
    if (decided_vector_.has_value()) return;
    decided_vector_ = vec;
    if (on_decide_) on_decide_(ctx, vec);
  }

  std::optional<Value> input_;

 private:
  DecideCb on_decide_;
  std::optional<core::InputConfig> decided_vector_;
};

/// Digest a (process, proposal) pair as signed in proposal messages
/// (Algorithms 1 and 6) and verified by Quad's external predicate.
[[nodiscard]] crypto::Hash proposal_digest(ProcessId proposer, Value v);

/// The signed n-t vector Algorithms 1 and 6 build from the first n-t
/// properly signed proposals (Algorithm 1, lines 8-12).
struct SignedVector {
  core::InputConfig vector;
  std::vector<crypto::Signature> proofs;  // one signed proposal per pair
};

/// Collects signed proposals until it can build the SignedVector.
class SignedProposals {
 public:
  /// Records `value` from `from` when `sig` is `from`'s valid signature
  /// over proposal_digest(from, value). Returns the vector exactly once,
  /// on the (n-t)-th recorded proposal; after that it checks nothing.
  [[nodiscard]] std::optional<SignedVector> add(sim::Context& ctx,
                                                ProcessId from, Value value,
                                                const crypto::Signature& sig);

 private:
  std::map<ProcessId, std::pair<Value, crypto::Signature>> proposals_;
  bool complete_ = false;
};

}  // namespace valcon::consensus
