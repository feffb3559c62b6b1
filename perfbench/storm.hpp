// The simulator hot-path workload: a deterministic token-and-vote storm.
//
// Messages flow through the library's real two-level Mux composition layer
// (as Universal -> vector consensus -> Quad nests), every token hop triggers
// an all-to-all vote broadcast, and payload type names rotate over twelve
// wire names on both sides of the small-string boundary. Everything below
// the storm logic — MuxMsg wrapping and routing, Metrics accounting, Network
// delay sampling, the event queue, payload allocation — is the library's
// own per-message path. No crypto, Λ, checker or protocol code runs, which
// is what makes this the workload a gain in those layers must not move.
//
// The logic matches the hot-path section of bench/bench_sweep.cpp, so the
// two report the same event and message counts for the same (n, tokens,
// horizon, seed): 4,605,523 events and 4,605,755 messages at n=8, 4 tokens
// per process, horizon 8000, seed 7.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "valcon/sim/component.hpp"
#include "valcon/sim/simulator.hpp"

namespace valcon::perfbench {

namespace storm_detail {

inline const char* const kTypes[12] = {
    "storm/propose",     "storm/prepare-vote", "storm/commit-vote",
    "storm/view-change", "storm/precommit",    "storm/decide",
    "storm/epoch-over",  "storm/epoch-cert",   "storm/est",
    "storm/stored",      "storm/confirm",      "storm/echo"};

// valcon-lint: allow(payload-type) -- storm token interns 12 names by phase
struct Token final : sim::Payload {
  Token(int phase_in, bool vote_in) : phase(phase_in % 12), vote(vote_in) {}
  [[nodiscard]] const char* type_name() const override {
    return kTypes[phase];
  }
  [[nodiscard]] sim::PayloadTypeId type_id() const override {
    static const auto ids = [] {
      std::array<sim::PayloadTypeId, 12> out{};
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = sim::PayloadTypeRegistry::intern(kTypes[i]);
      }
      return out;
    }();
    return ids[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  int phase;
  bool vote;
};

/// Circulates tokens around the ring; every delivered token triggers an
/// all-to-all vote wave. Runs as the leaf of a two-level Mux stack.
class StormCore final : public sim::Component {
 public:
  explicit StormCore(int tokens) : tokens_(tokens) {}

  void on_start(sim::Context& ctx) override {
    next_ = (ctx.id() + 1) % ctx.n();
    for (int k = 0; k < tokens_; ++k) {
      ctx.send(next_, sim::make_payload<Token>(k, false));
    }
  }

  void on_message(sim::Context& ctx, ProcessId,
                  const sim::PayloadPtr& m) override {
    const auto* token = dynamic_cast<const Token*>(m.get());
    if (token == nullptr || token->vote) return;  // votes: absorb
    ++received_;
    ctx.broadcast(sim::make_payload<Token>(static_cast<int>(received_), true));
    ctx.send(next_,
             sim::make_payload<Token>(static_cast<int>(received_), false));
  }

 private:
  int tokens_;
  ProcessId next_ = 0;
  std::uint64_t received_ = 0;
};

class StormMid final : public sim::Mux {
 public:
  explicit StormMid(int tokens) { make_child<StormCore>(tokens); }
};

class StormRoot final : public sim::Mux {
 public:
  explicit StormRoot(int tokens) { make_child<StormMid>(tokens); }
};

}  // namespace storm_detail

struct StormCounts {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
};

/// One storm run: n processes, `tokens_per_process` tokens each, simulated
/// until `horizon`, every send post-GST (so Metrics takes the correct-sender
/// per-type branch on each message).
inline StormCounts run_storm(int n, int tokens_per_process, Time horizon,
                             std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.t = 0;
  cfg.seed = seed;
  cfg.net.gst = 0.0;
  cfg.net.delta = 1.0;
  sim::Simulator simulator(cfg);
  for (ProcessId p = 0; p < n; ++p) {
    simulator.add_process(
        p, std::make_unique<sim::ComponentHost>(
               std::make_unique<storm_detail::StormRoot>(tokens_per_process)));
  }
  StormCounts counts;
  counts.events = simulator.run(horizon);
  counts.messages = simulator.metrics().messages_total();
  return counts;
}

}  // namespace valcon::perfbench
