// Heap-allocation budgets, counted by a replaced global operator new (which
// is why these tests live in a binary of their own). The simulator's
// per-message path must not allocate: the perfbench token storm stays
// under 0.01 allocations per message. BinaryConsensus keeps its vote
// tallies in inline voter bitsets, so a vote that lands in a round it
// already tracks must not touch the heap; a whole non-authenticated cell
// gets a fixed allocation cap per certificate mode.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "../perfbench/storm.hpp"
#include "valcon/consensus/binary_consensus.hpp"
#include "valcon/core/lambda.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/harness/validity_kind.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC cannot see that the replaced operator new below is itself
// malloc-based and flags the free() in operator delete as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace valcon {
namespace {

using consensus::BinaryConsensus;

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

/// A Context that only counts what the engine asks of it, so the counting
/// itself never allocates.
class CountingContext final : public sim::Context {
 public:
  CountingContext(int n, int t)
      : n_(n), t_(t), keys_(n, n - t, 1), signer_(keys_.signer_for(0)),
        rng_(1) {}

  [[nodiscard]] Time now() const override { return 0.0; }
  [[nodiscard]] ProcessId id() const override { return 0; }
  [[nodiscard]] int n() const override { return n_; }
  [[nodiscard]] int t() const override { return t_; }
  [[nodiscard]] Time delta() const override { return 1.0; }
  void send(ProcessId, sim::PayloadPtr) override { ++sends; }
  void set_timer(Time, std::uint64_t) override { ++timers; }
  [[nodiscard]] const crypto::KeyRegistry& keys() const override {
    return keys_;
  }
  [[nodiscard]] const crypto::Signer& signer() const override {
    return signer_;
  }
  [[nodiscard]] sim::Rng& rng() override { return rng_; }

  int sends = 0;
  int timers = 0;

 private:
  int n_;
  int t_;
  crypto::KeyRegistry keys_;
  crypto::Signer signer_;
  sim::Rng rng_;
};

/// Heap allocations made by delivering `payload` from `from`; the payload
/// is built before counting starts.
std::uint64_t allocs_of_delivery(BinaryConsensus& engine,
                                 CountingContext& ctx, ProcessId from,
                                 const sim::PayloadPtr& payload) {
  const std::uint64_t before = heap_allocs();
  engine.on_message(ctx, from, payload);
  return heap_allocs() - before;
}

sim::PayloadPtr vote(BinaryConsensus::Wire::Kind kind, std::int64_t round,
                     std::optional<bool> value) {
  BinaryConsensus::Wire w;
  w.kind = kind;
  w.round = round;
  w.value = value;
  return BinaryConsensus::encode(w);
}

// Replaces the former CI bench-smoke gate on the hot-path storm, threshold
// unchanged: heap allocations across the run, per message, stay below
// 0.01. The event and message counts are pinned exactly, as
// perfbench/storm.hpp states them for these arguments. Measured with g++
// 12.2: 1,059 allocations (0.00023 per message), simulator set-up
// included.
TEST(Allocations, StormSendPathAllocatesUnderOneHundredthPerMessage) {
  const std::uint64_t before = heap_allocs();
  const perfbench::StormCounts counts = perfbench::run_storm(8, 4, 8000.0, 7);
  const std::uint64_t allocs = heap_allocs() - before;
  EXPECT_EQ(counts.events, 4605523u);
  ASSERT_EQ(counts.messages, 4605755u);
  RecordProperty("allocs", static_cast<int>(allocs));
  EXPECT_LT(static_cast<double>(allocs) / static_cast<double>(counts.messages),
            0.01)
      << allocs << " allocations";
}

TEST(Allocations, VoteIntoAnExistingRoundAllocatesNothing) {
  using Kind = BinaryConsensus::Wire::Kind;
  CountingContext ctx(7, 2);
  BinaryConsensus engine(nullptr);
  engine.on_start(ctx);  // round 0 exists from here on
  const int sends_at_start = ctx.sends;

  // Below every quorum, so no delivery triggers a send: each one only
  // updates a tally.
  EXPECT_EQ(allocs_of_delivery(engine, ctx, 1, vote(Kind::kPrevote, 0, true)),
            0u);
  EXPECT_EQ(allocs_of_delivery(engine, ctx, 2, vote(Kind::kPrevote, 0, false)),
            0u);
  EXPECT_EQ(
      allocs_of_delivery(engine, ctx, 3, vote(Kind::kPrecommit, 0, std::nullopt)),
      0u);
  EXPECT_EQ(allocs_of_delivery(engine, ctx, 4, vote(Kind::kPrecommit, 0, true)),
            0u);
  // A duplicate is free too.
  EXPECT_EQ(allocs_of_delivery(engine, ctx, 1, vote(Kind::kPrevote, 0, true)),
            0u);
  EXPECT_EQ(ctx.sends, sends_at_start);
}

TEST(Allocations, AVoteOpeningARoundAllocatesOnlyItsNode) {
  using Kind = BinaryConsensus::Wire::Kind;
  CountingContext ctx(7, 2);
  BinaryConsensus engine(nullptr);
  engine.on_start(ctx);
  const int sends_at_start = ctx.sends;
  EXPECT_EQ(allocs_of_delivery(engine, ctx, 5, vote(Kind::kPrevote, 9, true)),
            1u);
  EXPECT_EQ(allocs_of_delivery(engine, ctx, 6, vote(Kind::kPrevote, 9, true)),
            0u);
  EXPECT_EQ(ctx.sends, sends_at_start);
}

// One fault-free non-authenticated cell: n = 7, t = 2, seed 1, mixed
// proposals, Strong validity. Caps sit about 10% above the counts
// measured with g++ 12.2 and libstdc++: 2125 per-vote, 2409 aggregate.
std::uint64_t allocs_of_nonauth_cell(core::CertMode mode) {
  harness::ScenarioConfig cfg;
  cfg.n = 7;
  cfg.t = 2;
  cfg.seed = 1;
  cfg.vc = harness::VcKind::kNonAuthenticated;
  cfg.proposals = {0, 1, 2, 0, 1, 2, 0};
  cfg.cert_mode = mode;
  const auto validity =
      harness::make_validity(harness::ValidityKind::kStrong, cfg.n, cfg.t);
  const core::LambdaFn lambda = core::make_lambda(*validity, cfg.n, cfg.t);
  // Warm the process-wide caches (key registry, payload type ids) once.
  static_cast<void>(harness::run_universal(cfg, lambda));

  const std::uint64_t before = heap_allocs();
  const harness::RunResult result = harness::run_universal(cfg, lambda);
  const std::uint64_t allocs = heap_allocs() - before;
  EXPECT_TRUE(result.all_correct_decided(cfg));
  return allocs;
}

TEST(Allocations, NonauthCellStaysUnderItsCapPerVote) {
  const std::uint64_t allocs =
      allocs_of_nonauth_cell(core::CertMode::kPerVote);
  RecordProperty("allocs", static_cast<int>(allocs));
  EXPECT_LE(allocs, 2340u);
}

TEST(Allocations, NonauthCellStaysUnderItsCapAggregate) {
  const std::uint64_t allocs =
      allocs_of_nonauth_cell(core::CertMode::kAggregate);
  RecordProperty("allocs", static_cast<int>(allocs));
  EXPECT_LE(allocs, 2650u);
}

}  // namespace
}  // namespace valcon
