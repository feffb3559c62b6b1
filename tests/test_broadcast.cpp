// Unit tests: Bracha reliable broadcast (Appendix B.2's primitive) and slow
// broadcast (Algorithm 4), driven directly on the simulator.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "valcon/bcast/brb.hpp"
#include "valcon/bcast/slow_broadcast.hpp"
#include "valcon/sim/adversary.hpp"
#include "valcon/sim/component.hpp"
#include "valcon/sim/simulator.hpp"

using namespace valcon;
using namespace valcon::sim;
using bcast::ReliableBroadcast;
using bcast::SlowBroadcast;

namespace {

using Bytes = std::vector<std::uint8_t>;

/// Hosts one BRB instance (sender = 0) and broadcasts at start if sender.
class BrbHost final : public Mux {
 public:
  BrbHost(ProcessId sender, Bytes to_send,
          std::map<ProcessId, Bytes>* delivered)
      : sender_(sender), to_send_(std::move(to_send)), delivered_(delivered) {
    brb_ = &make_child<ReliableBroadcast>(
        sender, [this](Context& ctx, const Bytes& m) {
          (*delivered_)[ctx.id()] = m;
        });
  }

 protected:
  void own_start(Context& ctx) override {
    if (ctx.id() == sender_ && !to_send_.empty()) {
      brb_->broadcast(child_context(0), to_send_);
    }
  }

 private:
  ProcessId sender_;
  Bytes to_send_;
  std::map<ProcessId, Bytes>* delivered_;
  ReliableBroadcast* brb_;
};

/// A Byzantine BRB sender that equivocates: SENDs m0 to low half, m1 to
/// high half, by running two correct BRB faces.
SimConfig cfg(int n, int t, std::uint64_t seed = 1) {
  SimConfig c;
  c.n = n;
  c.t = t;
  c.seed = seed;
  c.net.delta = 1.0;
  return c;
}

}  // namespace

TEST(Brb, AllCorrectDeliverSendersMessage) {
  Simulator sim(cfg(4, 1));
  std::map<ProcessId, Bytes> delivered;
  const Bytes msg = {1, 2, 3};
  for (ProcessId p = 0; p < 4; ++p) {
    sim.add_process(p, std::make_unique<ComponentHost>(
                           std::make_unique<BrbHost>(0, p == 0 ? msg : Bytes{},
                                                     &delivered)));
  }
  sim.run();
  ASSERT_EQ(delivered.size(), 4u);
  for (const auto& [pid, m] : delivered) EXPECT_EQ(m, msg);
}

TEST(Brb, SilentSenderNobodyDelivers) {
  Simulator sim(cfg(4, 1));
  std::map<ProcessId, Bytes> delivered;
  sim.mark_faulty(0);
  sim.add_process(0, std::make_unique<SilentProcess>());
  for (ProcessId p = 1; p < 4; ++p) {
    sim.add_process(p, std::make_unique<ComponentHost>(
                           std::make_unique<BrbHost>(0, Bytes{}, &delivered)));
  }
  sim.run();
  EXPECT_TRUE(delivered.empty());
}

TEST(Brb, EquivocatingSenderCannotSplitDeliveries) {
  // The sender runs two faces broadcasting different messages to the two
  // halves. BRB Consistency: no two correct processes deliver different
  // messages (they may deliver nothing).
  Simulator sim(cfg(4, 1));
  std::map<ProcessId, Bytes> delivered;
  sim.mark_faulty(0);
  auto face0 = std::make_unique<ComponentHost>(
      std::make_unique<BrbHost>(0, Bytes{7}, &delivered));
  auto face1 = std::make_unique<ComponentHost>(
      std::make_unique<BrbHost>(0, Bytes{9}, &delivered));
  sim.add_process(0, std::make_unique<FacedProcess>(
                         std::move(face0), std::move(face1),
                         [](ProcessId p, Time) { return p <= 1 ? 0 : 1; }));
  for (ProcessId p = 1; p < 4; ++p) {
    sim.add_process(p, std::make_unique<ComponentHost>(
                           std::make_unique<BrbHost>(0, Bytes{}, &delivered)));
  }
  sim.run(1e5);
  delivered.erase(0);
  std::optional<Bytes> seen;
  for (const auto& [pid, m] : delivered) {
    if (seen.has_value()) {
      EXPECT_EQ(m, *seen) << "consistency violated";
    }
    seen = m;
  }
}

TEST(Brb, TotalityFromPartialReadySet) {
  // If one correct process delivers, all correct processes deliver — even
  // when the sender crashes right after its SEND wave reaches only some.
  Simulator sim(cfg(4, 1));
  std::map<ProcessId, Bytes> delivered;
  const Bytes msg = {5};
  auto sender_host = std::make_unique<ComponentHost>(
      std::make_unique<BrbHost>(0, msg, &delivered));
  sim.mark_faulty(0);
  // Crash shortly after start: SEND goes out (t=0), then silence.
  sim.add_process(0, std::make_unique<FilterShim>(
                         std::move(sender_host),
                         FilterShim::Hooks{.stop = 0.5}));
  for (ProcessId p = 1; p < 4; ++p) {
    sim.add_process(p, std::make_unique<ComponentHost>(
                           std::make_unique<BrbHost>(0, Bytes{}, &delivered)));
  }
  sim.run(1e5);
  delivered.erase(0);
  // Either nobody or everybody (here: everybody, since SEND reached all
  // three correct processes before the crash).
  if (!delivered.empty()) {
    EXPECT_EQ(delivered.size(), 3u);
    for (const auto& [pid, m] : delivered) EXPECT_EQ(m, msg);
  }
}

TEST(Brb, MessageComplexityQuadratic) {
  for (const int n : {4, 7, 10}) {
    Simulator sim(cfg(n, (n - 1) / 3));
    std::map<ProcessId, Bytes> delivered;
    for (ProcessId p = 0; p < n; ++p) {
      sim.add_process(p, std::make_unique<ComponentHost>(
                             std::make_unique<BrbHost>(
                                 0, p == 0 ? Bytes{1} : Bytes{}, &delivered)));
    }
    sim.run();
    // SEND n + ECHO n^2 + READY n^2 (+/- self deliveries).
    EXPECT_LE(sim.metrics().messages_total(),
              static_cast<std::uint64_t>(3 * n * n));
    EXPECT_GE(sim.metrics().messages_total(),
              static_cast<std::uint64_t>(2 * n * n));
  }
}

// -------------------------------------------------------- slow broadcast

namespace {

class SlowHost final : public Mux {
 public:
  SlowHost(bool is_sender, std::map<ProcessId, Time>* deliver_times)
      : is_sender_(is_sender), deliver_times_(deliver_times) {
    slow_ = &make_child<SlowBroadcast>(
        [this](Context& ctx, const Bytes&, ProcessId) {
          deliver_times_->emplace(ctx.id(), ctx.now());
        });
  }

 protected:
  void own_start(Context& /*ctx*/) override {
    if (is_sender_) slow_->broadcast(child_context(0), Bytes{42});
  }

 private:
  bool is_sender_;
  std::map<ProcessId, Time>* deliver_times_;
  SlowBroadcast* slow_;
};

}  // namespace

TEST(SlowBroadcast, PacingGrowsWithSenderIndex) {
  // Sender P2 over n = 4 waits delta * 4^2 = 16 between sends: the last
  // recipient hears it no earlier than 3 * 16 = 48.
  Simulator sim(cfg(4, 1));
  std::map<ProcessId, Time> times;
  for (ProcessId p = 0; p < 4; ++p) {
    sim.add_process(p, std::make_unique<ComponentHost>(
                           std::make_unique<SlowHost>(p == 2, &times)));
  }
  sim.run();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_GE(times.at(3), 48.0);
  EXPECT_LE(times.at(0), 2.0);  // first recipient hears immediately
}

TEST(SlowBroadcast, SenderZeroIsFast) {
  Simulator sim(cfg(4, 1));
  std::map<ProcessId, Time> times;
  for (ProcessId p = 0; p < 4; ++p) {
    sim.add_process(p, std::make_unique<ComponentHost>(
                           std::make_unique<SlowHost>(p == 0, &times)));
  }
  sim.run();
  ASSERT_EQ(times.size(), 4u);
  // P0 waits only delta between sends: everyone hears within ~n*delta.
  for (const auto& [pid, at] : times) EXPECT_LE(at, 5.0);
}
