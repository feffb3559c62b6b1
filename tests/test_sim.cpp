// Unit tests: the discrete-event simulator — partial synchrony guarantees,
// metrics accounting (Section 3.1's message complexity definition), timers,
// determinism, and the Mux protocol-composition layer.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "valcon/sim/adversary.hpp"
#include "valcon/sim/component.hpp"
#include "valcon/sim/simulator.hpp"

using namespace valcon;
using namespace valcon::sim;

namespace {

struct Ping final : Payload {
  explicit Ping(int seq_in = 0) : seq(seq_in) {}
  VALCON_PAYLOAD_TYPE("ping")
  int seq;
};

/// Records every delivery with its time.
class Recorder final : public Process {
 public:
  struct Event {
    ProcessId from;
    Time at;
    int seq;
  };
  std::vector<Event> events;

  void on_message(Context& ctx, ProcessId from, const PayloadPtr& m) override {
    const auto* ping = dynamic_cast<const Ping*>(m.get());
    events.push_back({from, ctx.now(), ping != nullptr ? ping->seq : -1});
  }
};

/// Broadcasts `count` pings at start, spaced by timers.
class Pinger final : public Process {
 public:
  explicit Pinger(int count) : remaining_(count) {}

  void on_start(Context& ctx) override { fire(ctx); }
  void on_timer(Context& ctx, std::uint64_t) override { fire(ctx); }

 private:
  void fire(Context& ctx) {
    if (remaining_-- <= 0) return;
    ctx.broadcast(make_payload<Ping>(remaining_));
    ctx.set_timer(1.0, 1);
  }
  int remaining_;
};

SimConfig basic_config(int n, int t, Time gst = 0.0, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.seed = seed;
  cfg.net.gst = gst;
  cfg.net.delta = 1.0;
  return cfg;
}

}  // namespace

TEST(Network, PostGstDeliveryWithinDelta) {
  Simulator sim(basic_config(3, 1, /*gst=*/0.0));
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  sim.add_process(0, std::make_unique<Pinger>(10));
  sim.add_process(1, std::move(recorder));
  sim.add_process(2, std::make_unique<SilentProcess>());
  sim.run();
  ASSERT_EQ(rec->events.size(), 10u);
  // sends happen at integer times 0..9; each must arrive within delta.
  for (const auto& e : rec->events) {
    const double send_time = std::floor(e.at);
    EXPECT_LE(e.at - send_time, 1.0 + 1e-9);
  }
}

TEST(Network, PreGstDeliveryByGstPlusDelta) {
  Simulator sim(basic_config(3, 1, /*gst=*/100.0));
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  sim.add_process(0, std::make_unique<Pinger>(5));
  sim.add_process(1, std::move(recorder));
  sim.add_process(2, std::make_unique<SilentProcess>());
  sim.network().hold(0, 1, 1e9);  // adversary: delay as long as possible
  sim.run();
  ASSERT_EQ(rec->events.size(), 5u);
  for (const auto& e : rec->events) {
    EXPECT_LE(e.at, 100.0 + 1.0 + 1e-9);  // clipped at GST + delta
    EXPECT_GE(e.at, 100.0);               // the hold was honored until GST
  }
}

TEST(Network, HoldDelaysDelivery) {
  Simulator sim(basic_config(3, 1, /*gst=*/100.0));
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  sim.add_process(0, std::make_unique<Pinger>(1));
  sim.add_process(1, std::move(recorder));
  sim.add_process(2, std::make_unique<SilentProcess>());
  sim.network().hold(0, 1, 50.0);
  sim.run();
  ASSERT_EQ(rec->events.size(), 1u);
  EXPECT_GE(rec->events[0].at, 50.0);
}

TEST(Network, BlockedFaultySenderDropsMessages) {
  Simulator sim(basic_config(3, 1));
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  sim.mark_faulty(0);
  sim.network().block(0, 1);
  sim.add_process(0, std::make_unique<Pinger>(3));
  sim.add_process(1, std::move(recorder));
  sim.add_process(2, std::make_unique<SilentProcess>());
  sim.run();
  EXPECT_TRUE(rec->events.empty());
}

TEST(Metrics, CountsOnlyCorrectSendersAtOrAfterGst) {
  Simulator sim(basic_config(3, 1, /*gst=*/5.5));
  sim.mark_faulty(1);
  sim.add_process(0, std::make_unique<Pinger>(10));  // sends at t = 0..9
  sim.add_process(1, std::make_unique<Pinger>(10));  // faulty: never counted
  sim.add_process(2, std::make_unique<SilentProcess>());
  sim.run();
  // P0 broadcasts to 3 processes at t in {6,7,8,9} post-GST: 4 * 3 = 12.
  EXPECT_EQ(sim.metrics().message_complexity(), 12u);
  EXPECT_EQ(sim.metrics().messages_total(), 60u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto run_once = [] {
    Simulator sim(basic_config(4, 1, 0.0, /*seed=*/42));
    auto recorder = std::make_unique<Recorder>();
    Recorder* rec = recorder.get();
    sim.add_process(0, std::make_unique<Pinger>(20));
    sim.add_process(1, std::move(recorder));
    sim.add_process(2, std::make_unique<Pinger>(20));
    sim.add_process(3, std::make_unique<SilentProcess>());
    sim.run();
    std::vector<double> times;
    for (const auto& e : rec->events) times.push_back(e.at);
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, SeedChangesSchedule) {
  const auto run_once = [](std::uint64_t seed) {
    Simulator sim(basic_config(4, 1, 0.0, seed));
    auto recorder = std::make_unique<Recorder>();
    Recorder* rec = recorder.get();
    sim.add_process(0, std::make_unique<Pinger>(20));
    sim.add_process(1, std::move(recorder));
    sim.add_process(2, std::make_unique<SilentProcess>());
    sim.add_process(3, std::make_unique<SilentProcess>());
    sim.run();
    std::vector<double> times;
    for (const auto& e : rec->events) times.push_back(e.at);
    return times;
  };
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(Simulator, RejectsOutOfRangeProcessIds) {
  Simulator sim(basic_config(4, 1));
  EXPECT_THROW(sim.mark_faulty(-1), std::out_of_range);
  EXPECT_THROW(sim.mark_faulty(4), std::out_of_range);
  EXPECT_THROW(static_cast<void>(sim.is_faulty(-1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(sim.is_faulty(4)), std::out_of_range);
  EXPECT_THROW(sim.add_process(-1, std::make_unique<SilentProcess>()),
               std::out_of_range);
  EXPECT_THROW(sim.add_process(4, std::make_unique<SilentProcess>()),
               std::out_of_range);
  // In-range ids still work, and marking one process faulty is visible.
  sim.add_process(0, std::make_unique<SilentProcess>());
  sim.mark_faulty(0);
  EXPECT_TRUE(sim.is_faulty(0));
  EXPECT_FALSE(sim.is_faulty(3));
}

TEST(Simulator, RejectsDuplicateAndNullProcesses) {
  Simulator sim(basic_config(4, 1));
  sim.add_process(2, std::make_unique<SilentProcess>());
  EXPECT_THROW(sim.add_process(2, std::make_unique<SilentProcess>()),
               std::invalid_argument);
  EXPECT_THROW(sim.add_process(1, nullptr), std::invalid_argument);
}

TEST(Simulator, RejectsInvalidConfig) {
  EXPECT_THROW(Simulator(basic_config(0, 0)), std::invalid_argument);
  EXPECT_THROW(Simulator(basic_config(4, 4)), std::invalid_argument);
  EXPECT_THROW(Simulator(basic_config(4, -1)), std::invalid_argument);
}

TEST(Simulator, NoDeliveryBeforeLocalStart) {
  Simulator sim(basic_config(2, 1));
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  sim.add_process(0, std::make_unique<Pinger>(1));
  sim.add_process(1, std::move(recorder), /*start_time=*/1000.0);
  sim.run();
  EXPECT_TRUE(rec->events.empty());  // delivered before P1 started: dropped
}

// ------------------------------------------------------------------ Mux

namespace {

/// Child component: echoes every ping back to the sender with seq + 1.
class EchoChild final : public Component {
 public:
  int received = 0;
  void on_message(Context& ctx, ProcessId from, const PayloadPtr& m) override {
    const auto* ping = dynamic_cast<const Ping*>(m.get());
    if (ping == nullptr) return;
    ++received;
    if (ping->seq < 3) ctx.send(from, make_payload<Ping>(ping->seq + 1));
  }
};

class ParentMux final : public Mux {
 public:
  ParentMux() { child_ = &make_child<EchoChild>(); }
  EchoChild* child_ = nullptr;
  int own_received = 0;

 protected:
  void own_start(Context& ctx) override {
    // Kick off: parent-level ping to peer, child-level ping to peer.
    if (ctx.id() == 0) {
      ctx.send(1, make_payload<Ping>(0));
      child_context(0).send(1, make_payload<Ping>(0));
    }
  }
  void own_message(Context&, ProcessId, const PayloadPtr& m) override {
    if (dynamic_cast<const Ping*>(m.get()) != nullptr) ++own_received;
  }
};

}  // namespace

TEST(Mux, RoutesChildAndOwnMessagesSeparately) {
  Simulator sim(basic_config(2, 1));
  auto host0 = std::make_unique<ComponentHost>(std::make_unique<ParentMux>());
  auto host1 = std::make_unique<ComponentHost>(std::make_unique<ParentMux>());
  auto* mux0 = dynamic_cast<ParentMux*>(&host0->root());
  auto* mux1 = dynamic_cast<ParentMux*>(&host1->root());
  sim.add_process(0, std::move(host0));
  sim.add_process(1, std::move(host1));
  sim.run();
  // P0's parent ping arrives at P1's own_message (not the child).
  EXPECT_EQ(mux1->own_received, 1);
  // Child pings bounce seq 0 -> 1 -> 2 -> 3: P1's child sees 0 and 2,
  // P0's child sees 1 and 3.
  EXPECT_EQ(mux1->child_->received, 2);
  EXPECT_EQ(mux0->child_->received, 2);
  EXPECT_EQ(mux0->own_received, 0);
}

TEST(TwoFaced, RoutesSelfMessagesToOriginatingFace) {
  // Face 0 talks to side {0}, face 1 to side {1}; each face broadcasts, so
  // its self-copy must come back to the same face.
  class SelfCounter final : public Process {
   public:
    int self_msgs = 0;
    void on_start(Context& ctx) override {
      ctx.broadcast(make_payload<Ping>(0));
    }
    void on_message(Context& ctx, ProcessId from, const PayloadPtr&) override {
      if (from == ctx.id()) ++self_msgs;
    }
  };

  Simulator sim(basic_config(3, 1));
  auto face0 = std::make_unique<SelfCounter>();
  auto face1 = std::make_unique<SelfCounter>();
  auto* f0 = face0.get();
  auto* f1 = face1.get();
  sim.mark_faulty(2);
  sim.add_process(0, std::make_unique<SilentProcess>());
  sim.add_process(1, std::make_unique<SilentProcess>());
  sim.add_process(
      2, std::make_unique<FacedProcess>(
             std::move(face0), std::move(face1),
             [](ProcessId p, Time) { return p == 1 ? 1 : 0; }));
  sim.run();
  EXPECT_EQ(f0->self_msgs, 1);
  EXPECT_EQ(f1->self_msgs, 1);
}

TEST(FilterShim, IgnoresFirstKMessages) {
  Simulator sim(basic_config(2, 1));
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  sim.mark_faulty(1);
  sim.add_process(0, std::make_unique<Pinger>(5));
  sim.add_process(1, std::make_unique<FilterShim>(
                         std::move(recorder),
                         FilterShim::Hooks{.inbound = ignore_first(3)}));
  sim.run();
  EXPECT_EQ(rec->events.size(), 2u);  // 5 sent, first 3 ignored
}

TEST(FilterShim, NestsAroundFacedProcess) {
  // Omission plus equivocation: a filter that never sends to process 1,
  // around two faces that announce different values to {0, 1} and {2}.
  class Announcer final : public Process {
   public:
    explicit Announcer(int seq) : seq_(seq) {}
    void on_start(Context& ctx) override {
      ctx.broadcast(make_payload<Ping>(seq_));
    }

   private:
    int seq_;
  };
  Simulator sim(basic_config(4, 1));
  std::vector<Recorder*> recs;
  for (ProcessId p = 0; p < 3; ++p) {
    auto rec = std::make_unique<Recorder>();
    recs.push_back(rec.get());
    sim.add_process(p, std::move(rec));
  }
  sim.mark_faulty(3);
  sim.add_process(
      3, std::make_unique<FilterShim>(
             std::make_unique<FacedProcess>(
                 std::make_unique<Announcer>(7), std::make_unique<Announcer>(9),
                 [](ProcessId p, Time) { return p < 2 ? 0 : 1; }),
             FilterShim::Hooks{.outbound = omit_to({1})}));
  sim.run();
  ASSERT_EQ(recs[0]->events.size(), 1u);
  EXPECT_EQ(recs[0]->events[0].seq, 7);
  EXPECT_TRUE(recs[1]->events.empty());
  ASSERT_EQ(recs[2]->events.size(), 1u);
  EXPECT_EQ(recs[2]->events[0].seq, 9);
}

TEST(Rng, ForkIndependence) {
  Rng a(7);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
  // uniform stays in range
  Rng c(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = c.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LE(x, 3.0);
  }
}
