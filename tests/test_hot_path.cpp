// Unit tests for the zero-allocation hot-path structures: the Network hold
// table (checked property-style against a reference implementation with
// the historical map semantics), the interned-id Metrics breakdown, the
// payload-type registry, the payload slab's lifetime guarantees, and the
// release-mode validation of Simulator::do_send.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "valcon/harness/scenario.hpp"
#include "valcon/sim/simulator.hpp"

using namespace valcon;
using namespace valcon::sim;

namespace {

// ------------------------------------------------------------- Network

/// The pre-refactor Network's hold semantics, verbatim: map-keyed holds,
/// identical clamping arithmetic and identical Rng consumption. The
/// property test drives it in lock-step with the real Network; any
/// divergence in either the returned arrival or the RNG stream position
/// shows up as a mismatch on some later query.
class ReferenceNetwork {
 public:
  ReferenceNetwork(NetworkConfig config, std::uint64_t seed)
      : config_(config), rng_(seed) {}

  void hold(ProcessId from, ProcessId to, Time until) {
    holds_[{from, to}] = until;
  }
  void set_delay_policy(Network::DelayPolicy policy) {
    policy_ = std::move(policy);
  }

  Time arrival_time(ProcessId from, ProcessId to, Time send_time) {
    const Time lower = send_time + config_.min_delay;
    const Time upper = std::max(send_time, config_.gst) + config_.delta;
    Time arrival;
    std::optional<Time> custom;
    if (policy_) custom = policy_(from, to, send_time);
    if (custom.has_value()) {
      arrival = *custom;
    } else if (send_time >= config_.gst) {
      arrival = send_time + rng_.uniform(config_.min_delay, config_.delta);
    } else {
      const Time cap = std::max(
          lower, std::min(upper, send_time + config_.default_pre_gst_cap));
      arrival = rng_.uniform(lower, cap);
    }
    if (auto it = holds_.find({from, to}); it != holds_.end()) {
      arrival = std::max(arrival, it->second);
    }
    if (arrival < lower) arrival = lower;
    if (arrival > upper) arrival = upper;
    return arrival;
  }

 private:
  NetworkConfig config_;
  Rng rng_;
  std::map<std::pair<ProcessId, ProcessId>, Time> holds_;
  Network::DelayPolicy policy_;
};

void run_lockstep(Network& flat, ReferenceNetwork& reference, int n,
                  std::uint64_t op_seed, int ops) {
  Rng driver(op_seed);
  for (int op = 0; op < ops; ++op) {
    const auto from = static_cast<ProcessId>(driver.next_below(
        static_cast<std::uint64_t>(n)));
    const auto to = static_cast<ProcessId>(driver.next_below(
        static_cast<std::uint64_t>(n)));
    if (driver.next_below(8) == 0) {
      // hold — repeats on the same link test overwrite-hold
      const Time until = driver.uniform(-5.0, 60.0);
      flat.hold(from, to, until);
      reference.hold(from, to, until);
    } else {  // the hot-path query, pre- and post-GST send times
      const Time send_time = driver.uniform(0.0, 30.0);
      ASSERT_EQ(flat.arrival_time(from, to, send_time),
                reference.arrival_time(from, to, send_time))
          << "op " << op << " link " << from << "->" << to << " send "
          << send_time;
    }
  }
}

TEST(NetworkFlatArrays, MatchesMapSemanticsUnderRandomOps) {
  // Small systems, where holds collide on few links, and one past 64,
  // the size the committee and large-n cells run at.
  for (const int n : {3, 6, 8, 17, 100}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      NetworkConfig config;
      config.gst = 10.0;
      config.delta = 1.0;
      const std::uint64_t net_seed = seed * 7919;
      Network flat(config, n, net_seed);
      ReferenceNetwork reference(config, net_seed);
      run_lockstep(flat, reference, n, seed, 3000);
    }
  }
}

TEST(NetworkFlatArrays, MatchesMapSemanticsWithDelayPolicy) {
  NetworkConfig config;
  config.gst = 10.0;
  const auto policy = [](ProcessId from, ProcessId, Time send_time)
      -> std::optional<Time> {
    // Custom delay on even senders, default path (rng consumption) on odd.
    if (from % 2 == 0) return send_time + 0.25;
    return std::nullopt;
  };
  Network flat(config, 5, 99);
  ReferenceNetwork reference(config, 99);
  flat.set_delay_policy(policy);
  reference.set_delay_policy(policy);
  run_lockstep(flat, reference, 5, 42, 3000);
}

TEST(NetworkFlatArrays, HoldIsClampedToTheModelBound) {
  NetworkConfig config;
  config.gst = 10.0;
  config.delta = 1.0;
  Network net(config, 3, 1);
  net.hold(0, 1, 1e9);
  // max(send, gst) + delta
  EXPECT_EQ(net.arrival_time(0, 1, 2.0), 10.0 + 1.0);
}

TEST(NetworkFlatArrays, LaterHoldOverwritesEarlierHold) {
  NetworkConfig config;
  config.gst = 100.0;
  Network net(config, 3, 1);
  net.hold(0, 1, 50.0);
  net.hold(0, 1, 2.0);  // overwrite with a weaker hold
  EXPECT_LT(net.arrival_time(0, 1, 0.0), 50.0);  // the 50.0 hold is gone
}

TEST(NetworkFlatArrays, HoldBetweenCoversBothDirections) {
  NetworkConfig config;
  config.gst = 100.0;
  Network net(config, 4, 1);
  const std::vector<ProcessId> a{0, 1};
  const std::vector<ProcessId> b{2};
  net.hold_between(a, b, 40.0);
  for (const auto& [from, to] :
       {std::pair<ProcessId, ProcessId>{0, 2}, {2, 0}, {1, 2}, {2, 1}}) {
    EXPECT_GE(net.arrival_time(from, to, 0.0), 40.0) << from << "->" << to;
  }
  // Links within a group are not held.
  EXPECT_LT(net.arrival_time(0, 1, 0.0), 40.0);
}

TEST(NetworkFlatArrays, RejectsOutOfRangeLinkIds) {
  Network net(NetworkConfig{}, 4, 1);
  EXPECT_THROW(net.hold(-1, 0, 1.0), std::out_of_range);
  EXPECT_THROW(net.hold(0, 4, 1.0), std::out_of_range);
  EXPECT_THROW(net.hold(4, 0, 1.0), std::out_of_range);
  EXPECT_THROW(net.hold(0, -1, 1.0), std::out_of_range);
}

// ----------------------------------------------------- payload types

TEST(PayloadTypeRegistry, InternIsIdempotentAndRoundTrips) {
  const PayloadTypeId a = PayloadTypeRegistry::intern("test/hot-path-a");
  const PayloadTypeId b = PayloadTypeRegistry::intern("test/hot-path-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, PayloadTypeRegistry::intern("test/hot-path-a"));
  EXPECT_EQ(PayloadTypeRegistry::name_of(a), "test/hot-path-a");
  EXPECT_EQ(PayloadTypeRegistry::name_of(b), "test/hot-path-b");
  EXPECT_THROW(static_cast<void>(PayloadTypeRegistry::name_of(0xffffffffu)),
               std::out_of_range);
}

struct MacroPayload final : Payload {
  VALCON_PAYLOAD_TYPE("test/macro-payload")
};

TEST(PayloadTypeRegistry, MacroCachesTheInternedId) {
  const MacroPayload p;
  EXPECT_EQ(std::string(p.type_name()), "test/macro-payload");
  EXPECT_EQ(p.type_id(), PayloadTypeRegistry::intern("test/macro-payload"));
  EXPECT_EQ(PayloadTypeRegistry::name_of(p.type_id()), "test/macro-payload");
}

// ------------------------------------------------------------- Metrics

TEST(MetricsInterned, ByTypeMatchesAStringKeyedRecount) {
  const PayloadTypeId a = PayloadTypeRegistry::intern("test/metrics-a");
  const PayloadTypeId b = PayloadTypeRegistry::intern("test/metrics-b");
  const PayloadTypeId c = PayloadTypeRegistry::intern("test/metrics-c");

  Metrics metrics;
  std::map<std::string, std::uint64_t> expected;  // the old data structure
  const auto record = [&](bool correct, bool post_gst, std::size_t words,
                          PayloadTypeId type) {
    metrics.on_send(correct, post_gst, words, type);
    if (correct && post_gst) {
      ++expected[PayloadTypeRegistry::name_of(type)];
    }
  };
  for (int i = 0; i < 100; ++i) record(true, true, 1, a);
  for (int i = 0; i < 31; ++i) record(true, true, 2, b);
  record(false, true, 1, c);   // faulty sender: never in the breakdown
  record(true, false, 1, c);   // pre-GST: never in the breakdown
  record(false, false, 4, a);

  EXPECT_EQ(metrics.by_type(), expected);
  // "test/metrics-c" was only sent faulty/pre-GST, so it must be absent —
  // same as the old map, which only grew keys on the counted branch.
  EXPECT_EQ(metrics.by_type().count("test/metrics-c"), 0u);
  // The breakdown partitions exactly the paper's message complexity.
  std::uint64_t sum = 0;
  for (const auto& [name, count] : metrics.by_type()) sum += count;
  EXPECT_EQ(sum, metrics.message_complexity());
  EXPECT_EQ(metrics.message_complexity(), 131u);
  EXPECT_EQ(metrics.messages_total(), 134u);

  metrics.reset();
  EXPECT_TRUE(metrics.by_type().empty());
}

// -------------------------------------------------------- payload slab

struct SlabPing final : Payload {
  VALCON_PAYLOAD_TYPE("test/slab-ping")
};

class KeepLastPayload final : public Process {
 public:
  explicit KeepLastPayload(PayloadPtr* out) : out_(out) {}
  void on_message(Context&, ProcessId, const PayloadPtr& m) override {
    *out_ = m;
  }

 private:
  PayloadPtr* out_;
};

class SlabPinger final : public Process {
 public:
  void on_start(Context& ctx) override {
    ctx.send(1, make_payload<SlabPing>());
  }
};

TEST(PayloadSlab, PayloadsOutliveTheirSimulator) {
  PayloadPtr kept;
  {
    SimConfig cfg;
    cfg.n = 2;
    cfg.t = 0;
    Simulator sim(cfg);
    sim.add_process(0, std::make_unique<SlabPinger>());
    sim.add_process(1, std::make_unique<KeepLastPayload>(&kept));
    sim.run();
    ASSERT_NE(kept, nullptr);
    EXPECT_GE(sim.payload_slab().blocks_allocated(), 1u);
  }
  // The simulator (and with it the slab owner) is gone; the payload's
  // control block keeps the slab alive. ASan (the CI sanitize job) would
  // flag this as use-after-free if the arena were freed eagerly.
  EXPECT_EQ(std::string(kept->type_name()), "test/slab-ping");
  EXPECT_EQ(kept->type_id(), PayloadTypeRegistry::intern("test/slab-ping"));
}

TEST(PayloadSlab, RecyclesFreedPayloadsInsteadOfGrowing) {
  // A long token run churns through far more payloads than fit in one
  // block; the free lists must keep the block count tiny.
  class TokenRing final : public Process {
   public:
    void on_start(Context& ctx) override {
      ctx.send((ctx.id() + 1) % ctx.n(), make_payload<SlabPing>());
    }
    void on_message(Context& ctx, ProcessId, const PayloadPtr&) override {
      ctx.send((ctx.id() + 1) % ctx.n(), make_payload<SlabPing>());
    }
  };
  SimConfig cfg;
  cfg.n = 4;
  cfg.t = 0;
  Simulator sim(cfg);
  for (ProcessId p = 0; p < 4; ++p) {
    sim.add_process(p, std::make_unique<TokenRing>());
  }
  sim.run(/*horizon=*/2000.0);
  EXPECT_GT(sim.metrics().messages_total(), 10000u);
  EXPECT_LE(sim.payload_slab().blocks_allocated(), 4u);
  EXPECT_EQ(sim.payload_slab().oversize_allocs(), 0u);
}

// ------------------------------------------------- do_send validation

class WildSender final : public Process {
 public:
  explicit WildSender(ProcessId to) : to_(to) {}
  void on_start(Context& ctx) override {
    ctx.send(to_, make_payload<SlabPing>());
  }

 private:
  ProcessId to_;
};

TEST(Simulator, OutOfRangeSendThrowsInEveryBuildType) {
  // This used to be assert-only: a Byzantine shim sending to a bogus id
  // indexed faulty_ out of bounds in release builds.
  for (const ProcessId bogus : {-1, 4, 1000}) {
    SimConfig cfg;
    cfg.n = 4;
    cfg.t = 1;
    Simulator sim(cfg);
    sim.add_process(0, std::make_unique<WildSender>(bogus));
    EXPECT_THROW(sim.run(), std::out_of_range) << "to=" << bogus;
  }
}

// --------------------------------------------------- shared key cache

TEST(SharedKeyRegistry, ReturnsTheSameInstancePerTriple) {
  const auto a = harness::shared_key_registry(4, 3, 17);
  const auto b = harness::shared_key_registry(4, 3, 17);
  const auto c = harness::shared_key_registry(7, 5, 17);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->n(), 4);
  EXPECT_EQ(a->threshold_k(), 3);
  EXPECT_EQ(a->seed(), 17u);
}

TEST(SharedKeyRegistry, CachedRegistrySignsIdenticallyToAFreshOne) {
  const auto shared = harness::shared_key_registry(4, 3, 21);
  const crypto::KeyRegistry fresh(4, 3, 21);
  const crypto::Hash digest = crypto::Hasher("test").add("d").finish();
  for (ProcessId p = 0; p < 4; ++p) {
    const crypto::Signature a = shared->signer_for(p).sign(digest);
    const crypto::Signature b = fresh.signer_for(p).sign(digest);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(fresh.verify(a));
    EXPECT_TRUE(shared->verify(b));
  }
}

TEST(Simulator, RejectsAMismatchedSharedKeyRegistry) {
  SimConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = 5;
  cfg.keys = harness::shared_key_registry(4, 3, 6);  // wrong seed
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
  cfg.keys = harness::shared_key_registry(7, 3, 5);  // wrong n
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
  cfg.keys = harness::shared_key_registry(4, 2, 5);  // wrong threshold
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
  cfg.keys = harness::shared_key_registry(4, 3, 5);  // matches n - t, seed
  Simulator sim(cfg);
  EXPECT_EQ(&sim.keys(), cfg.keys.get());
}

// ------------------------------------------------------- event order

TEST(EventQueue, EqualTimeEventsFireInInsertionOrder) {
  // The (time, seq) order the old priority_queue comparator induced must
  // survive the calendar-queue swap: many timers armed for the same
  // instant fire in the order they were set.
  class TagRecorder final : public Process {
   public:
    explicit TagRecorder(std::vector<std::uint64_t>* out) : out_(out) {}
    void on_start(Context& ctx) override {
      for (std::uint64_t tag = 0; tag < 32; ++tag) {
        ctx.set_timer(1.0, tag);
      }
    }
    void on_timer(Context&, std::uint64_t tag) override {
      out_->push_back(tag);
    }

   private:
    std::vector<std::uint64_t>* out_;
  };
  SimConfig cfg;
  cfg.n = 1;
  cfg.t = 0;
  Simulator sim(cfg);
  std::vector<std::uint64_t> fired;
  sim.add_process(0, std::make_unique<TagRecorder>(&fired));
  sim.run();
  ASSERT_EQ(fired.size(), 32u);
  for (std::uint64_t tag = 0; tag < 32; ++tag) EXPECT_EQ(fired[tag], tag);
}

TEST(EventQueue, FarFutureEventsInterleaveNearOnesInExactTimeOrder) {
  // Exercises the calendar queue's overflow heap and window-advance path:
  // delays spanning many bucket windows (the window covers 8 * delta),
  // sitting exactly on window boundaries, duplicated (tie-broken by
  // insertion seq), and clustered tightly — the firing order must be the
  // stable sort of the delays.
  const std::vector<Time> delays = {
      0.1,   500.0, 8.0,  7.999, 8.001, 0.1,  1000.5, 64.0, 64.0,
      3.125, 0.001, 16.0, 999.5, 0.1,   72.0, 8.0,    2.75, 1000.5};
  class Arm final : public Process {
   public:
    Arm(const std::vector<Time>* delays, std::vector<std::uint64_t>* out)
        : delays_(delays), out_(out) {}
    void on_start(Context& ctx) override {
      for (std::size_t i = 0; i < delays_->size(); ++i) {
        ctx.set_timer((*delays_)[i], i);
      }
    }
    void on_timer(Context&, std::uint64_t tag) override {
      out_->push_back(tag);
    }

   private:
    const std::vector<Time>* delays_;
    std::vector<std::uint64_t>* out_;
  };
  SimConfig cfg;
  cfg.n = 1;
  cfg.t = 0;
  Simulator sim(cfg);
  std::vector<std::uint64_t> fired;
  sim.add_process(0, std::make_unique<Arm>(&delays, &fired));
  sim.run();

  std::vector<std::uint64_t> expected(delays.size());
  for (std::uint64_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [&delays](std::uint64_t a, std::uint64_t b) {
                     return delays[a] < delays[b];
                   });
  EXPECT_EQ(fired, expected);
}

}  // namespace
