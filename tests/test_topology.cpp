// Tests for the large-n scaling layer: lazy hold-table and key-registry
// allocation, the Topology axis (parsing, validation, wire gating,
// checkpoint identity), committee scenarios end to end under both cert
// modes (including announce forgery rejection at the crypto layer),
// the committee's message scaling against the Dolev-Reischuk floor, the
// input contract of loglog_slope, and the committee matrix's job-count
// independence down to the emitted bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "valcon/crypto/signatures.hpp"
#include "valcon/harness/net_profile.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"
#include "valcon/harness/topology.hpp"
#include "valcon/sim/network.hpp"

using namespace valcon;
using namespace valcon::harness;

namespace {

// --------------------------------------------------------- lazy hold table
// (test_hot_path checks the table against a reference, and its id range.)

TEST(LazyHoldTable, LinkTablesAllocateLazily) {
  sim::NetworkConfig cfg;
  sim::Network net(cfg, 50, 3);
  EXPECT_EQ(net.link_table_bytes(), 0u);
  // A clean run queries arrivals without ever touching the table.
  for (int i = 0; i < 100; ++i) {
    static_cast<void>(net.arrival_time(i % 50, (i + 1) % 50, 0.1 * i));
  }
  EXPECT_EQ(net.link_table_bytes(), 0u);
  net.hold(0, 1, 4.0);
  EXPECT_GT(net.link_table_bytes(), 0u);
}

TEST(LazyHoldTable, MemoryIsProportionalToActiveLinks) {
  sim::NetworkConfig cfg;
  sim::Network net(cfg, 100000, 1);
  net.hold(0, 99999, 2.0);
  net.hold(99999, 0, 2.0);
  // Two active links on a 10^10-link id space: far below what even one
  // dense row would cost.
  EXPECT_LT(net.link_table_bytes(), 4096u);
}

// ------------------------------------------------------- lazy key registry

TEST(LazyKeyRegistry, DerivesOnlyTouchedSecrets) {
  const crypto::KeyRegistry registry(1000, 667, 42);
  EXPECT_EQ(registry.key_derivations(), 0u);

  const crypto::Hash digest = announce_digest(7);
  const crypto::Signature s0 = registry.signer_for(0).sign(digest);
  const crypto::Signature s1 = registry.signer_for(1).sign(digest);
  EXPECT_EQ(registry.key_derivations(), 2u);

  // Verification of already-derived signers derives nothing new; a fresh
  // signer derives exactly one more slot.
  EXPECT_TRUE(registry.verify(s0));
  EXPECT_TRUE(registry.verify(s1));
  EXPECT_EQ(registry.key_derivations(), 2u);
  EXPECT_TRUE(registry.verify(registry.signer_for(999).sign(digest)));
  EXPECT_EQ(registry.key_derivations(), 3u);
}

TEST(LazyKeyRegistry, DerivationIsAPureFunctionOfSeedAndId) {
  const crypto::KeyRegistry a(50, 34, 9);
  const crypto::KeyRegistry b(50, 34, 9);
  const crypto::Hash digest = announce_digest(3);
  // Touch ids in different orders; signatures must still agree bit-for-bit
  // and cross-verify.
  const crypto::Signature from_a = a.signer_for(20).sign(digest);
  static_cast<void>(b.signer_for(49).sign(digest));
  const crypto::Signature from_b = b.signer_for(20).sign(digest);
  EXPECT_EQ(from_a, from_b);
  EXPECT_TRUE(b.verify(from_a));
}

// ----------------------------------------------------------- topology axis

TEST(TopologyAxis, ParsesNamedForms) {
  EXPECT_TRUE(named_topology("full-mesh").full_mesh());
  const Topology committee = named_topology("committee-10");
  EXPECT_EQ(committee.committee_k, 10);
  EXPECT_EQ(committee.name, "committee-10");
  EXPECT_EQ(Topology::committee_fault_tolerance(10), 3);

  EXPECT_THROW(static_cast<void>(named_topology("committee-0")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(named_topology("committee-")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(named_topology("ring")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(named_topology("")), std::invalid_argument);
}

TEST(TopologyAxis, ValidateRejectsCommitteesLargerThanTheSystem) {
  EXPECT_NO_THROW(named_topology("committee-7").validate(7));
  EXPECT_THROW(named_topology("committee-8").validate(7),
               std::invalid_argument);
  EXPECT_NO_THROW(named_topology("full-mesh").validate(1));
}

TEST(TopologyAxis, WireGatedLikeTheOtherAxes) {
  // Trivial axis (the default full mesh): no tag, no label suffix — the
  // pinned golden sweeps depend on this staying byte-silent.
  const ScenarioMatrix legacy = named_matrix("smoke");
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    const SweepPoint p = legacy.point_at(i);
    EXPECT_TRUE(p.tags[Axis::kTopology].empty());
    EXPECT_EQ(p.label.find("topo="), std::string::npos);
  }

  // Non-trivial axis: every point carries its topology in tag and label,
  // and the outcome line grows a "topology" field.
  const ScenarioMatrix wide = named_matrix("smoke").topologies(
      {"full-mesh", "committee-4"});
  EXPECT_EQ(wide.size(), legacy.size() * 2);
  bool saw_committee = false;
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const SweepPoint p = wide.point_at(i);
    const std::string& tag = p.tags[Axis::kTopology];
    EXPECT_FALSE(tag.empty());
    EXPECT_NE(p.label.find("topo=" + tag), std::string::npos);
    if (tag == "committee-4") saw_committee = true;
  }
  EXPECT_TRUE(saw_committee);
}

// ----------------------------------------------------- committee scenarios

SweepPoint committee_point(int n, int t, const std::string& topology,
                           core::CertMode mode, VcKind vc,
                           std::uint64_t seed) {
  return ScenarioMatrix()
      .vc_kinds({vc})
      .validities({ValidityKind::kStrong})
      .patterns({"unanimous"})
      .faults({FaultSpec{"silent", 0}})
      .sizes({{n, t}})
      .topologies({topology})
      .cert_modes({mode})
      .seeds({seed})
      .point_at(0);
}

TEST(CommitteeScenario, EveryProcessDecidesUnderBothCertModes) {
  for (const core::CertMode mode :
       {core::CertMode::kPerVote, core::CertMode::kAggregate}) {
    for (const VcKind vc :
         {VcKind::kAuthenticated, VcKind::kNonAuthenticated}) {
      const SweepOutcome o =
          run_point(committee_point(25, 8, "committee-7", mode, vc, 1));
      ASSERT_TRUE(o.error.empty()) << o.error;
      EXPECT_TRUE(o.result.agreement());
      // Strong validity with unanimous proposals: listeners included, all
      // 25 processes decide the proposed value.
      EXPECT_EQ(o.result.decisions.size(), 25u);
      ASSERT_TRUE(o.result.common_decision().has_value());
    }
  }
}

TEST(CommitteeScenario, MessageComplexityBeatsFullMeshAtScale) {
  const SweepOutcome mesh = run_point(committee_point(
      60, 19, "full-mesh", core::CertMode::kAggregate,
      VcKind::kAuthenticated, 1));
  const SweepOutcome committee = run_point(committee_point(
      60, 19, "committee-7", core::CertMode::kAggregate,
      VcKind::kAuthenticated, 1));
  ASSERT_TRUE(mesh.error.empty()) << mesh.error;
  ASSERT_TRUE(committee.error.empty()) << committee.error;
  EXPECT_EQ(committee.result.decisions.size(), 60u);
  EXPECT_LT(committee.result.messages_total * 5,
            mesh.result.messages_total)
      << "the committee overlay should cut traffic by far more than 5x "
         "at n=60";
}

// Replaces the former CI bench-smoke gate on committee scaling, thresholds
// unchanged. One committee-7 cell (auth stack, aggregate certificates,
// unanimous, fault-free, seed 1) per n in {10, 50, 100, 500, 1000}, at the
// full-mesh tolerance t = (n-1)/3: every process decides, the fitted
// log-log exponent of messages over n stays below 2 (measured 0.618), and
// at n = 1000 the committee sends fewer messages than the (ceil(t/2))^2
// Dolev-Reischuk floor a full-mesh protocol pays (measured 3,168 against
// 27,889).
TEST(CommitteeScenario, MessagesGrowSubquadraticallyAndStayUnderTheFloor) {
  std::vector<double> ns;
  std::vector<double> messages;
  int t = 0;
  for (const int n : {10, 50, 100, 500, 1000}) {
    t = (n - 1) / 3;
    const SweepOutcome o = run_point(
        committee_point(n, t, "committee-7", core::CertMode::kAggregate,
                        VcKind::kAuthenticated, 1));
    ASSERT_TRUE(o.error.empty()) << o.error;
    EXPECT_EQ(o.result.decisions.size(), static_cast<std::size_t>(n));
    ns.push_back(static_cast<double>(n));
    messages.push_back(static_cast<double>(o.result.messages_total));
  }
  EXPECT_LT(loglog_slope(ns, messages), 2.0);
  // The loop ends at n = 1000, t = 333.
  const auto half = static_cast<double>((t + 1) / 2);
  EXPECT_LT(messages.back(), half * half);
}

TEST(CommitteeScenario, CommitteeTooLargeForSystemIsAValidationError) {
  const SweepOutcome o = run_point(committee_point(
      4, 1, "committee-7", core::CertMode::kPerVote, VcKind::kAuthenticated,
      1));
  EXPECT_FALSE(o.error.empty());
}

TEST(CommitteeScenario, AnnounceDigestBindsTheValue) {
  const auto keys = shared_key_registry(7, 5, 1);
  const crypto::Signature sig =
      keys->signer_for(0).sign(announce_digest(4));
  EXPECT_TRUE(keys->verify(sig));

  // A forged announce re-targeting the signature at another value dies at
  // verification: the digest listeners recompute no longer matches.
  crypto::Signature forged = sig;
  forged.digest = announce_digest(5);
  EXPECT_FALSE(keys->verify(forged));

  // And a signature from outside the committee registry (different seed →
  // different key universe) never verifies.
  const auto other = shared_key_registry(7, 5, 2);
  EXPECT_FALSE(keys->verify(other->signer_for(0).sign(announce_digest(4))));
}

// ------------------------------------------------------- scaling exponent

TEST(LoglogSlope, RecoversAnExactPowerLaw) {
  // y = x^2 on a log-spaced grid.
  EXPECT_NEAR(loglog_slope({1, 2, 4, 8, 16}, {1, 4, 16, 64, 256}), 2.0,
              1e-12);
}

TEST(LoglogSlope, RejectsSeriesWithoutADefinedSlope) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      bad = {
          {{1, 2, 4}, {1, 2}},       // unequal lengths: reads past ys
          {{1}, {1}},                // one point
          {{}, {}},                  // no points
          {{3, 3, 3}, {1, 2, 4}},    // all-equal xs: zero denominator
          {{1, 2, 4}, {1, 0, 4}},    // log(0)
          {{-1, 2, 4}, {1, 2, 4}},   // log of a negative
          {{1, 2, 4}, {1, nan, 4}},  // NaN
      };
  for (const auto& [xs, ys] : bad) {
    EXPECT_THROW(static_cast<void>(loglog_slope(xs, ys)),
                 std::invalid_argument)
        << xs.size() << " xs, " << ys.size() << " ys";
  }
}

// ----------------------------------------------- committee matrix identity

TEST(CommitteeMatrix, OutcomeBytesAreIdenticalAcrossJobCounts) {
  // One topology slice of the committee matrix (n up to 200, both cert
  // modes); CI byte-compares the full matrix across --jobs via the CLI.
  const ScenarioMatrix matrix =
      named_matrix("committee").keep(Axis::kTopology, {"committee-7"});
  ASSERT_GT(matrix.size(), 0u);
  const auto render = [&](int jobs) {
    std::string all;
    SweepRunner(jobs).run_range(matrix, 0, matrix.size(),
                                [&](SweepOutcome&& o) {
                                  all += io::outcome_line(o);
                                  all += '\n';
                                });
    return all;
  };
  const std::string jobs1 = render(1);
  EXPECT_EQ(jobs1, render(4));
  EXPECT_EQ(jobs1, render(8));
  EXPECT_NE(jobs1.find("\"topology\": \"committee-7\""), std::string::npos);
}

// ------------------------------------------------- sampled overlay profile

TEST(SampledOverlay, MembershipIsDeterministicAndSymmetric) {
  const NetworkProfile profile = named_network_profile("sampled-overlay");
  const sim::Network::DelayPolicy policy = profile.make_delay_policy(5.0);
  ASSERT_TRUE(static_cast<bool>(policy));

  int fast = 0, slow = 0;
  for (ProcessId a = 0; a < 40; ++a) {
    EXPECT_FALSE(policy(a, a, 1.0).has_value()) << "self-links stay fast";
    for (ProcessId b = a + 1; b < 40; ++b) {
      const std::optional<Time> fwd = policy(a, b, 1.0);
      const std::optional<Time> rev = policy(b, a, 9.0);
      EXPECT_EQ(fwd.has_value(), rev.has_value())
          << "overlay membership must be undirected";
      (fwd.has_value() ? slow : fast) += 1;
    }
  }
  // keep_permille=500: both classes are well represented at 780 pairs.
  EXPECT_GT(fast, 200);
  EXPECT_GT(slow, 200);
}

}  // namespace
