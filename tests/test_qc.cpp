// Quorum-certificate layer (core/quorum.hpp + the aggregatable scheme in
// crypto/signatures.hpp): aggregate construction and rejection cases,
// collector tallying and speculative aggregation, the wire payload's word
// accounting, end-to-end aggregate-mode decisions on every protocol stack,
// per-vote/aggregate decision equivalence, forge-qc honest rejection, and
// job-count determinism of aggregate-mode sweeps (the "certs" matrix cells
// carry verifies_total, so the byte comparison covers the verify tally).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "valcon/core/quorum.hpp"
#include "valcon/crypto/hash.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/harness/search.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"

using namespace valcon;
using namespace valcon::core;

namespace {

crypto::Hash digest_of(const char* text) {
  return crypto::Hasher("test/qc").add(std::string_view(text)).finish();
}

std::vector<crypto::Signature> sign_all(const crypto::KeyRegistry& keys,
                                        const crypto::Hash& digest,
                                        const std::vector<ProcessId>& who) {
  std::vector<crypto::Signature> sigs;
  for (const ProcessId id : who) {
    sigs.push_back(keys.signer_for(id).sign(digest));
  }
  return sigs;
}

crypto::VoterBitset bitset_of(int n, const std::vector<ProcessId>& who) {
  crypto::VoterBitset b(n);
  for (const ProcessId id : who) b.set(id);
  return b;
}

}  // namespace

// ------------------------------------------------------------ VoterBitset

TEST(VoterBitset, RejectsNonPositiveCapacityAndOutOfRangeSet) {
  EXPECT_THROW(crypto::VoterBitset(0), std::invalid_argument);
  EXPECT_THROW(crypto::VoterBitset(-3), std::invalid_argument);
  crypto::VoterBitset b(4);
  EXPECT_THROW(b.set(4), std::out_of_range);
  EXPECT_THROW(b.set(-1), std::out_of_range);
  EXPECT_FALSE(b.test(4));
  EXPECT_FALSE(b.test(-1));
}

TEST(VoterBitset, PacksCeilNOver64Words) {
  EXPECT_EQ(crypto::VoterBitset(1).words().size(), 1u);
  EXPECT_EQ(crypto::VoterBitset(64).words().size(), 1u);
  EXPECT_EQ(crypto::VoterBitset(65).words().size(), 2u);
  EXPECT_EQ(crypto::VoterBitset(70).words().size(), 2u);
  crypto::VoterBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_EQ(b.count(), 4);
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
}

TEST(VoterBitset, InsertReportsNewBitsAndKeepsTheCount) {
  // 128 voters fit the inline words; 129 spill to the heap.
  for (const int n : {7, 128, 129, 300}) {
    crypto::VoterBitset b(n);
    EXPECT_TRUE(b.insert(n - 1)) << n;
    EXPECT_FALSE(b.insert(n - 1)) << n;
    EXPECT_TRUE(b.insert(0)) << n;
    b.set(0);
    EXPECT_EQ(b.count(), 2) << n;
    EXPECT_THROW(b.insert(n), std::out_of_range) << n;
    EXPECT_EQ(b.words().size(), static_cast<std::size_t>((n + 63) / 64));
    const crypto::VoterBitset copy = b;
    EXPECT_EQ(copy, b) << n;
    EXPECT_TRUE(copy.test(n - 1)) << n;
    EXPECT_NE(copy, crypto::VoterBitset(n)) << n;
  }
}

// -------------------------------------------------------------- aggregate

TEST(Aggregate, RejectsEmptyMixedDigestAndDuplicateSigner) {
  const crypto::KeyRegistry keys(4, 3, 7);
  const auto d1 = digest_of("alpha");
  const auto d2 = digest_of("beta");
  EXPECT_FALSE(crypto::aggregate({}).has_value());

  auto mixed = sign_all(keys, d1, {0, 1});
  mixed.push_back(keys.signer_for(2).sign(d2));
  EXPECT_FALSE(crypto::aggregate(mixed).has_value());

  auto dup = sign_all(keys, d1, {0, 1});
  dup.push_back(keys.signer_for(1).sign(d1));
  EXPECT_FALSE(crypto::aggregate(dup).has_value());
}

TEST(Aggregate, VerifiesExactVoterSetOnly) {
  const crypto::KeyRegistry keys(7, 5, 11);
  const auto d = digest_of("round-3-value-1");
  const std::vector<ProcessId> voters = {0, 2, 5, 6};
  const auto agg = crypto::aggregate(sign_all(keys, d, voters));
  ASSERT_TRUE(agg.has_value());

  const auto exact = bitset_of(7, voters);
  EXPECT_TRUE(keys.verify_aggregate(exact, *agg));

  // Inflated bitset: one claimed voter the aggregate does not cover.
  auto inflated = exact;
  inflated.set(3);
  EXPECT_FALSE(keys.verify_aggregate(inflated, *agg));

  // Shrunken bitset: one genuine voter dropped from the claim.
  EXPECT_FALSE(keys.verify_aggregate(bitset_of(7, {0, 2, 5}), *agg));

  // Tampered aggregate over the genuine voter set.
  auto tampered = *agg;
  tampered.mac += 1;
  EXPECT_FALSE(keys.verify_aggregate(exact, tampered));

  // Mismatched voter universe (capacity != registry n) and empty bitset.
  EXPECT_FALSE(keys.verify_aggregate(bitset_of(8, voters), *agg));
  EXPECT_FALSE(keys.verify_aggregate(crypto::VoterBitset(7), *agg));
}

TEST(Aggregate, WorksWhenNIsNotAMultipleOf64) {
  const crypto::KeyRegistry keys(70, 47, 3);
  const auto d = digest_of("wide-universe");
  const std::vector<ProcessId> voters = {3, 63, 64, 69};
  const auto agg = crypto::aggregate(sign_all(keys, d, voters));
  ASSERT_TRUE(agg.has_value());
  EXPECT_TRUE(keys.verify_aggregate(bitset_of(70, voters), *agg));
  // The same claim short one second-word voter must fail.
  EXPECT_FALSE(keys.verify_aggregate(bitset_of(70, {3, 63, 64}), *agg));
}

// -------------------------------------------------------- QuorumCollector

TEST(QuorumCollector, DedupesBySignerAndTalliesPerDigest) {
  const crypto::KeyRegistry keys(4, 3, 5);
  const auto d1 = digest_of("one");
  const auto d2 = digest_of("two");
  QuorumCollector c;
  EXPECT_TRUE(c.add(keys.signer_for(0).sign(d1)));
  EXPECT_FALSE(c.add(keys.signer_for(0).sign(d1)));  // repeat ignored
  EXPECT_TRUE(c.add(keys.signer_for(1).sign(d1)));
  EXPECT_TRUE(c.add(keys.signer_for(0).sign(d2)));  // other digest: new tally
  EXPECT_EQ(c.count(d1), 2);
  EXPECT_EQ(c.count(d2), 1);
  EXPECT_EQ(c.digests().size(), 2u);
  EXPECT_EQ(c.partials(d1).size(), 2u);
}

TEST(QuorumCollector, SubQuorumNeverCertifies) {
  const crypto::KeyRegistry keys(4, 3, 5);
  const auto d = digest_of("needs-three");
  QuorumCollector c;
  c.add(keys.signer_for(0).sign(d));
  c.add(keys.signer_for(1).sign(d));
  EXPECT_FALSE(c.certify(d, 4, 3).has_value());
  c.add(keys.signer_for(2).sign(d));
  const auto cert = c.certify(d, 4, 3);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->voters.count(), 3);
  EXPECT_TRUE(keys.verify_aggregate(cert->voters, cert->agg));
}

TEST(QuorumCollector, CertifyVerifiedPrunesAPoisonedBatchOnce) {
  const crypto::KeyRegistry keys(4, 3, 9);
  const auto d = digest_of("poisoned");
  QuorumCollector c;
  c.add(keys.signer_for(0).sign(d));
  crypto::Signature bad = keys.signer_for(1).sign(d);
  bad.mac ^= 0x5a5a;  // a vote signature the registry rejects
  c.add(bad);
  c.add(keys.signer_for(2).sign(d));
  c.add(keys.signer_for(3).sign(d));

  // The first-three batch {0, bad 1, 2} fails its one aggregate check;
  // certify_verified prunes the rejected partial and retries with {0,2,3}.
  const auto cert = certify_verified(c, keys, d, 4, 3);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(cert->voters.test(1));
  EXPECT_TRUE(keys.verify_aggregate(cert->voters, cert->agg));
  EXPECT_EQ(c.count(d), 3);  // the poisoned vote is gone
}

TEST(QuorumCollector, RivalryReportsMarginAndRivalVotes) {
  const crypto::KeyRegistry keys(4, 3, 5);
  const auto d1 = digest_of("winner");
  const auto d2 = digest_of("rival");
  QuorumCollector c;
  c.add(keys.signer_for(0).sign(d1));
  c.add(keys.signer_for(1).sign(d1));
  c.add(keys.signer_for(2).sign(d1));
  c.add(keys.signer_for(3).sign(d2));
  const auto [margin, rival_votes] = c.rivalry(d1);
  EXPECT_EQ(margin, 2);
  EXPECT_EQ(rival_votes, 1u);
}

// ------------------------------------------------ QuorumCertificatePayload

TEST(QuorumCertificatePayload, CountsHeaderAggregateBitsetAndBodyWords) {
  crypto::VoterBitset voters(70);
  voters.set(0);
  const QuorumCertificatePayload p(1, 3, -1, voters, {},
                                   std::vector<std::uint8_t>(9, 0xab));
  EXPECT_STREQ(p.type_name(), "core/quorum-cert");
  // 2 header/aggregate words + 2 bitset words + ceil(9/8) body words.
  EXPECT_EQ(p.size_words(), 6u);
}

// ------------------------------------------------------------- end to end

namespace {

harness::Candidate qc_candidate(harness::VcKind vc, CertMode mode,
                                const std::string& strategy) {
  harness::Candidate c;
  c.strategy = strategy;
  c.vc = vc;
  c.n = 4;
  c.t = 1;
  c.cert = mode;
  c.seed = 2;
  return c;
}

/// Messages and signature checks per decision of one (stack, cert mode)
/// pair, summed over the fault-free n=7, t=2, Strong-validity cells at
/// seeds 1-8.
struct PerDecision {
  double messages = 0.0;
  double verifies = 0.0;
};

PerDecision per_decision(harness::VcKind vc, CertMode mode) {
  const harness::ScenarioMatrix matrix =
      harness::ScenarioMatrix()
          .vc_kinds({vc})
          .validities({harness::ValidityKind::kStrong})
          .faults({harness::FaultSpec{"silent", 0}})
          .sizes({{7, 2}})
          .cert_modes({mode})
          .seeds({1, 2, 3, 4, 5, 6, 7, 8});
  std::uint64_t decisions = 0;
  std::uint64_t messages = 0;
  std::uint64_t verifies = 0;
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const harness::SweepOutcome o = harness::run_point(matrix.point_at(i));
    EXPECT_TRUE(o.error.empty()) << o.error;
    decisions += o.result.decisions.size();
    messages += o.result.messages_total;
    verifies += o.result.verifies_total;
  }
  EXPECT_GT(decisions, 0u) << harness::vc_token(vc) << " "
                           << cert_mode_token(mode);
  if (decisions == 0) return {};
  const auto d = static_cast<double>(decisions);
  return {static_cast<double>(messages) / d, static_cast<double>(verifies) / d};
}

}  // namespace

TEST(AggregateEndToEnd, EveryStackDecidesCleanlyInAggregateMode) {
  for (const harness::VcKind vc :
       {harness::VcKind::kAuthenticated, harness::VcKind::kNonAuthenticated,
        harness::VcKind::kFast}) {
    const auto outcome =
        harness::evaluate(qc_candidate(vc, CertMode::kAggregate, "none"));
    EXPECT_EQ(harness::classify(outcome), harness::Verdict::kClean)
        << harness::vc_token(vc);
    EXPECT_FALSE(outcome.result.decisions.empty()) << harness::vc_token(vc);
  }
}

TEST(AggregateEndToEnd, DecidesTheSameValuesAsPerVote) {
  // Unanimous proposals force the decision, so the two backends must agree
  // on the decided values exactly, not just both be clean.
  for (const harness::VcKind vc :
       {harness::VcKind::kAuthenticated, harness::VcKind::kNonAuthenticated,
        harness::VcKind::kFast}) {
    auto per_vote = qc_candidate(vc, CertMode::kPerVote, "none");
    per_vote.pattern = "unanimous";
    auto agg = per_vote;
    agg.cert = CertMode::kAggregate;
    const auto a = harness::evaluate(per_vote);
    const auto b = harness::evaluate(agg);
    EXPECT_EQ(harness::classify(a), harness::Verdict::kClean);
    EXPECT_EQ(harness::classify(b), harness::Verdict::kClean);
    EXPECT_EQ(a.result.decisions, b.result.decisions) << harness::vc_token(vc);
  }
}

TEST(AggregateEndToEnd, AggregationCutsVerifiesAndNonauthMessages) {
  // The auth stack is signature-heavy: one aggregate check per quorum must
  // beat one check per vote. The nonauth stack relays votes all-to-all, so
  // the QC broadcast must cut total messages.
  const auto auth_pv = harness::evaluate(
      qc_candidate(harness::VcKind::kAuthenticated, CertMode::kPerVote,
                   "none"));
  const auto auth_agg = harness::evaluate(
      qc_candidate(harness::VcKind::kAuthenticated, CertMode::kAggregate,
                   "none"));
  EXPECT_LT(auth_agg.result.verifies_total, auth_pv.result.verifies_total);

  const auto na_pv = harness::evaluate(
      qc_candidate(harness::VcKind::kNonAuthenticated, CertMode::kPerVote,
                   "none"));
  const auto na_agg = harness::evaluate(
      qc_candidate(harness::VcKind::kNonAuthenticated, CertMode::kAggregate,
                   "none"));
  EXPECT_LT(na_agg.result.messages_total, na_pv.result.messages_total);

  // The same trade per decision, summed over eight fault-free n=7 cells:
  // the former CI bench-smoke gate, thresholds unchanged. Every pair must
  // decide; auth verifies per decision must drop (measured 20.96 -> 18.0)
  // and nonauth messages per decision must drop (308 -> 200).
  EXPECT_LT(
      per_decision(harness::VcKind::kAuthenticated, CertMode::kAggregate)
          .verifies,
      per_decision(harness::VcKind::kAuthenticated, CertMode::kPerVote)
          .verifies);
  EXPECT_LT(
      per_decision(harness::VcKind::kNonAuthenticated, CertMode::kAggregate)
          .messages,
      per_decision(harness::VcKind::kNonAuthenticated, CertMode::kPerVote)
          .messages);
}

// ---------------------------------------------------------------- forge-qc

TEST(ForgeQc, HonestProcessesRejectEveryForgery) {
  // A forge-qc process floods forged certificates (inflated bitset,
  // tampered aggregate) under n > 3t. Every property must survive on every
  // stack — the whole point of receivers recomputing the expected digest
  // and paying the one aggregate check.
  for (const harness::VcKind vc :
       {harness::VcKind::kAuthenticated, harness::VcKind::kNonAuthenticated,
        harness::VcKind::kFast}) {
    const auto outcome =
        harness::evaluate(qc_candidate(vc, CertMode::kAggregate, "forge-qc"));
    EXPECT_EQ(harness::classify(outcome), harness::Verdict::kClean)
        << harness::vc_token(vc);
  }
}

TEST(ForgeQc, InertInPerVoteMode) {
  // No QCs flow per-vote, so the strategy degrades to a correct process;
  // keeping it in the default (sound-regime) search pool is safe.
  const auto outcome = harness::evaluate(qc_candidate(
      harness::VcKind::kAuthenticated, CertMode::kPerVote, "forge-qc"));
  EXPECT_EQ(harness::classify(outcome), harness::Verdict::kClean);
}

// ----------------------------------------------------------- determinism

TEST(CertsMatrix, OutcomeBytesAreJobCountIndependent) {
  // The "certs" matrix declares the cert axis non-trivially, so every cell
  // line carries cert_mode and verifies_total; byte-comparing the lines
  // across job counts therefore pins the aggregate backend's verify tally
  // (and everything else) as a function of (config, seed) only.
  const harness::ScenarioMatrix matrix = harness::named_matrix("certs");
  const auto lines_at = [&](int jobs) {
    std::vector<std::string> lines;
    lines.reserve(matrix.size());
    harness::SweepRunner(jobs).run_range(
        matrix, 0, matrix.size(), [&](harness::SweepOutcome&& o) {
          lines.push_back(harness::io::outcome_line(o));
        });
    return lines;
  };
  const std::vector<std::string> serial = lines_at(1);
  ASSERT_EQ(serial.size(), matrix.size());
  bool saw_aggregate = false;
  for (const std::string& line : serial) {
    EXPECT_NE(line.find("\"cert_mode\": \""), std::string::npos);
    EXPECT_NE(line.find("\"verifies_total\": "), std::string::npos);
    if (line.find("\"cert_mode\": \"aggregate\"") != std::string::npos) {
      saw_aggregate = true;
    }
  }
  EXPECT_TRUE(saw_aggregate);
  EXPECT_EQ(serial, lines_at(3));
}
