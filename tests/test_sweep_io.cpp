// Sharding, checkpointing and the sweep JSON wire format
// (harness/sweep_io.hpp): escaping of control characters, strict CLI
// parsers, balanced shard ranges, outcome-line round-trips, checkpoint
// persistence (including torn-sidecar recovery), the merge-tool
// verification that shards are disjoint and exhaustive, and the contract
// every named axis of the matrix keeps (filter, wire gate, checkpoint key,
// value check), run once per entry of the axis table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "valcon/harness/search.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"

using namespace valcon;
using namespace valcon::harness;
namespace io = valcon::harness::io;

namespace {

/// A scratch file path unique to the current test, cleaned up on exit.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + info->test_suite_name() + "_" +
            info->name() + "_" + tag;
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The document a `valcon_sweep --shard` run of `matrix` would emit for
/// `spec`, as one string (what the CLI streams, reproduced through the
/// same sweep_io writers).
std::string shard_document_text(const ScenarioMatrix& matrix,
                                const std::string& name,
                                const std::optional<io::ShardSpec>& spec) {
  const std::size_t total = matrix.size();
  const io::ShardRange range =
      io::shard_range(total, spec.value_or(io::ShardSpec{0, 1}));
  std::ostringstream os;
  io::document_header(os, name, spec, total);
  io::JsonSummary summary;
  SweepRunner(2).run_range(matrix, range.begin, range.end,
                           [&](SweepOutcome&& o) {
                             const std::string line = io::outcome_line(o);
                             summary.add(io::parse_outcome_line(line));
                             os << line
                                << (o.point.index + 1 < range.end ? ",\n"
                                                                  : "\n");
                           });
  io::document_footer(os, summary);
  return os.str();
}

io::ShardDocument parse_text(const std::string& text) {
  std::istringstream is(text);
  return io::parse_document(is);
}

/// Values an integer field must reject: a float overflowing every integer
/// type, inf, nan, a fraction, 2^64 and a negative count.
const std::vector<std::string> kNonCounts{
    "1e300", "inf", "nan", "3.7", "18446744073709551616", "-1"};

/// `text` with the value of field `key` replaced by `value`.
std::string with_field(std::string text, const std::string& key,
                       const std::string& value) {
  const std::string needle = "\"" + key + "\": ";
  const auto start = text.find(needle) + needle.size();
  const auto end = text.find_first_of(",}", start);
  return text.replace(start, end - start, value);
}

}  // namespace

// -------------------------------------------------------------- escaping

TEST(JsonEscape, EscapesControlCharactersAsUnicode) {
  // \r and other sub-0x20 bytes used to be emitted raw, producing invalid
  // JSON whenever an exception message contained them.
  EXPECT_EQ(io::json_escape("a\rb"), "a\\u000db");
  EXPECT_EQ(io::json_escape(std::string("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(io::json_escape("q\"\\\n\t"), "q\\\"\\\\\\n\\t");
  EXPECT_EQ(io::json_escape("plain"), "plain");
}

// --------------------------------------------------------------- parsers

TEST(ParseInt, RejectsGarbageAndOutOfRange) {
  EXPECT_EQ(io::parse_int("4", 1), 4);
  EXPECT_EQ(io::parse_int("0", 0), 0);
  EXPECT_FALSE(io::parse_int("abc", 1).has_value());
  EXPECT_FALSE(io::parse_int("-3", 1).has_value());
  EXPECT_FALSE(io::parse_int("0", 1).has_value());
  EXPECT_FALSE(io::parse_int("3x", 1).has_value());
  EXPECT_FALSE(io::parse_int("", 1).has_value());
  EXPECT_FALSE(io::parse_int(" 5", 1).has_value());
  EXPECT_FALSE(io::parse_int("99999999999999", 1).has_value());
}

TEST(ParseShardSpec, AcceptsOnlyStrictIOverM) {
  const auto ok = io::parse_shard_spec("1/3");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->index, 1);
  EXPECT_EQ(ok->count, 3);
  EXPECT_FALSE(io::parse_shard_spec("3/3").has_value());  // index < count
  EXPECT_FALSE(io::parse_shard_spec("0/0").has_value());
  EXPECT_FALSE(io::parse_shard_spec("-1/2").has_value());
  EXPECT_FALSE(io::parse_shard_spec("a/b").has_value());
  EXPECT_FALSE(io::parse_shard_spec("1").has_value());
  EXPECT_FALSE(io::parse_shard_spec("1/2/3").has_value());
  EXPECT_FALSE(io::parse_shard_spec("/2").has_value());
  EXPECT_FALSE(io::parse_shard_spec("1/").has_value());
}

TEST(ShardRange, SlicesAreBalancedDisjointAndExhaustive) {
  for (const std::size_t total : {0u, 1u, 7u, 30u, 720u, 1000001u}) {
    for (const int m : {1, 2, 3, 7, 16, 100}) {
      std::size_t expect = 0;
      for (int i = 0; i < m; ++i) {
        const io::ShardRange r = io::shard_range(total, {i, m});
        EXPECT_EQ(r.begin, expect);
        EXPECT_LE(r.end - r.begin, total / static_cast<std::size_t>(m) + 1);
        expect = r.end;
      }
      EXPECT_EQ(expect, total) << "total=" << total << " m=" << m;
    }
  }
  EXPECT_THROW(static_cast<void>(io::shard_range(10, {3, 3})),
               std::invalid_argument);
}

// --------------------------------------------------- outcome round-trips

TEST(OutcomeLine, RoundTripsThroughParse) {
  const auto points = named_matrix("smoke").build();
  const SweepOutcome outcome = run_point(points.front());
  const std::string line = io::outcome_line(outcome);
  const io::ScenarioRecord r = io::parse_outcome_line(line);
  EXPECT_FALSE(r.has_error);
  EXPECT_EQ(r.decided, outcome.decided);
  EXPECT_EQ(r.agreement, outcome.agreement);
  EXPECT_EQ(r.validity_ok, outcome.validity_ok);
  EXPECT_EQ(r.message_complexity,
            static_cast<double>(outcome.result.message_complexity));
  EXPECT_EQ(r.word_complexity,
            static_cast<double>(outcome.result.word_complexity));
}

TEST(OutcomeLine, ErrorWithControlCharactersStaysValidJson) {
  SweepOutcome outcome;
  outcome.point = named_matrix("smoke").point_at(0);
  outcome.error = "bad\r\nthing\x01";
  const std::string line = io::outcome_line(outcome);
  EXPECT_NE(line.find("\\u000d"), std::string::npos);
  EXPECT_NE(line.find("\\u0001"), std::string::npos);
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control character in JSON line";
  }
  EXPECT_TRUE(io::parse_outcome_line(line).has_error);
}

TEST(OutcomeLine, MalformedLineThrows) {
  EXPECT_THROW(static_cast<void>(io::parse_outcome_line("    {\"label\": 1}")),
               std::runtime_error);
}

TEST(OutcomeLine, AxisTagsSurfaceOnlyWhenTheMatrixDeclaresThem) {
  // Legacy matrices (both new axes at their single default) emit the
  // legacy bytes; a matrix sweeping the axes carries the fields — and the
  // extended line still round-trips through the summary parser.
  const SweepOutcome legacy = run_point(named_matrix("smoke").point_at(0));
  const std::string legacy_line = io::outcome_line(legacy);
  EXPECT_EQ(legacy_line.find("\"pattern\""), std::string::npos);
  EXPECT_EQ(legacy_line.find("\"net_profile\""), std::string::npos);

  const SweepOutcome tagged = run_point(
      named_matrix("validity").keep(Axis::kPattern, {"adversarial"})
          .point_at(0));
  const std::string tagged_line = io::outcome_line(tagged);
  EXPECT_NE(tagged_line.find("\"pattern\": \"adversarial\""),
            std::string::npos)
      << tagged_line;
  EXPECT_NE(tagged_line.find("\"net_profile\": \"uniform\""),
            std::string::npos)
      << tagged_line;
  const io::ScenarioRecord r = io::parse_outcome_line(tagged_line);
  EXPECT_EQ(r.decided, tagged.decided);
  EXPECT_EQ(r.validity_ok, tagged.validity_ok);
}

TEST(JsonSummary, AccumulatesMeansOverDecidedRunsOnly) {
  io::JsonSummary summary;
  io::ScenarioRecord decided;
  decided.decided = true;
  decided.last_decision_time = 2.0;
  decided.message_complexity = 10;
  decided.word_complexity = 100;
  io::ScenarioRecord errored;
  errored.has_error = true;
  io::ScenarioRecord violated;
  violated.decided = true;
  violated.last_decision_time = 4.0;
  violated.agreement = false;
  summary.add(decided);
  summary.add(errored);
  summary.add(violated);
  EXPECT_EQ(summary.total, 3u);
  EXPECT_EQ(summary.decided, 2u);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.agreement_violations, 1u);
  EXPECT_FALSE(summary.healthy());
  EXPECT_NE(summary.to_json().find("\"mean_latency\": 3"), std::string::npos);
}

// ------------------------------------------------------------ checkpoint

TEST(Checkpoint, JsonRoundTripAndWorkIdentity) {
  io::Checkpoint cp;
  cp.matrix = "full";
  cp.filters[Axis::kStrategy] = "crash,equivocate";
  cp.filters[Axis::kPattern] = "adversarial,rotating";
  cp.filters[Axis::kNetProfile] = "pre-gst-starve";
  cp.shard = {2, 5};
  cp.total = 720;
  cp.begin = 288;
  cp.end = 432;
  cp.next = 300;
  cp.sidecar_bytes = 4711;
  const io::Checkpoint back = io::Checkpoint::parse(cp.to_json());
  EXPECT_TRUE(back.same_work(cp));
  EXPECT_EQ(back.next, 300u);
  EXPECT_EQ(back.sidecar_bytes, 4711u);

  io::Checkpoint other = cp;
  other.filters[Axis::kStrategy] = "crash";
  EXPECT_FALSE(other.same_work(cp));
  other = cp;
  other.filters[Axis::kPattern] = "rotating";
  EXPECT_FALSE(other.same_work(cp));
  other = cp;
  other.filters[Axis::kNetProfile] = "";
  EXPECT_FALSE(other.same_work(cp));
  other = cp;
  other.shard.index = 3;
  EXPECT_FALSE(other.same_work(cp));
  EXPECT_TRUE([&] {
    io::Checkpoint resumed = cp;
    resumed.next = 431;
    resumed.sidecar_bytes = 9000;
    return resumed.same_work(cp);
  }());

  EXPECT_THROW(static_cast<void>(io::Checkpoint::parse("{}")),
               std::runtime_error);
  io::Checkpoint bad = cp;
  bad.next = 10;  // outside [begin, end]
  EXPECT_THROW(static_cast<void>(io::Checkpoint::parse(bad.to_json())),
               std::runtime_error);
}

TEST(Checkpoint, IntegerFieldsAreReadExactly) {
  io::Checkpoint cp;
  cp.matrix = "full";
  cp.shard = {0, 1};
  cp.total = 720;
  cp.end = 720;  // begin 0: a `next` misread as 0 or 3 stays consistent
  cp.next = 100;
  cp.sidecar_bytes = ~std::uint64_t{0};  // 2^64 - 1: no double holds it
  const std::string text = cp.to_json();
  EXPECT_EQ(io::Checkpoint::parse(text).sidecar_bytes, cp.sidecar_bytes);
  for (const std::string& bad : kNonCounts) {
    const std::string edited = with_field(text, "next", bad);
    EXPECT_THROW(static_cast<void>(io::Checkpoint::parse(edited)),
                 std::runtime_error)
        << bad;
  }
}

TEST(Checkpoint, AtomicWriteAndSidecarTornLineRecovery) {
  TempFile file("sidecar");
  io::atomic_write(file.path(), "one\ntwo\nthree\ntorn-no-newline");
  const auto lines = io::read_sidecar(file.path(), 3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[2], "three");
  // The torn fourth line is not a complete line, and asking for more
  // complete lines than exist must fail loudly.
  EXPECT_THROW(static_cast<void>(io::read_sidecar(file.path(), 4)),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(io::read_sidecar(file.path() + ".gone", 1)),
               std::runtime_error);
  EXPECT_TRUE(io::read_sidecar(file.path() + ".gone", 0).empty());
}

// --------------------------------------------------- documents and merge

TEST(MergeDocuments, ShardsReassembleByteIdenticalToSingleShot) {
  const ScenarioMatrix matrix = named_matrix("smoke");
  const std::string single =
      shard_document_text(matrix, "smoke", std::nullopt);
  for (const int m : {2, 3, 7}) {
    std::vector<io::ShardDocument> docs;
    for (int i = 0; i < m; ++i) {
      docs.push_back(parse_text(
          shard_document_text(matrix, "smoke", io::ShardSpec{i, m})));
    }
    std::ostringstream merged;
    io::merge_documents(merged, std::move(docs));
    EXPECT_EQ(merged.str(), single) << "shard count " << m;
  }
}

TEST(MergeDocuments, RejectsOverlapGapAndMismatch) {
  const ScenarioMatrix matrix = named_matrix("smoke");
  const auto doc = [&](int i, int m) {
    return parse_text(shard_document_text(matrix, "smoke",
                                          io::ShardSpec{i, m}));
  };
  std::ostringstream sink;
  // Missing shard 2/3.
  EXPECT_THROW(io::merge_documents(sink, {doc(0, 3), doc(1, 3)}),
               std::invalid_argument);
  // Shard 0 provided twice (overlap at index 0).
  EXPECT_THROW(
      io::merge_documents(sink, {doc(0, 3), doc(0, 3), doc(1, 3), doc(2, 3)}),
      std::invalid_argument);
  // Mixed partitions that tile exactly are fine.
  {
    std::ostringstream merged;
    io::merge_documents(merged, {doc(0, 2), doc(2, 4), doc(3, 4)});
    EXPECT_EQ(merged.str(),
              shard_document_text(matrix, "smoke", std::nullopt));
  }
  // Empty slices (shard count > matrix size) are harmless wherever they
  // sort relative to the real ones — including one whose begin lands
  // strictly inside a range another shard already covered.
  {
    std::ostringstream merged;
    io::merge_documents(merged, {doc(0, 2), doc(1, 2), doc(60000, 100000)});
    EXPECT_EQ(merged.str(),
              shard_document_text(matrix, "smoke", std::nullopt));
  }
  // Different matrix name.
  auto renamed = doc(0, 3);
  renamed.matrix = "other";
  EXPECT_THROW(io::merge_documents(sink, {renamed, doc(1, 3), doc(2, 3)}),
               std::invalid_argument);
  // Empty input.
  EXPECT_THROW(io::merge_documents(sink, {}), std::invalid_argument);
}

TEST(ParseDocument, RejectsMalformedDocuments) {
  EXPECT_THROW(static_cast<void>(parse_text("not json")),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(parse_text("{\n  \"matrix\": \"x\",\n")),
               std::runtime_error);
  // A shard header whose range disagrees with index/count/total.
  const std::string bad =
      "{\n  \"matrix\": \"x\",\n"
      "  \"shard\": {\"index\": 0, \"count\": 2, \"total\": 10, "
      "\"begin\": 0, \"end\": 9},\n"
      "  \"scenarios\": [\n  ],\n  \"summary\": {}\n}\n";
  EXPECT_THROW(static_cast<void>(parse_text(bad)), std::runtime_error);
}

TEST(ParseDocument, ShardHeaderIntegersAreReadExactly) {
  // Shard 3 of 4 over 8 cells owns [6, 8): a header index misread as 3
  // would pass every range check.
  const std::string header =
      "  \"shard\": {\"index\": 3, \"count\": 4, \"total\": 8, "
      "\"begin\": 6, \"end\": 8},\n";
  const auto document = [](const std::string& shard) {
    return "{\n  \"matrix\": \"x\",\n" + shard +
           "  \"scenarios\": [\n  ],\n  \"summary\": {}\n}\n";
  };
  EXPECT_EQ(parse_text(document(header)).shard->index, 3);
  for (const std::string& bad : kNonCounts) {
    const std::string text = document(with_field(header, "index", bad));
    EXPECT_THROW(static_cast<void>(parse_text(text)), std::runtime_error)
        << bad;
  }
}

// ----------------------------------------------------- the axis contract

namespace valcon::harness {
// Names the parameter in test listings.
void PrintTo(Axis axis, std::ostream* os) { *os << axis_info(axis).name; }
}  // namespace valcon::harness

namespace {

/// Per-axis data for the contract suite.
struct AxisCase {
  ScenarioMatrix (*wide)();        // sweeps the axis, its default included
  std::vector<std::string> keep;   // a strict subset of wide()'s values
  ScenarioMatrix (*narrow)();      // lacks `absent`
  std::string absent;              // registered with the axis's registry
};

AxisCase case_for(Axis axis) {
  const auto smoke = [] { return named_matrix("smoke"); };
  const auto full = [] { return named_matrix("full"); };
  const auto validity = [] { return named_matrix("validity"); };
  switch (axis) {
    case Axis::kStrategy:
      return {smoke, {"crash", "none"}, smoke, "equivocate-scheduled"};
    case Axis::kPattern:
      return {validity, {"adversarial"}, full, "unanimous"};
    case Axis::kNetProfile:
      return {validity, {"uniform", "pre-gst-starve"}, full, "pre-gst-starve"};
    case Axis::kCertMode:
      return {[] { return named_matrix("certs"); }, {"aggregate"}, full,
              "aggregate"};
    case Axis::kTopology:
      return {[] {
                return named_matrix("smoke").topologies(
                    {"full-mesh", "committee-4"});
              },
              {"committee-4"},
              [] { return named_matrix("smoke").topologies({"committee-4"}); },
              "full-mesh"};
  }
  return {};
}

/// The cell's value of `axis`, read from its config, not its tags.
std::string value_of(Axis axis, const SweepPoint& p) {
  switch (axis) {
    case Axis::kStrategy:
      return p.config.faults.empty() ? "none"
                                     : p.config.faults.begin()->second.strategy;
    case Axis::kPattern: return p.pattern;
    case Axis::kNetProfile: return p.config.net_profile.name;
    case Axis::kCertMode: return core::cert_mode_token(p.config.cert_mode);
    case Axis::kTopology: return p.config.topology.name;
  }
  return "";
}

/// A default matrix with `axis` set to `values` through its typed setter.
ScenarioMatrix with_axis(Axis axis, const std::vector<std::string>& values) {
  ScenarioMatrix matrix;
  switch (axis) {
    case Axis::kStrategy: {
      std::vector<FaultSpec> specs;
      for (const std::string& v : values) specs.push_back(FaultSpec{v});
      return matrix.faults(specs);
    }
    case Axis::kPattern: return matrix.patterns(values);
    case Axis::kNetProfile: return matrix.network_profiles(values);
    case Axis::kCertMode: {
      std::vector<core::CertMode> modes;
      for (const std::string& v : values) {
        modes.push_back(*core::cert_mode_from_token(v));
      }
      return matrix.cert_modes(modes);
    }
    case Axis::kTopology: return matrix.topologies(values);
  }
  return matrix;
}

/// Each cell of `filtered` carries the label, tags and outcome line of the
/// cell with that label in `unfiltered`: a filter never changes bytes.
void expect_kept_cells_unchanged(const ScenarioMatrix& unfiltered,
                                 const ScenarioMatrix& filtered) {
  std::map<std::string, SweepPoint> by_label;
  for (SweepPoint& p : unfiltered.build()) by_label[p.label] = std::move(p);
  ASSERT_EQ(by_label.size(), unfiltered.size()) << "labels must be unique";
  ASSERT_GT(filtered.size(), 0u);
  ASSERT_LT(filtered.size(), unfiltered.size());
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    const SweepPoint kept = filtered.point_at(i);
    const auto same = by_label.find(kept.label);
    ASSERT_NE(same, by_label.end()) << kept.label;
    EXPECT_EQ(kept.tags.slots, same->second.tags.slots) << kept.label;
    EXPECT_EQ(io::outcome_line(run_point(kept)),
              io::outcome_line(run_point(same->second)));
  }
}

class AxisContract : public ::testing::TestWithParam<Axis> {};

}  // namespace

TEST_P(AxisContract, FilterKeepsExactlyTheNamedValues) {
  const Axis axis = GetParam();
  const AxisCase c = case_for(axis);
  std::vector<std::string> expected;
  for (const SweepPoint& p : c.wide().build()) {
    const std::string value = value_of(axis, p);
    if (std::find(c.keep.begin(), c.keep.end(), value) != c.keep.end()) {
      expected.push_back(p.label);
    }
  }
  std::vector<std::string> kept;
  std::set<std::string> values;
  for (const SweepPoint& p : c.wide().keep(axis, c.keep).build()) {
    kept.push_back(p.label);
    values.insert(value_of(axis, p));
  }
  EXPECT_EQ(kept, expected);
  EXPECT_EQ(values, std::set<std::string>(c.keep.begin(), c.keep.end()));
  EXPECT_LT(kept.size(), c.wide().size());
}

TEST_P(AxisContract, FilterRejectsBadRequests) {
  const Axis axis = GetParam();
  const AxisCase c = case_for(axis);
  // An empty filter would shrink the matrix to zero cells — a sweep that
  // runs nothing and exits green (e.g. `--patterns ,` splitting to {}).
  EXPECT_THROW(c.wide().keep(axis, {}), std::invalid_argument);
  EXPECT_THROW(c.wide().keep(axis, {"bogus"}), std::invalid_argument);
  // Registered, but not swept by the matrix: must not silently produce an
  // empty (or unfiltered) sweep.
  EXPECT_THROW(c.narrow().keep(axis, {c.absent}), std::invalid_argument);
  // A partially-matching request must not silently drop the absent name.
  const std::string present = value_of(axis, c.narrow().point_at(0));
  EXPECT_THROW(c.narrow().keep(axis, {present, c.absent}),
               std::invalid_argument);
  EXPECT_NO_THROW(c.narrow().keep(axis, {present}));
}

TEST_P(AxisContract, FilterNeverChangesKeptCellBytes) {
  // Narrowing a declared axis to its default keeps the axis's field and
  // label segment: the matrix declared the axis, the filter does not undo
  // that.
  const Axis axis = GetParam();
  const AxisCase c = case_for(axis);
  ScenarioMatrix filtered = c.wide();
  filtered.keep(axis, {axis_info(axis).default_value});
  expect_kept_cells_unchanged(c.wide(), filtered);
}

TEST_P(AxisContract, WireGateFollowsTheDeclaration) {
  const Axis axis = GetParam();
  const AxisInfo& info = axis_info(axis);
  const std::string segment = std::string(" ") + info.label_segment + "=";
  const std::string field = std::string("\"") + info.wire_field + "\": \"";
  // Declared only at its default: no tag, no label segment, no field.
  const SweepOutcome quiet =
      run_point(with_axis(axis, {info.default_value}).point_at(0));
  EXPECT_TRUE(quiet.point.tags[axis].empty());
  EXPECT_EQ(quiet.point.label.find(segment), std::string::npos);
  EXPECT_EQ(io::outcome_line(quiet).find(field), std::string::npos);
  // Declared with another value too: every cell carries both.
  const std::vector<std::string>& keep = case_for(axis).keep;
  const auto other = std::find_if(keep.begin(), keep.end(), [&](auto& v) {
    return v != info.default_value;
  });
  ASSERT_NE(other, keep.end());
  const ScenarioMatrix loud = with_axis(axis, {info.default_value, *other});
  ASSERT_EQ(loud.size(), 2u);
  for (std::size_t i = 0; i < loud.size(); ++i) {
    const SweepOutcome o = run_point(loud.point_at(i));
    const std::string& tag = o.point.tags[axis];
    if (axis == Axis::kStrategy) {
      // No gated field: a strategy reaches the wire in the fault list.
      EXPECT_TRUE(tag.empty());
      continue;
    }
    EXPECT_EQ(tag, value_of(axis, o.point));
    EXPECT_NE(o.point.label.find(segment + tag), std::string::npos)
        << o.point.label;
    EXPECT_NE(io::outcome_line(o).find(field + tag + "\""), std::string::npos);
  }
}

TEST_P(AxisContract, CheckpointRoundTripsAndReadsOldFiles) {
  const AxisInfo& info = axis_info(GetParam());
  io::Checkpoint cp;
  cp.matrix = "full";
  cp.total = 720;
  cp.end = 720;
  cp.next = 100;
  cp.sidecar_bytes = 12345;
  cp.filters[info.axis] = "a,b";
  const io::Checkpoint back = io::Checkpoint::parse(cp.to_json());
  EXPECT_EQ(back.filters[info.axis], "a,b");
  EXPECT_TRUE(cp.same_work(back));
  io::Checkpoint other = cp;
  other.filters[info.axis] = "a";
  EXPECT_FALSE(cp.same_work(other));

  // A checkpoint written before the axis existed lacks its key. It keeps
  // resuming as "no filter" rather than failing or mismatching its own
  // work; only the strategy key is required.
  std::string older = cp.to_json();
  const std::string member =
      std::string("\"") + info.checkpoint_key + "\": \"a,b\", ";
  const auto at = older.find(member);
  ASSERT_NE(at, std::string::npos);
  older.erase(at, member.size());
  if (info.axis == Axis::kStrategy) {
    EXPECT_THROW(static_cast<void>(io::Checkpoint::parse(older)),
                 std::runtime_error);
    return;
  }
  const io::Checkpoint parsed = io::Checkpoint::parse(older);
  EXPECT_EQ(parsed.filters[info.axis], "");
  EXPECT_EQ(parsed.next, 100u);
  io::Checkpoint fresh;
  fresh.matrix = "full";
  fresh.total = 720;
  fresh.end = 720;
  EXPECT_TRUE(fresh.same_work(parsed));
}

TEST_P(AxisContract, CheckRejectsUnknownNames) {
  const AxisInfo& info = axis_info(GetParam());
  EXPECT_EQ(axis_for_flag(info.flag), std::optional<Axis>(info.axis));
  EXPECT_EQ(axis_for_flag("--matrix"), std::nullopt);
  EXPECT_NO_THROW(info.check(info.default_value));
  for (const std::string& name : case_for(info.axis).keep) {
    EXPECT_NO_THROW(info.check(name));
  }
  try {
    info.check("bogus");
    ADD_FAILURE() << "check accepted an unknown " << info.name;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(info.default_value),
              std::string::npos)
        << e.what();
  }
  // valcon_search's filter flags run the same check before any candidate
  // does, so an unknown name is a usage error, not an error verdict.
  SearchSpace space;
  EXPECT_THROW(space.set_pool(info.axis, {info.default_value, "bogus"}),
               std::invalid_argument);
}

TEST_P(AxisContract, SearchCellsCarryTheAxis) {
  const AxisInfo& info = axis_info(GetParam());
  std::vector<std::string> others;
  for (const std::string& value : case_for(info.axis).keep) {
    if (value != info.default_value) others.push_back(value);
  }
  ASSERT_FALSE(others.empty());
  // A candidate carrying each non-default value round-trips through the
  // corpus format and has a key of its own.
  for (const std::string& value : others) {
    Counterexample cx;
    cx.candidate.named[info.axis] = value;
    EXPECT_TRUE(parse_cell(cell_json(cx)).candidate == cx.candidate) << value;
    EXPECT_NE(cx.candidate.key(), Candidate{}.key()) << value;
  }
  // A one-value pool puts its value on every candidate the search draws.
  // Unshrunk, the report's cells are drawn candidates as found.
  SearchOptions options;
  options.space.sizes = {{4, 2}};
  options.space.set_pool(info.axis, {others.front()});
  options.budget = 32;
  options.population = 8;
  options.shrink = false;
  const SearchReport report = run_search(options);
  std::vector<Candidate> drawn;
  for (const Counterexample& cx : report.counterexamples) {
    drawn.push_back(cx.candidate);
  }
  if (report.best_candidate.has_value()) {
    drawn.push_back(*report.best_candidate);
  }
  ASSERT_FALSE(drawn.empty());
  for (const Candidate& c : drawn) {
    EXPECT_EQ(c.named[info.axis], others.front()) << c.key();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Axes, AxisContract,
    ::testing::Values(Axis::kStrategy, Axis::kPattern, Axis::kNetProfile,
                      Axis::kCertMode, Axis::kTopology),
    [](const ::testing::TestParamInfo<Axis>& param) {
      return std::string(axis_info(param.param).checkpoint_key);
    });

TEST(AxisFilter, NarrowingTwoDeclaredAxesToTheirDefaultsKeepsTheirFields) {
  // Filtered this way, validity used to lose pattern, net_profile and both
  // label segments. (certs filtered to per-vote, which used to lose
  // cert_mode and verifies_total, is FilterNeverChangesKeptCellBytes
  // on the cert-mode axis.)
  ScenarioMatrix validity = named_matrix("validity");
  validity.keep(Axis::kPattern, {"rotating"})
      .keep(Axis::kNetProfile, {"uniform"});
  expect_kept_cells_unchanged(named_matrix("validity"), validity);
}
