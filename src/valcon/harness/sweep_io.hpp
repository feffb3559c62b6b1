// Sharding, checkpointing and the sweep JSON wire format.
//
// This unit is the single source of truth for everything the sweep CLIs
// put on disk: the per-scenario JSON lines, the aggregate summary block,
// the shard header, the checkpoint file and the strict CLI parsers. Both
// `valcon_sweep` and `valcon_merge` link against it, which is what makes
// a merged set of shard files byte-identical to a single-shot run: the
// bytes are produced by one writer, and the aggregate summary is defined
// over the *emitted* per-scenario numbers (parse-back of the JSON lines),
// not over the in-memory doubles. Re-deriving the summary from the lines
// is exactly associative — any partition of the matrix replays the same
// sequence of round-tripped values in index order — whereas summing raw
// doubles shard-by-shard would drift in the last ulp.
#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "valcon/harness/sweep.hpp"

namespace valcon::harness::io {

// ------------------------------------------------------------- primitives

/// Shortest-ish fixed formatting ("%.12g") shared by every number the
/// sweep emits. The aggregate summary is computed over the values this
/// prints (see parse-back note above), so the precision choice only
/// affects display, never byte-stability.
[[nodiscard]] std::string json_number(double v);

/// Escapes '"', '\\' and every control character < 0x20 (as \n, \t or
/// \u00XX) so arbitrary exception text is always valid JSON.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Strict full-string integer parse; rejects garbage, trailing text and
/// values outside [min_value, INT_MAX]. Used for --jobs, --shard and
/// --stop-after (std::atoi silently turned "abc" and "-3" into defaults).
[[nodiscard]] std::optional<int> parse_int(const std::string& s,
                                           int min_value);

/// Splits "a, b,c" into {"a","b","c"} (whitespace-trimmed, empties
/// dropped). Shared so the checkpoint's strategy identity is canonical.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

// ---------------------------------------------------------- field readers
//
// Key lookups over the machine-written one-object-per-line formats: the
// outcome line, the shard header, the checkpoint and the counterexample
// cell. Every quote inside an escaped string is \", so escaped text never
// holds a bare `"key": ` and the first match is the field. Each reader
// returns nullopt when the key is absent or its value is malformed.

/// The string following `"key": "`, unescaped (the inverse of
/// json_escape()).
[[nodiscard]] std::optional<std::string> string_field(const std::string& text,
                                                      const std::string& key);

/// The number following `"key": ` (strtod: fractions, exponents, inf).
[[nodiscard]] std::optional<double> number_field(const std::string& text,
                                                 const std::string& key);

[[nodiscard]] std::optional<bool> bool_field(const std::string& text,
                                             const std::string& key);

namespace detail {
/// The text following `"key": ` up to the field's delimiter (',', '}' or
/// the end of `text`).
[[nodiscard]] std::optional<std::string_view> field_token(
    const std::string& text, const std::string& key);
}  // namespace detail

/// The whole of `s` as an integer, read exactly: an optional '-' (signed
/// T only) and decimal digits, whose value fits T. No double is involved,
/// so 2^64 - 1 reads back exactly and 1e300, inf, nan, 3.7, "+1" and
/// out-of-range values are malformed.
template <typename T>
[[nodiscard]] std::optional<T> parse_integer(std::string_view s) {
  const char* last = s.data() + s.size();
  T value{};
  const auto [end, error] = std::from_chars(s.data(), last, value);
  if (error != std::errc{} || end != last) return std::nullopt;
  return value;
}

/// The integer following `"key": ` up to the field's delimiter, read by
/// parse_integer.
template <typename T>
[[nodiscard]] std::optional<T> integer_field(const std::string& text,
                                             const std::string& key) {
  const auto token = detail::field_token(text, key);
  if (!token.has_value()) return std::nullopt;
  return parse_integer<T>(*token);
}

// ----------------------------------------------------------------- shards

/// A shard selector as given on the command line: slice `index` of
/// `count` (0-based, index < count).
struct ShardSpec {
  int index = 0;
  int count = 1;
};

/// Parses strict "I/M" (e.g. "0/3"); nullopt on garbage, I < 0, M < 1 or
/// I >= M.
[[nodiscard]] std::optional<ShardSpec> parse_shard_spec(const std::string& s);

/// The contiguous, index-stable half-open slice [begin, end) of a
/// `total`-cell matrix owned by shard `index` of `count`. Slices are
/// balanced (sizes differ by at most one), disjoint, and exhaustive:
/// concatenating them in index order yields exactly [0, total).
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

[[nodiscard]] ShardRange shard_range(std::size_t total, const ShardSpec& spec);

// -------------------------------------------------- per-scenario records

/// Writes one cell's outcome as the canonical single-line JSON object
/// (four-space indent, no trailing comma or newline) used inside the
/// "scenarios" array by both tools and the checkpoint sidecar.
[[nodiscard]] std::string outcome_line(const SweepOutcome& o);

/// The summary-relevant fields of one emitted scenario line.
struct ScenarioRecord {
  bool has_error = false;
  bool decided = false;
  bool agreement = true;
  bool validity_ok = true;
  double last_decision_time = 0.0;
  double message_complexity = 0.0;
  double word_complexity = 0.0;
};

/// Parses a line produced by outcome_line(). Throws std::runtime_error on
/// anything malformed (a merge of hand-edited shards must fail loudly).
[[nodiscard]] ScenarioRecord parse_outcome_line(const std::string& line);

/// The aggregate summary, accumulated record-by-record in index order.
/// add() must see every record of the matrix exactly once and in index
/// order for the means to be byte-stable (see file comment).
struct JsonSummary {
  std::size_t total = 0;
  std::size_t decided = 0;
  std::size_t agreement_violations = 0;
  std::size_t validity_violations = 0;
  std::size_t errors = 0;
  double latency_sum = 0.0;
  double message_sum = 0.0;
  double word_sum = 0.0;

  void add(const ScenarioRecord& r);
  /// True when every cell decided and nothing was violated or errored.
  [[nodiscard]] bool healthy() const;
  /// The "summary" JSON object (means derived from the sums).
  [[nodiscard]] std::string to_json() const;
};

// ------------------------------------------------------------- documents

/// Emits everything of the sweep document that precedes the scenario
/// lines: opening brace, matrix name, the shard header (when `shard` is
/// set) and the `"scenarios": [` opener. Callers then stream the lines —
/// each line terminated with ",\n" except the last with "\n" — and close
/// with document_footer().
void document_header(std::ostream& os, const std::string& matrix,
                     const std::optional<ShardSpec>& shard, std::size_t total);

/// Closes the scenarios array and appends the summary block.
void document_footer(std::ostream& os, const JsonSummary& summary);

/// One parsed sweep/shard JSON document: the matrix name, the shard
/// header when present (single-shot documents have none and count as
/// shard 0/1), and the raw scenario lines, verbatim.
struct ShardDocument {
  std::string matrix;
  std::optional<ShardSpec> shard;
  std::size_t total = 0;  // matrix size; for shard-less documents, #lines
  std::vector<std::string> lines;
};

/// Parses a document written by valcon_sweep. Throws std::runtime_error
/// on malformed input.
[[nodiscard]] ShardDocument parse_document(std::istream& is);

/// Verifies the documents are same-matrix, pairwise disjoint and jointly
/// exhaustive slices of [0, total), then writes the merged single-shot
/// document (scenario lines verbatim, summary re-derived from them) to
/// `os`. Throws std::invalid_argument naming the first overlap / gap /
/// mismatch.
void merge_documents(std::ostream& os, std::vector<ShardDocument> docs);

// ------------------------------------------------------------ checkpoint

/// Resumable progress of one (matrix, filters, shard) invocation: `next`
/// is the first index of [begin, end) not yet completed. The scenario
/// lines for [begin, next) live in the sidecar file
/// `<checkpoint>.scenarios`, one line each, in index order.
struct Checkpoint {
  std::string matrix;
  /// Canonical comma-join of each named axis's filter ("" = unfiltered),
  /// stored under the axis's checkpoint key. Files predating an axis lack
  /// its key; parse() reads that as "" (no filter), so old checkpoints
  /// keep resuming. Only the strategy key is required.
  PerAxis<std::string> filters;
  ShardSpec shard;
  std::size_t total = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t next = 0;
  /// Byte length of the sidecar's first (next - begin) lines: resume
  /// truncates the sidecar to exactly this offset, dropping any line left
  /// behind by a crash between the sidecar append and the checkpoint
  /// update.
  std::uint64_t sidecar_bytes = 0;

  /// True when `other` describes the same work partition (everything but
  /// `next` / `sidecar_bytes` matches).
  [[nodiscard]] bool same_work(const Checkpoint& other) const;

  [[nodiscard]] std::string to_json() const;
  /// Throws std::runtime_error on malformed text.
  [[nodiscard]] static Checkpoint parse(const std::string& text);
};

/// Writes `content` to `path` atomically and durably (temp file, fsync,
/// rename, best-effort directory fsync), so a checkpoint is never
/// observed half-written — not even across power loss. Throws
/// std::runtime_error on I/O failure.
void atomic_write(const std::string& path, const std::string& content);

/// The sidecar path holding a checkpoint's completed scenario lines.
[[nodiscard]] std::string sidecar_path(const std::string& checkpoint_path);

/// Streams the first `count` complete (newline-terminated) lines of the
/// sidecar to `fn` as (line, index). A trailing line that hit EOF before
/// its newline is torn (the writer appends "line\n" then checkpoints) and
/// never counts. Throws std::runtime_error if fewer than `count` complete
/// lines exist. This is the one reader of the sidecar format — final
/// document assembly and read_sidecar() both go through it.
void for_each_sidecar_line(
    const std::string& path, std::size_t count,
    const std::function<void(const std::string&, std::size_t)>& fn);

/// for_each_sidecar_line() collected into a vector (tests, small files).
[[nodiscard]] std::vector<std::string> read_sidecar(const std::string& path,
                                                    std::size_t count);

}  // namespace valcon::harness::io
