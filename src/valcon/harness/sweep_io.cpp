#include "valcon/harness/sweep_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace valcon::harness::io {

namespace {

/// Thread-safe strerror: checkpoint writes happen from a sweep that may be
/// running a pool, and std::strerror shares a static buffer across threads.
std::string errno_message(int err = errno) {
  return std::system_category().message(err);
}

/// Reverses json_escape() for the escape forms it emits (\" \\ \n \t
/// \u00XX); unknown escapes pass the escaped character through.
std::string json_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    const char c = s[++i];
    switch (c) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u':
        if (i + 4 < s.size()) {
          out += static_cast<char>(
              std::strtol(s.substr(i + 1, 4).c_str(), nullptr, 16));
          i += 4;
        }
        break;
      default: out += c;  // covers \" and \\ (and tolerates \/)
    }
  }
  return out;
}

/// An integer field that must be present and non-negative.
template <typename T>
T count_field_or_throw(const std::string& text, const std::string& key,
                       const std::string& what) {
  const auto v = integer_field<T>(text, key);
  if (!v.has_value() || std::cmp_less(*v, 0)) {
    throw std::runtime_error(what + ": missing or bad \"" + key + "\"");
  }
  return *v;
}

}  // namespace

// ------------------------------------------------------------- primitives

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // \r and friends (common in exception text from system calls)
          // must not reach the output raw: JSON forbids bare controls.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::optional<int> parse_int(const std::string& s, int min_value) {
  if (s.empty()) return std::nullopt;
  if (std::isdigit(static_cast<unsigned char>(s[0])) == 0 && s[0] != '-') {
    return std::nullopt;  // no leading whitespace or '+'
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return std::nullopt;
  if (v < min_value || v > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto first = item.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const auto last = item.find_last_not_of(" \t");
    out.push_back(item.substr(first, last - first + 1));
  }
  return out;
}

// ---------------------------------------------------------- field readers

std::optional<std::string> string_field(const std::string& text,
                                        const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t j = pos + needle.size();
  std::string raw;
  while (j < text.size() && text[j] != '"') {
    raw += text[j];
    if (text[j] == '\\' && j + 1 < text.size()) raw += text[j + 1], ++j;
    ++j;
  }
  if (j >= text.size()) return std::nullopt;  // unterminated
  return json_unescape(raw);
}

std::optional<double> number_field(const std::string& text,
                                   const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = text.c_str() + pos + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return v;
}

std::optional<bool> bool_field(const std::string& text,
                               const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  if (text.compare(pos + needle.size(), 4, "true") == 0) return true;
  if (text.compare(pos + needle.size(), 5, "false") == 0) return false;
  return std::nullopt;
}

std::optional<std::string_view> detail::field_token(const std::string& text,
                                                    const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const std::size_t start = pos + needle.size();
  const std::size_t end =
      std::min(text.find_first_of(",}", start), text.size());
  return std::string_view(text).substr(start, end - start);
}

// ----------------------------------------------------------------- shards

std::optional<ShardSpec> parse_shard_spec(const std::string& s) {
  const auto slash = s.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= s.size()) {
    return std::nullopt;
  }
  const auto index = parse_int(s.substr(0, slash), 0);
  const auto count = parse_int(s.substr(slash + 1), 1);
  if (!index.has_value() || !count.has_value() || *index >= *count) {
    return std::nullopt;
  }
  return ShardSpec{*index, *count};
}

ShardRange shard_range(std::size_t total, const ShardSpec& spec) {
  if (spec.index < 0 || spec.count < 1 || spec.index >= spec.count) {
    throw std::invalid_argument("bad shard spec " +
                                std::to_string(spec.index) + "/" +
                                std::to_string(spec.count));
  }
  const auto i = static_cast<std::size_t>(spec.index);
  const auto m = static_cast<std::size_t>(spec.count);
  return ShardRange{total * i / m, total * (i + 1) / m};
}

// -------------------------------------------------- per-scenario records

std::string outcome_line(const SweepOutcome& o) {
  const ScenarioConfig& cfg = o.point.config;
  std::ostringstream os;
  os << "    {\"label\": \"" << json_escape(o.point.label) << "\", "
     << "\"vc\": \"" << to_string(cfg.vc) << "\", "
     << "\"validity\": \"" << to_string(o.point.validity) << "\", "
     << "\"n\": " << cfg.n << ", \"t\": " << cfg.t << ", "
     << "\"gst\": " << json_number(cfg.gst) << ", "
     << "\"delta\": " << json_number(cfg.delta) << ", "
     << "\"seed\": " << cfg.seed << ", ";
  // A named axis's field appears only when the matrix declares the axis
  // (the tag is set): legacy matrices — the pinned "full" document above
  // all — keep their exact legacy bytes.
  for (const AxisInfo& info : axes()) {
    const std::string& tag = o.point.tags[info.axis];
    if (!tag.empty()) {
      os << "\"" << info.wire_field << "\": \"" << json_escape(tag) << "\", ";
    }
  }
  os << "\"faults\": [";
  bool first = true;
  for (const auto& [pid, fault] : cfg.faults) {
    if (!first) os << ", ";
    first = false;
    os << "{\"id\": " << pid << ", \"kind\": \"" << json_escape(fault.strategy)
       << "\"}";
  }
  os << "], ";
  if (!o.error.empty()) {
    os << "\"error\": \"" << json_escape(o.error) << "\"}";
    return os.str();
  }
  os << "\"decided\": " << (o.decided ? "true" : "false") << ", "
     << "\"agreement\": " << (o.agreement ? "true" : "false") << ", "
     << "\"validity_ok\": " << (o.validity_ok ? "true" : "false") << ", "
     << "\"decisions\": {";
  first = true;
  for (const auto& [pid, v] : o.result.decisions) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << pid << "\": " << v;
  }
  os << "}, "
     << "\"last_decision_time\": " << json_number(o.result.last_decision_time)
     << ", \"message_complexity\": " << o.result.message_complexity
     << ", \"word_complexity\": " << o.result.word_complexity
     << ", \"messages_total\": " << o.result.messages_total
     << ", \"events\": " << o.result.events;
  // The verify tally exists only on cert-axis cells (same gate as the
  // cert_mode field above): it is the number the axis is about, and it is
  // deterministic per cell, so the "certs" document doubles as the
  // job-count determinism reference for the aggregate backend.
  if (!o.point.tags[Axis::kCertMode].empty()) {
    os << ", \"verifies_total\": " << o.result.verifies_total;
  }
  // The near-miss fields exist only when the matrix opted in
  // (ScenarioMatrix::record_near_miss) — same gating convention as the
  // pattern/net_profile fields above, so every pinned legacy document
  // keeps its exact bytes.
  if (o.point.near_miss) {
    os << ", \"min_vote_margin\": " << o.result.min_vote_margin
       << ", \"conflicting_votes\": " << o.result.conflicting_votes
       << ", \"queue_drained\": " << (o.result.queue_drained ? "true" : "false")
       << ", \"end_time\": " << json_number(o.result.end_time)
       << ", \"grace_cutoff\": " << json_number(o.result.grace_cutoff);
  }
  os << "}";
  return os.str();
}

ScenarioRecord parse_outcome_line(const std::string& line) {
  ScenarioRecord r;
  // Escaped text can never contain a bare `"error": "` sequence (any quote
  // inside a string is \"), so key lookups on the raw line are unambiguous.
  if (line.find("\"error\": \"") != std::string::npos) {
    r.has_error = true;
    return r;
  }
  const auto decided = bool_field(line, "decided");
  const auto agreement = bool_field(line, "agreement");
  const auto validity_ok = bool_field(line, "validity_ok");
  const auto latency = number_field(line, "last_decision_time");
  const auto msgs = number_field(line, "message_complexity");
  const auto words = number_field(line, "word_complexity");
  if (!decided.has_value() || !agreement.has_value() ||
      !validity_ok.has_value() || !latency.has_value() || !msgs.has_value() ||
      !words.has_value()) {
    throw std::runtime_error("malformed scenario line: " + line);
  }
  r.decided = *decided;
  r.agreement = *agreement;
  r.validity_ok = *validity_ok;
  r.last_decision_time = *latency;
  r.message_complexity = *msgs;
  r.word_complexity = *words;
  return r;
}

void JsonSummary::add(const ScenarioRecord& r) {
  ++total;
  if (r.has_error) {
    ++errors;
    return;
  }
  if (r.decided) {
    ++decided;
    latency_sum += r.last_decision_time;
    message_sum += r.message_complexity;
    word_sum += r.word_complexity;
  }
  if (!r.agreement) ++agreement_violations;
  if (!r.validity_ok) ++validity_violations;
}

bool JsonSummary::healthy() const {
  return agreement_violations == 0 && validity_violations == 0 &&
         errors == 0 && decided == total;
}

std::string JsonSummary::to_json() const {
  double mean_latency = 0, mean_msgs = 0, mean_words = 0;
  if (decided > 0) {
    const auto d = static_cast<double>(decided);
    mean_latency = latency_sum / d;
    mean_msgs = message_sum / d;
    mean_words = word_sum / d;
  }
  std::ostringstream os;
  os << "{\"total\": " << total << ", \"decided\": " << decided
     << ", \"agreement_violations\": " << agreement_violations
     << ", \"validity_violations\": " << validity_violations
     << ", \"errors\": " << errors
     << ", \"mean_latency\": " << json_number(mean_latency)
     << ", \"mean_message_complexity\": " << json_number(mean_msgs)
     << ", \"mean_word_complexity\": " << json_number(mean_words) << "}";
  return os.str();
}

// ------------------------------------------------------------- documents

void document_header(std::ostream& os, const std::string& matrix,
                     const std::optional<ShardSpec>& shard,
                     std::size_t total) {
  os << "{\n  \"matrix\": \"" << json_escape(matrix) << "\",\n";
  if (shard.has_value()) {
    const ShardRange range = shard_range(total, *shard);
    os << "  \"shard\": {\"index\": " << shard->index
       << ", \"count\": " << shard->count << ", \"total\": " << total
       << ", \"begin\": " << range.begin << ", \"end\": " << range.end
       << "},\n";
  }
  os << "  \"scenarios\": [\n";
}

void document_footer(std::ostream& os, const JsonSummary& summary) {
  os << "  ],\n  \"summary\": " << summary.to_json() << "\n}\n";
}

ShardDocument parse_document(std::istream& is) {
  const auto fail = [](const std::string& what) {
    throw std::runtime_error("malformed sweep document: " + what);
  };
  std::vector<std::string> raw;
  std::string line;
  while (std::getline(is, line)) raw.push_back(line);
  std::size_t at = 0;
  const auto next = [&]() -> const std::string& {
    if (at >= raw.size()) fail("truncated");
    return raw[at++];
  };

  ShardDocument doc;
  if (next() != "{") fail("expected '{' on line 1");
  {
    const std::string& m = next();
    const auto name = string_field(m, "matrix");
    if (m.rfind("  \"matrix\": ", 0) != 0 || !name.has_value()) {
      fail("expected the matrix line");
    }
    doc.matrix = *name;
  }
  if (at < raw.size() && raw[at].rfind("  \"shard\": {", 0) == 0) {
    const std::string& s = next();
    ShardSpec spec;
    spec.index = count_field_or_throw<int>(s, "index", "shard header");
    spec.count = count_field_or_throw<int>(s, "count", "shard header");
    doc.total = count_field_or_throw<std::size_t>(s, "total", "shard header");
    if (spec.index >= spec.count || spec.count < 1) fail("bad shard header");
    const ShardRange range = shard_range(doc.total, spec);
    if (range.begin !=
            count_field_or_throw<std::size_t>(s, "begin", "shard header") ||
        range.end !=
            count_field_or_throw<std::size_t>(s, "end", "shard header")) {
      fail("shard header range disagrees with index/count/total");
    }
    doc.shard = spec;
  }
  if (next() != "  \"scenarios\": [") fail("expected the scenarios array");
  for (;;) {
    const std::string& l = next();
    if (l == "  ],") break;
    if (l.rfind("    {", 0) != 0) fail("unexpected scenario line: " + l);
    const bool comma = !l.empty() && l.back() == ',';
    doc.lines.push_back(comma ? l.substr(0, l.size() - 1) : l);
  }
  if (next().rfind("  \"summary\": ", 0) != 0) fail("expected the summary");
  if (next() != "}") fail("expected the closing '}'");
  if (!doc.shard.has_value()) doc.total = doc.lines.size();
  return doc;
}

void merge_documents(std::ostream& os, std::vector<ShardDocument> docs) {
  if (docs.empty()) throw std::invalid_argument("no shard documents to merge");
  const std::string matrix = docs.front().matrix;
  const std::size_t total = docs.front().total;
  struct Piece {
    ShardRange range;
    const ShardDocument* doc;
  };
  std::vector<Piece> pieces;
  pieces.reserve(docs.size());
  for (const ShardDocument& doc : docs) {
    if (doc.matrix != matrix) {
      throw std::invalid_argument("shard matrices differ: '" + matrix +
                                  "' vs '" + doc.matrix + "'");
    }
    if (doc.total != total) {
      throw std::invalid_argument(
          "shard totals differ: " + std::to_string(total) + " vs " +
          std::to_string(doc.total));
    }
    const ShardRange range = doc.shard.has_value()
                                 ? shard_range(total, *doc.shard)
                                 : ShardRange{0, total};
    if (doc.lines.size() != range.end - range.begin) {
      throw std::invalid_argument(
          "shard [" + std::to_string(range.begin) + ", " +
          std::to_string(range.end) + ") carries " +
          std::to_string(doc.lines.size()) + " scenarios, expected " +
          std::to_string(range.end - range.begin));
    }
    pieces.push_back(Piece{range, &doc});
  }
  std::sort(pieces.begin(), pieces.end(), [](const Piece& a, const Piece& b) {
    return a.range.begin < b.range.begin;
  });
  std::size_t expect = 0;
  for (const Piece& piece : pieces) {
    // Empty slices (count > total leaves some shards cell-less) cover
    // nothing and constrain nothing.
    if (piece.range.begin == piece.range.end) continue;
    if (piece.range.begin < expect) {
      throw std::invalid_argument(
          "shards overlap at index " + std::to_string(piece.range.begin));
    }
    if (piece.range.begin > expect) {
      throw std::invalid_argument("shards leave a gap: [" +
                                  std::to_string(expect) + ", " +
                                  std::to_string(piece.range.begin) +
                                  ") is covered by no shard");
    }
    expect = piece.range.end;
  }
  if (expect != total) {
    throw std::invalid_argument(
        "shards leave a gap: [" + std::to_string(expect) + ", " +
        std::to_string(total) + ") is covered by no shard");
  }

  document_header(os, matrix, std::nullopt, total);
  JsonSummary summary;
  std::size_t emitted = 0;
  for (const Piece& piece : pieces) {
    for (const std::string& scenario : piece.doc->lines) {
      summary.add(parse_outcome_line(scenario));
      os << scenario << (++emitted < total ? ",\n" : "\n");
    }
  }
  document_footer(os, summary);
}

// ------------------------------------------------------------ checkpoint

bool Checkpoint::same_work(const Checkpoint& other) const {
  return matrix == other.matrix && filters == other.filters &&
         shard.index == other.shard.index &&
         shard.count == other.shard.count && total == other.total &&
         begin == other.begin && end == other.end;
}

std::string Checkpoint::to_json() const {
  std::ostringstream os;
  os << "{\"matrix\": \"" << json_escape(matrix) << "\", ";
  for (const AxisInfo& info : axes()) {
    os << "\"" << info.checkpoint_key << "\": \""
       << json_escape(filters[info.axis]) << "\", ";
  }
  os << "\"shard_index\": " << shard.index
     << ", \"shard_count\": " << shard.count << ", \"total\": " << total
     << ", \"begin\": " << begin << ", \"end\": " << end
     << ", \"next\": " << next << ", \"sidecar_bytes\": " << sidecar_bytes
     << "}\n";
  return os.str();
}

Checkpoint Checkpoint::parse(const std::string& text) {
  Checkpoint cp;
  const auto matrix = string_field(text, "matrix");
  if (!matrix.has_value()) {
    throw std::runtime_error("malformed checkpoint: missing matrix");
  }
  cp.matrix = *matrix;
  for (const AxisInfo& info : axes()) {
    const auto filter = string_field(text, info.checkpoint_key);
    // Every checkpoint records the strategy filter. One predating a later
    // axis lacks its key and resumes as "no filter", which is exactly the
    // work it recorded.
    if (!filter.has_value() && info.axis == Axis::kStrategy) {
      throw std::runtime_error(std::string("malformed checkpoint: missing ") +
                               info.checkpoint_key);
    }
    cp.filters[info.axis] = filter.value_or("");
  }
  const auto size = [&text](const char* key) {
    return count_field_or_throw<std::size_t>(text, key, "checkpoint");
  };
  cp.shard.index = count_field_or_throw<int>(text, "shard_index", "checkpoint");
  cp.shard.count = count_field_or_throw<int>(text, "shard_count", "checkpoint");
  cp.total = size("total");
  cp.begin = size("begin");
  cp.end = size("end");
  cp.next = size("next");
  cp.sidecar_bytes = count_field_or_throw<std::uint64_t>(text, "sidecar_bytes",
                                                         "checkpoint");
  if (cp.begin > cp.end || cp.next < cp.begin || cp.next > cp.end ||
      cp.end > cp.total) {
    throw std::runtime_error("malformed checkpoint: inconsistent indices");
  }
  return cp;
}

void atomic_write(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot open " + tmp + ": " + errno_message());
  }
  std::size_t written = 0;
  while (written < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot write " + tmp + ": " +
                               errno_message(err));
    }
    written += static_cast<std::size_t>(n);
  }
  // The rename must never be observed pointing at un-persisted data
  // (delayed allocation would otherwise leave an empty file after power
  // loss), so the content is fsynced before and the directory entry after.
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot fsync " + tmp + ": " +
                             errno_message(err));
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " over " + path + ": " +
                             errno_message());
  }
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {  // best effort: not every filesystem supports it
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

std::string sidecar_path(const std::string& checkpoint_path) {
  return checkpoint_path + ".scenarios";
}

void for_each_sidecar_line(
    const std::string& path, std::size_t count,
    const std::function<void(const std::string&, std::size_t)>& fn) {
  if (count == 0) return;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read sidecar " + path);
  std::string line;
  std::size_t seen = 0;
  while (seen < count && std::getline(in, line)) {
    // A line that hit EOF before its newline is torn — never count it as
    // complete.
    if (in.eof()) break;
    fn(line, seen++);
  }
  if (seen < count) {
    throw std::runtime_error(
        "sidecar " + path + " has " + std::to_string(seen) +
        " complete lines, expected " + std::to_string(count));
  }
}

std::vector<std::string> read_sidecar(const std::string& path,
                                      std::size_t count) {
  std::vector<std::string> lines;
  lines.reserve(count);
  for_each_sidecar_line(
      path, count,
      [&lines](const std::string& line, std::size_t) {
        lines.push_back(line);
      });
  return lines;
}

}  // namespace valcon::harness::io
