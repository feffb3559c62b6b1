// valcon_sweep — runs a named scenario matrix (or one index-stable shard
// of it) and emits the per-scenario results plus an aggregate summary as
// JSON.
//
//   valcon_sweep [--matrix smoke|full|byzantine|validity|certs|committee]
//                [--strategies a,b,...] [--patterns a,b,...]
//                [--net-profiles a,b,...] [--cert-modes a,b,...]
//                [--topologies a,b,...]
//                [--jobs N] [--shard I/M]
//                [--checkpoint FILE] [--stop-after K] [--out FILE]
//                [--quiet]
//
// Each named axis of the matrix (harness/sweep.hpp's axis table) has a
// filter flag: --strategies filters the fault dimension to the named
// adversary strategies ("none" selects the fault-free cells); --patterns,
// --net-profiles, --cert-modes and --topologies filter the
// proposal-pattern, network-profile, certificate-backend and topology
// dimensions the same way. Unknown names abort with the list of what is
// registered; a name the matrix does not sweep aborts too (nothing
// requested is dropped silently). A filter never changes the bytes of the
// cells it keeps.
//
// --shard I/M runs the I-th (0-based) of M balanced, contiguous,
// index-stable slices of the matrix. Shard outputs carry a "shard" header
// and are recombined by valcon_merge into a document byte-identical to a
// single-shot run of the same matrix.
//
// --checkpoint FILE makes the run resumable: completed scenario lines are
// appended to FILE.scenarios and FILE atomically records the last
// contiguous completed index after every cell, so a killed run rerun with
// the same arguments skips every completed cell. --stop-after K bounds
// this invocation to K cells (exit 3 while the shard is incomplete) — the
// lever CI uses to force a mid-shard resume, and a budget knob for
// incremental 1e6+-cell sweeps.
//
// Cells are enumerated lazily (ScenarioMatrix::point_at) and streamed
// (SweepRunner::run_range), so memory stays O(jobs + output), never
// O(matrix). Per-scenario output is a deterministic function of the matrix
// alone; wall-clock time lives only in the stderr table, which is what
// lets CI diff sweep JSON byte-for-byte across job counts, shardings and
// resumes. perfbench (perfbench/README.md) is the timer.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"
#include "valcon/harness/table.hpp"

using namespace valcon;
using namespace valcon::harness;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--matrix smoke|full|byzantine|validity|certs|committee]";
  for (const AxisInfo& info : axes()) {
    std::cerr << " [" << info.flag << " a,b,...]";
  }
  std::cerr << " [--jobs N] [--shard I/M]"
               " [--checkpoint FILE] [--stop-after K] [--out FILE]"
               " [--quiet]\n";
  return 2;
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// A filter's checkpoint identity. It is the *set* of names (neither the
/// keep-order nor a repeated name affects the matrix), so the join is
/// sorted and deduped: a resume that spells the same filter differently
/// still matches its checkpoint. (Checkpoints from builds that recorded
/// the raw --strategies order may report a mismatch on a multi-name
/// filter; rerun that shard from scratch.)
std::string sorted_join(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string matrix_name = "smoke";
  PerAxis<std::string> filter_csv;  // each filter flag's value, verbatim
  std::string out_path;
  std::string checkpoint_path;
  std::optional<io::ShardSpec> shard;
  int jobs = 1;
  long stop_after = -1;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--matrix" && i + 1 < argc) {
      matrix_name = argv[++i];
    } else if (const auto axis = axis_for_flag(arg);
               axis.has_value() && i + 1 < argc) {
      filter_csv[*axis] = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      // Strict parse: "--jobs abc" / "--jobs -3" used to become 1 job
      // silently via atoi.
      const auto parsed = io::parse_int(argv[++i], 1);
      if (!parsed.has_value()) {
        std::cerr << "error: --jobs wants a positive integer, got '"
                  << argv[i] << "'\n";
        return usage(argv[0]);
      }
      jobs = *parsed;
    } else if (arg == "--shard" && i + 1 < argc) {
      shard = io::parse_shard_spec(argv[++i]);
      if (!shard.has_value()) {
        std::cerr << "error: --shard wants I/M with 0 <= I < M, got '"
                  << argv[i] << "'\n";
        return usage(argv[0]);
      }
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (arg == "--stop-after" && i + 1 < argc) {
      const auto parsed = io::parse_int(argv[++i], 1);
      if (!parsed.has_value()) {
        std::cerr << "error: --stop-after wants a positive integer, got '"
                  << argv[i] << "'\n";
        return usage(argv[0]);
      }
      stop_after = *parsed;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (stop_after > 0 && checkpoint_path.empty()) {
    std::cerr << "error: --stop-after without --checkpoint would discard"
                 " the completed work\n";
    return usage(argv[0]);
  }

  ScenarioMatrix matrix = named_matrix("smoke");
  io::Checkpoint cp;
  cp.matrix = matrix_name;
  try {
    matrix = named_matrix(matrix_name);
    for (const AxisInfo& info : axes()) {
      if (filter_csv[info.axis].empty()) continue;
      const std::vector<std::string> names =
          io::split_csv(filter_csv[info.axis]);
      matrix.keep(info.axis, names);
      cp.filters[info.axis] = sorted_join(names);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const std::size_t total = matrix.size();
  const io::ShardRange range =
      io::shard_range(total, shard.value_or(io::ShardSpec{0, 1}));

  // ---------------------------------------------------------- checkpoint
  cp.shard = shard.value_or(io::ShardSpec{0, 1});
  cp.total = total;
  cp.begin = range.begin;
  cp.end = range.end;
  cp.next = range.begin;
  const std::string sidecar =
      checkpoint_path.empty() ? "" : io::sidecar_path(checkpoint_path);
  if (!checkpoint_path.empty()) {
    try {
      if (file_exists(checkpoint_path)) {
        std::ifstream in(checkpoint_path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(in)), {});
        const io::Checkpoint loaded = io::Checkpoint::parse(text);
        if (!loaded.same_work(cp)) {
          std::cerr << "error: checkpoint " << checkpoint_path
                    << " records different work (matrix";
          for (const AxisInfo& info : axes()) std::cerr << ", " << info.flag;
          std::cerr << " or shard mismatch);"
                       " delete it or rerun the original invocation\n";
          return 2;
        }
        cp = loaded;
        struct stat side_st {};
        const bool side_exists = ::stat(sidecar.c_str(), &side_st) == 0;
        if (cp.next > cp.begin && !side_exists) {
          std::cerr << "error: checkpoint sidecar " << sidecar
                    << " is missing\n";
          return 2;
        }
        // The sidecar may only ever be longer than the checkpoint records
        // (a crash between the append and the checkpoint update); shorter
        // means lost data, and truncate() would silently zero-extend it
        // into garbage lines.
        if (side_exists &&
            static_cast<std::uint64_t>(side_st.st_size) < cp.sidecar_bytes) {
          std::cerr << "error: sidecar " << sidecar << " is "
                    << side_st.st_size << " bytes but the checkpoint records "
                    << cp.sidecar_bytes
                    << "; delete both to restart this shard\n";
          return 2;
        }
        // Drop any line left behind by a crash after the sidecar append
        // but before the checkpoint update (possibly torn).
        if (side_exists &&
            ::truncate(sidecar.c_str(),
                       static_cast<off_t>(cp.sidecar_bytes)) != 0) {
          std::cerr << "error: cannot truncate sidecar " << sidecar << "\n";
          return 2;
        }
      } else {
        io::atomic_write(sidecar, "");
        io::atomic_write(checkpoint_path, cp.to_json());
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  // --------------------------------------------------------------- run
  const std::size_t resume_at = cp.next;
  const std::size_t stop =
      stop_after > 0
          ? std::min<std::size_t>(range.end,
                                  resume_at + static_cast<std::size_t>(
                                                  stop_after))
          : range.end;

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  const bool complete_this_run = stop == range.end;
  // The checkpoint path writes the document at assembly time instead.
  if (!out_path.empty() && checkpoint_path.empty()) {
    out_file.open(out_path, std::ios::binary | std::ios::trunc);
    if (!out_file) {
      std::cerr << "error: cannot open " << out_path << "\n";
      return 1;
    }
    out = &out_file;
  }

  const SweepRunner runner(jobs);
  io::JsonSummary summary;
  const auto start = std::chrono::steady_clock::now();
  try {
    if (checkpoint_path.empty()) {
      // No checkpoint: stream scenario lines straight into the document.
      io::document_header(*out, matrix_name, shard, total);
      runner.run_range(matrix, range.begin, range.end,
                       [&](SweepOutcome&& o) {
                         const std::string line = io::outcome_line(o);
                         summary.add(io::parse_outcome_line(line));
                         *out << line
                              << (o.point.index + 1 < range.end ? ",\n"
                                                                : "\n");
                       });
    } else {
      // Checkpointed: stream lines into the sidecar, checkpoint after
      // every cell, and assemble the document once the shard is complete.
      // The sidecar append is fsynced before the checkpoint is written,
      // so the checkpoint never claims bytes the disk does not have.
      const int side_fd =
          ::open(sidecar.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
      if (side_fd < 0) {
        std::cerr << "error: cannot open sidecar " << sidecar << "\n";
        return 1;
      }
      try {
        runner.run_range(matrix, resume_at, stop, [&](SweepOutcome&& o) {
          const std::string payload = io::outcome_line(o) + "\n";
          std::size_t written = 0;
          while (written < payload.size()) {
            const ssize_t n = ::write(side_fd, payload.data() + written,
                                      payload.size() - written);
            if (n < 0) {
              throw std::runtime_error("cannot append to sidecar " + sidecar);
            }
            written += static_cast<std::size_t>(n);
          }
          if (::fsync(side_fd) != 0) {
            throw std::runtime_error("cannot fsync sidecar " + sidecar);
          }
          cp.next = o.point.index + 1;
          cp.sidecar_bytes += payload.size();
          io::atomic_write(checkpoint_path, cp.to_json());
        });
      } catch (...) {
        ::close(side_fd);
        throw;
      }
      ::close(side_fd);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::size_t cells_run = (checkpoint_path.empty() ? range.end : stop) -
                                (checkpoint_path.empty() ? range.begin
                                                         : resume_at);

  if (!complete_this_run) {
    if (!quiet) {
      std::cerr << "checkpoint: " << (cp.next - range.begin) << " of "
                << (range.end - range.begin) << " cells done ([" << range.begin
                << ", " << range.end << ") of " << total
                << "); rerun the same invocation without --stop-after to"
                   " finish\n";
    }
    return 3;
  }

  if (!checkpoint_path.empty()) {
    // Assemble the final document from the sidecar (also reached by a
    // rerun of an already-complete checkpoint, which makes emission
    // idempotent and recomputation-free).
    if (!out_path.empty()) {
      out_file.open(out_path, std::ios::binary | std::ios::trunc);
      if (!out_file) {
        std::cerr << "error: cannot open " << out_path << "\n";
        return 1;
      }
      out = &out_file;
    }
    io::document_header(*out, matrix_name, shard, total);
    const std::size_t count = range.end - range.begin;
    try {
      io::for_each_sidecar_line(
          sidecar, count, [&](const std::string& line, std::size_t i) {
            summary.add(io::parse_outcome_line(line));
            *out << line << (i + 1 < count ? ",\n" : "\n");
          });
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  io::document_footer(*out, summary);
  out->flush();
  if (!*out) {
    std::cerr << "error: cannot write "
              << (out_path.empty() ? "stdout" : out_path) << "\n";
    return 1;
  }

  if (!quiet) {
    Table table({"matrix", "shard", "cells", "ran", "jobs", "decided",
                 "agree-viol", "valid-viol", "errors", "wall(s)", "scen/s"});
    const io::ShardSpec spec = shard.value_or(io::ShardSpec{0, 1});
    table.add_row({matrix_name,
                   std::to_string(spec.index) + "/" +
                       std::to_string(spec.count),
                   std::to_string(summary.total), std::to_string(cells_run),
                   std::to_string(runner.jobs()),
                   std::to_string(summary.decided),
                   std::to_string(summary.agreement_violations),
                   std::to_string(summary.validity_violations),
                   std::to_string(summary.errors), fmt(wall),
                   fmt(wall > 0 ? static_cast<double>(cells_run) / wall : 0,
                       1)});
    table.print(std::cerr);
  }

  return summary.healthy() ? 0 : 1;
}
