// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around the public calls
// it makes into each layer (ScenarioMatrix::point_at, make_validity +
// make_lambda, run_universal, every Λ call, check_execution, outcome_line,
// run_search, shrink, a storm run). Each span has the id of the operation it
// belongs to (the cell, search or storm index within a pass), a layer name,
// start and end times, and its parent span. A layer's self time is its
// span's duration minus the time covered by its children; everything runs
// on one thread, so sibling spans never overlap and that covered time is
// just the sum of the children's durations.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace valcon::perfbench {

enum class Layer : std::uint8_t {
  kOp,            // one operation; its self time is glue between layers
  kPointAt,       // ScenarioMatrix::point_at (candidate_point for search)
  kLambdaBuild,   // make_validity + core::make_lambda
  kRunUniversal,  // run_universal; its Λ calls are child spans
  kLambdaCall,    // one Λ evaluation inside run_universal
  kCheck,         // core::check_execution
  kOutcomeLine,   // io::outcome_line
  kSearchGenerate,  // run_search without shrinking
  kSearchShrink,    // shrink() of one violation
  kStorm,           // one token-storm simulator run
};

inline constexpr std::size_t kLayerCount = 10;

inline const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "op",
      "harness.point_at",
      "core.lambda_build",
      "harness.run_universal",
      "core.lambda_call",
      "core.check_execution",
      "sweep_io.outcome_line",
      "search.generate",
      "search.shrink",
      "sim.storm"};
  return kNames[static_cast<std::size_t>(layer)];
}

/// Self time and span count per layer, summed over folded spans.
struct LayerTotals {
  std::array<double, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> spans{};

  [[nodiscard]] double self(Layer layer) const {
    return self_ns[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::uint64_t count(Layer layer) const {
    return spans[static_cast<std::size_t>(layer)];
  }
};

class Tracer {
 public:
  struct Span {
    std::uint64_t trace_id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  // index into the same buffer; -1 for a root
    Layer layer = Layer::kOp;
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer)
        : tracer_(tracer), index_(tracer.open(layer)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  void set_trace_id(std::uint64_t id) { trace_id_ = id; }

  /// Adds the self time of every recorded span to `totals` and empties the
  /// buffer. The first fold's spans are kept for write_jsonl(); later ones
  /// are dropped, which bounds the trace file to one traced pass. Must not
  /// be called while a span is open.
  void fold(LayerTotals& totals) {
    std::vector<std::int64_t> covered(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto layer = static_cast<std::size_t>(s.layer);
      totals.self_ns[layer] +=
          static_cast<double>(s.end_ns - s.start_ns - covered[i]);
      ++totals.spans[layer];
    }
    if (kept_.empty()) {
      kept_.swap(spans_);
    }
    spans_.clear();
  }

  /// One JSON object per kept span: trace id, span id, parent span id (null
  /// for a root), layer name, start and end in ns since the tracer was made.
  void write_jsonl(std::ostream& os) const {
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Span& s = kept_[i];
      os << "{\"trace\":" << s.trace_id << ",\"span\":" << i
         << ",\"parent\":";
      if (s.parent < 0) {
        os << "null";
      } else {
        os << s.parent;
      }
      os << ",\"name\":\"" << layer_name(s.layer)
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << "}\n";
    }
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::size_t open(Layer layer) {
    const std::size_t index = spans_.size();
    spans_.push_back(Span{trace_id_, now_ns(), 0, open_, layer});
    open_ = static_cast<std::int64_t>(index);
    return index;
  }

  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    open_ = spans_[index].parent;
  }

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::uint64_t trace_id_ = 0;
  std::int64_t open_ = -1;
  std::vector<Span> spans_;
  std::vector<Span> kept_;
};

}  // namespace valcon::perfbench
