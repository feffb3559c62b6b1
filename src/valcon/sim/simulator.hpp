// Deterministic discrete-event simulator for the model of Section 3.1.
//
// A deployment is n Process instances (some marked faulty), one Network, one
// KeyRegistry and one Metrics sink. Events (start, delivery, timer) execute
// in (time, insertion) order, so every run is a deterministic function of
// (configuration, seed) — which is what lets the tests replay adversarial
// executions like those constructed in the paper's proofs.
//
// The event queue is a calendar queue over 32-byte trivially-copyable
// events: payloads live in a slot pool on the side (an event carries a slot
// index), so queue operations move plain structs and never touch a
// shared_ptr reference count, and push/pop are O(1) amortized whatever the
// number of in-flight events. Payload allocation itself goes through the
// simulator's PayloadSlab (see payload_slab.hpp); together with the
// interned-id Metrics and the flat-array Network this makes the
// steady-state per-message path (do_send -> arrival_time -> on_send ->
// queue push/pop) free of heap allocation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "valcon/common.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/metrics.hpp"
#include "valcon/sim/network.hpp"
#include "valcon/sim/payload_slab.hpp"
#include "valcon/sim/process.hpp"

namespace valcon::sim {

struct SimConfig {
  int n = 4;
  int t = 1;
  NetworkConfig net;
  std::uint64_t seed = 1;
  /// Optional pre-built key registry to share across simulators. Its
  /// (k, n)-threshold scheme uses k = n - t, as Quad and vector
  /// dissemination do. The registry is an immutable pure function of
  /// (n, k, seed), so sweeps reuse one instance across every cell with the
  /// same triple (see harness::shared_key_registry). Must match this
  /// config's (n, n - t, seed); the constructor throws otherwise. When
  /// null, the simulator builds its own.
  std::shared_ptr<const crypto::KeyRegistry> keys;
};

class Simulator {
 public:
  explicit Simulator(SimConfig config);
  ~Simulator();  // out of line: ProcessContext is an incomplete type here

  /// Installs the process with id `id`, starting at local time
  /// `start_time` (all correct processes must start by GST, per the model).
  /// Throws std::out_of_range for ids outside [0, n) and
  /// std::invalid_argument for a duplicate id or a null process.
  void add_process(ProcessId id, std::unique_ptr<Process> process,
                   Time start_time = 0.0);

  /// Throws std::out_of_range for ids outside [0, n).
  void mark_faulty(ProcessId id);
  [[nodiscard]] bool is_faulty(ProcessId id) const {
    return faulty_[checked_index(id)] != 0;
  }

  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const crypto::KeyRegistry& keys() const { return *keys_; }
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const SimConfig& config() const { return config_; }

  /// The payload arena backing make_payload during this simulator's
  /// dispatch (exposed for allocation accounting in benches/tests).
  [[nodiscard]] const PayloadSlab& payload_slab() const { return *slab_; }

  /// Runs until the event queue drains or simulated time exceeds `horizon`.
  /// Returns the number of events processed.
  std::uint64_t run(Time horizon = 1e18);

  /// Processes a single event; returns false when the queue is empty or the
  /// next event is beyond `horizon`.
  bool step(Time horizon = 1e18);

  /// True when the event queue is empty — i.e. a run that stopped did so
  /// because it drained, not because a horizon cut it with events pending.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

 private:
  enum class EventKind : std::uint8_t { kStart, kDeliver, kTimer };

  struct Event {
    Time time;
    /// (insertion sequence << 2) | kind: one word both breaks time ties by
    /// insertion order and carries the event kind, keeping the struct at
    /// 32 bytes (two per cache line for the queue's sort/copy loops).
    std::uint64_t seq_kind;
    std::uint64_t aux;  // kTimer: the tag; kDeliver: payload slot index
    ProcessId target;
    ProcessId from;  // kDeliver only

    [[nodiscard]] EventKind kind() const {
      return static_cast<EventKind>(seq_kind & 3);
    }
    [[nodiscard]] static std::uint64_t pack(std::uint64_t seq, EventKind k) {
      return (seq << 2) | static_cast<std::uint64_t>(k);
    }
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  /// Calendar (ladder) event queue: exact (time, seq) pop order — the
  /// same strict total order the old std::priority_queue comparator
  /// induced, so every execution is bit-for-bit unchanged — at O(1)
  /// amortized push/pop whatever the number of in-flight events. A binary
  /// heap pays ~log(n) data-dependent branch mispredictions per operation,
  /// which dominated the hot path once a few hundred events were in
  /// flight.
  ///
  /// Near-future events land in a ring of kBuckets buckets of width
  /// `width_` covering [base_, base_ + span). Buckets are sorted lazily:
  /// a push is a plain append, and a bucket is sorted (ascending (time,
  /// seq)) once, when the pop cursor reaches it — so dense buckets cost
  /// O(log k) comparisons per event in one tight std::sort instead of an
  /// O(k) insertion shift per push. The rare push into the bucket
  /// currently being consumed (an immediate delivery) inserts into the
  /// unconsumed suffix in place. Events beyond the window go to an
  /// overflow min-heap and are re-bucketed when the window advances; the
  /// advance jumps straight to the overflow minimum, so sparse schedules
  /// (long timers) cost no empty-bucket scans.
  class EventQueue {
   public:
    explicit EventQueue(Time bucket_width)
        : width_(bucket_width > 0 ? bucket_width : 1.0),
          inv_width_(1.0 / width_) {}

    [[nodiscard]] bool empty() const { return size_ == 0; }

    /// Pops the next event into `out` unless the queue is empty or the
    /// next event is beyond `horizon` — one cursor walk for what would
    /// otherwise be a top() + pop() pair on the hottest line of step().
    [[nodiscard]] bool pop_until(Time horizon, Event& out) {
      if (size_ == 0) return false;
      advance_to_next();
      Bucket& bucket = ring_[cursor_];
      const Event& next = bucket.events[bucket.consumed];
      if (next.time > horizon) return false;
      out = next;
      if (++bucket.consumed == bucket.events.size()) {
        bucket.events.clear();  // keeps capacity: no steady-state alloc
        bucket.consumed = 0;
        bucket.sorted = false;
      }
      --size_;
      return true;
    }

    void push(const Event& event) {
      ++size_;
      // Defensive clamp: events are never scheduled before the current
      // cursor bucket (time >= now), but floating-point division on an
      // exact bucket boundary may round one bucket low.
      if (event.time >= window_end_) {
        overflow_.push_back(event);
        std::push_heap(overflow_.begin(), overflow_.end(), after);
        return;
      }
      Bucket& bucket = ring_[bucket_index(event.time)];
      if (bucket.sorted) {
        insert_sorted(bucket, event);
      } else {
        bucket.events.push_back(event);
      }
    }

   private:
    static constexpr std::size_t kBuckets = 128;

    struct Bucket {
      std::vector<Event> events;
      std::size_t consumed = 0;  // prefix already popped (implies sorted)
      bool sorted = false;       // cursor has reached this bucket
    };

    [[nodiscard]] static bool before(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq_kind < b.seq_kind;
    }
    [[nodiscard]] static bool after(const Event& a, const Event& b) {
      return before(b, a);
    }

    static void insert_sorted(Bucket& bucket, const Event& event) {
      std::vector<Event>& v = bucket.events;
      // Almost every event is the latest of its bucket; walk back only on
      // the rare inversion.
      std::size_t i = v.size();
      v.push_back(event);
      while (i > bucket.consumed && before(event, v[i - 1])) {
        v[i] = v[i - 1];
        --i;
      }
      v[i] = event;
    }

    /// Moves cursor_ to the bucket holding the global minimum, advancing
    /// the window over the overflow heap as needed. Pre: !empty().
    void advance_to_next() {
      for (;;) {
        while (cursor_ < kBuckets) {
          Bucket& bucket = ring_[cursor_];
          if (bucket.consumed < bucket.events.size()) {
            if (!bucket.sorted) {
              std::sort(bucket.events.begin(), bucket.events.end(), before);
              bucket.sorted = true;
            }
            return;
          }
          ++cursor_;
        }
        // Ring drained: jump the window to the overflow minimum and
        // re-bucket everything that now falls inside it.
        const Time min_time = overflow_.front().time;
        const double laps = std::floor((min_time - base_) / span());
        base_ += (laps > 0 ? laps : 0) * span();
        window_end_ = base_ + span();
        // Far out, the spacing of doubles exceeds span() and base_ +
        // span() rounds back to base_: end the window just past the
        // minimum, so every rebase takes at least one event.
        if (window_end_ <= min_time) {
          window_end_ =
              std::nextafter(min_time, std::numeric_limits<Time>::infinity());
        }
        cursor_ = 0;
        while (!overflow_.empty() && overflow_.front().time < window_end_) {
          std::pop_heap(overflow_.begin(), overflow_.end(), after);
          ring_[bucket_index(overflow_.back().time)].events.push_back(
              overflow_.back());
          overflow_.pop_back();
        }
      }
    }

    /// Ring index for a time inside the window, defensive against
    /// floating-point rounding at bucket boundaries: an index that rounds
    /// below the cursor (or below base_ after a rebase) is clamped to the
    /// cursor bucket, whose exact in-bucket sort keeps the global (time,
    /// seq) order intact.
    [[nodiscard]] std::size_t bucket_index(Time time) const {
      // Multiplying by the reciprocal instead of dividing saves real time
      // per push; the mapping stays monotonic in `time`, which is all
      // bucket assignment needs (exact order is restored per bucket).
      const Time offset = time - base_;
      std::size_t index =
          offset > 0 ? static_cast<std::size_t>(offset * inv_width_) : 0;
      if (index >= kBuckets) index = kBuckets - 1;
      if (index < cursor_) index = cursor_;
      return index;
    }

    [[nodiscard]] Time span() const {
      return width_ * static_cast<Time>(kBuckets);
    }

    Time width_;
    Time inv_width_;
    Time base_ = 0.0;
    Time window_end_ = width_ * static_cast<Time>(kBuckets);
    std::size_t cursor_ = 0;
    std::size_t size_ = 0;
    Bucket ring_[kBuckets];
    std::vector<Event> overflow_;  // min-heap on (time, seq)
  };

  class ProcessContext;

  /// Validates `id` against [0, n); throws std::out_of_range otherwise.
  [[nodiscard]] std::size_t checked_index(ProcessId id) const;

  /// step() without installing the slab scope (run() installs one for
  /// the whole loop).
  bool step_unscoped(Time horizon);

  void dispatch(const Event& event);
  void do_send(ProcessId from, ProcessId to, PayloadPtr payload);
  void do_set_timer(ProcessId pid, Time delay, std::uint64_t tag);

  [[nodiscard]] std::uint64_t acquire_slot(PayloadPtr payload) {
    if (!free_slots_.empty()) {
      const std::uint64_t slot = free_slots_.back();
      free_slots_.pop_back();
      payload_slots_[slot] = std::move(payload);
      return slot;
    }
    payload_slots_.push_back(std::move(payload));
    return payload_slots_.size() - 1;
  }

  SimConfig config_;
  PayloadSlab::Handle slab_;
  Network network_;
  Metrics metrics_;
  std::shared_ptr<const crypto::KeyRegistry> keys_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<ProcessContext>> contexts_;
  std::vector<std::uint8_t> faulty_;   // byte flags: the hot path reads these
  std::vector<std::uint8_t> started_;
  EventQueue queue_;
  std::vector<PayloadPtr> payload_slots_;   // in-flight delivery payloads
  std::vector<std::uint64_t> free_slots_;   // recycled payload_slots_ indices
  std::uint64_t next_seq_ = 0;
  Time now_ = 0.0;
};

}  // namespace valcon::sim
