// Byzantine behaviors used by the paper's proof constructions and by the
// harness adversary strategies (harness/strategy.hpp). Two mechanisms
// express them all:
//
//  * FilterShim    — wraps one inner process: a stop time (crash), an
//                    inbound hook that sees each delivery first and may drop
//                    it, and an outbound verdict on each send (pass, drop,
//                    replace or duplicate). ignore_first() and omit_to() are
//                    the hooks of the Theorem 4 (Dolev-Reischuk) adversary.
//  * FacedProcess  — the partitioning adversary of Lemma 2 / Theorem 1: two
//                    independent copies of a correct protocol, one facing
//                    each partition side, so each side observes a
//                    consistent-looking (but equivocating) participant. A
//                    colluder set lets a whole group share both world views.
//
// plus SilentProcess (canonical executions, §3.1: "no faulty process takes
// any computational step"). Shims nest: the inner process of a FilterShim
// may be another FilterShim or a FacedProcess. Whatever state a behavior
// keeps lives in the hooks its strategy installs.
//
// All randomness flows through the per-process Rng of the Context, so every
// behavior is a deterministic function of (configuration, seed).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "valcon/sim/process.hpp"

namespace valcon::sim {

class SilentProcess final : public Process {};

/// Wraps an inner process and filters what it sees and sends. Every hook is
/// optional; with none the shim is transparent.
class FilterShim final : public Process {
 public:
  /// What becomes of one outbound send.
  enum class Verdict {
    kPass,       // send it unchanged
    kDrop,       // omit it
    kReplace,    // send the payload the hook stored in its argument
    kDuplicate,  // send it twice
  };

  /// Runs on each delivery before the inner process, through the unfiltered
  /// context (so its own sends bypass `outbound`); false drops the delivery.
  using Inbound =
      std::function<bool(Context&, ProcessId from, const PayloadPtr&)>;
  /// Rules on each send of the inner process, given the unfiltered context.
  using Outbound =
      std::function<Verdict(Context&, ProcessId to, PayloadPtr& payload)>;

  struct Hooks {
    /// From this time on the process takes no step at all (crash).
    Time stop = std::numeric_limits<Time>::infinity();
    Inbound inbound{};
    Outbound outbound{};
  };

  FilterShim(std::unique_ptr<Process> inner, Hooks hooks)
      : inner_(std::move(inner)), hooks_(std::move(hooks)) {}

  void on_start(Context& ctx) override {
    if (!live(ctx)) return;
    FilterCtx fctx(this, ctx);
    inner_->on_start(fctx);
  }
  void on_message(Context& ctx, ProcessId from, const PayloadPtr& m) override {
    if (!live(ctx)) return;
    if (hooks_.inbound && !hooks_.inbound(ctx, from, m)) return;
    FilterCtx fctx(this, ctx);
    inner_->on_message(fctx, from, m);
  }
  void on_timer(Context& ctx, std::uint64_t tag) override {
    if (!live(ctx)) return;
    FilterCtx fctx(this, ctx);
    inner_->on_timer(fctx, tag);
  }

 private:
  [[nodiscard]] bool live(const Context& ctx) const {
    return ctx.now() < hooks_.stop;
  }

  class FilterCtx final : public ForwardingContext {
   public:
    FilterCtx(FilterShim* shim, Context& base)
        : ForwardingContext(base), shim_(shim) {}

    void send(ProcessId to, PayloadPtr payload) override {
      const Outbound& outbound = shim_->hooks_.outbound;
      switch (outbound ? outbound(base(), to, payload) : Verdict::kPass) {
        case Verdict::kDrop:
          return;
        case Verdict::kDuplicate:
          ForwardingContext::send(to, payload);
          break;
        case Verdict::kPass:
        case Verdict::kReplace:
          break;
      }
      ForwardingContext::send(to, std::move(payload));
    }

   private:
    FilterShim* shim_;
  };

  std::unique_ptr<Process> inner_;
  Hooks hooks_;
};

/// Inbound hook that drops the first `k` deliveries.
inline FilterShim::Inbound ignore_first(int k) {
  return [k](Context&, ProcessId, const PayloadPtr&) mutable {
    if (k <= 0) return true;
    --k;
    return false;
  };
}

/// Outbound verdict that omits every send to a process in `set`.
inline FilterShim::Outbound omit_to(std::vector<ProcessId> set) {
  return [set = std::move(set)](Context&, ProcessId to, PayloadPtr&) {
    return std::find(set.begin(), set.end(), to) != set.end()
               ? FilterShim::Verdict::kDrop
               : FilterShim::Verdict::kPass;
  };
}

/// Split-brain equivocator. `side(p, now)` assigns every process to face 0
/// or 1 (possibly changing over time — scheduled equivocation); inbound
/// messages are routed to the face of the sender's side, and each face's
/// outbound traffic is confined to its own side. Messages to itself or to a
/// fellow colluder carry a face tag and return to the face that sent them,
/// so a colluding group keeps BOTH world views consistent with every
/// member; a lone equivocator has no colluders. The side assignment must
/// then be identical across the group. Timers are tagged per face.
class FacedProcess final : public Process {
 public:
  /// Face tag on a message to self or to a colluder.
  // valcon-lint: allow(payload-type) -- forwards the inner payload's identity
  struct FacedSelfMsg final : Payload {
    FacedSelfMsg(int f, PayloadPtr m) : face(f), inner(std::move(m)) {}
    [[nodiscard]] const char* type_name() const override {
      return inner->type_name();
    }
    [[nodiscard]] PayloadTypeId type_id() const override {
      return inner->type_id();
    }
    [[nodiscard]] std::size_t size_words() const override {
      return inner->size_words();
    }
    int face;
    PayloadPtr inner;
  };

  using Side = std::function<int(ProcessId, Time)>;

  FacedProcess(std::unique_ptr<Process> face0, std::unique_ptr<Process> face1,
               Side side, std::vector<ProcessId> colluders = {})
      : faces_{std::move(face0), std::move(face1)},
        side_(std::move(side)),
        colluders_(std::move(colluders)) {}

  void on_start(Context& ctx) override {
    for (int f = 0; f < 2; ++f) {
      FaceCtx fctx(this, ctx, f);
      face(f).on_start(fctx);
    }
  }

  void on_message(Context& ctx, ProcessId from, const PayloadPtr& m) override {
    // Face-tagged messages (from self or a colluder) return to the tagged
    // face; outsider messages are routed by the sender's side.
    if (const auto* tagged = dynamic_cast<const FacedSelfMsg*>(m.get())) {
      FaceCtx fctx(this, ctx, tagged->face);
      face(tagged->face).on_message(fctx, from, tagged->inner);
      return;
    }
    const int f = side_(from, ctx.now());
    FaceCtx fctx(this, ctx, f);
    face(f).on_message(fctx, from, m);
  }

  void on_timer(Context& ctx, std::uint64_t tag) override {
    const int f = static_cast<int>(tag & 1);
    FaceCtx fctx(this, ctx, f);
    face(f).on_timer(fctx, tag >> 1);
  }

 private:
  [[nodiscard]] Process& face(int f) {
    return *faces_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] bool colludes_with(ProcessId q) const {
    return std::find(colluders_.begin(), colluders_.end(), q) !=
           colluders_.end();
  }

  class FaceCtx final : public ForwardingContext {
   public:
    FaceCtx(FacedProcess* shim, Context& base, int face)
        : ForwardingContext(base), shim_(shim), face_(face) {}

    void send(ProcessId to, PayloadPtr payload) override {
      if (to == id() || shim_->colludes_with(to)) {
        ForwardingContext::send(
            to, make_payload<FacedSelfMsg>(face_, std::move(payload)));
        return;
      }
      if (shim_->side_(to, now()) != face_) return;
      ForwardingContext::send(to, std::move(payload));
    }
    void set_timer(Time delay, std::uint64_t tag) override {
      ForwardingContext::set_timer(
          delay, (tag << 1) | static_cast<std::uint64_t>(face_));
    }

   private:
    FacedProcess* shim_;
    int face_;
  };

  std::array<std::unique_ptr<Process>, 2> faces_;
  Side side_;
  std::vector<ProcessId> colluders_;
};

/// Unrecognizable protocol message: no component dynamic_casts to it, so
/// receivers must (and do) ignore it. The "mutate" strategy sends it to
/// model arbitrary payload corruption while keeping word accounting honest.
// valcon-protomap: allow(black-hole) -- adversarial garbage is meant to be dropped
struct GarbagePayload final : Payload {
  explicit GarbagePayload(std::size_t words) : words_(words == 0 ? 1 : words) {}
  VALCON_PAYLOAD_TYPE("adversary/garbage")
  [[nodiscard]] std::size_t size_words() const override { return words_; }

 private:
  std::size_t words_;
};

}  // namespace valcon::sim
