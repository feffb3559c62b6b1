#include "valcon/sim/simulator.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace valcon::sim {

class Simulator::ProcessContext final : public Context {
 public:
  ProcessContext(Simulator* sim, ProcessId id, std::uint64_t rng_seed)
      : sim_(sim),
        id_(id),
        signer_(sim->keys_->signer_for(id)),
        rng_(rng_seed) {}

  [[nodiscard]] Time now() const override { return sim_->now_; }
  [[nodiscard]] ProcessId id() const override { return id_; }
  [[nodiscard]] int n() const override { return sim_->config_.n; }
  [[nodiscard]] int t() const override { return sim_->config_.t; }
  [[nodiscard]] Time delta() const override {
    return sim_->config_.net.delta;
  }

  void send(ProcessId to, PayloadPtr payload) override {
    sim_->do_send(id_, to, std::move(payload));
  }

  void set_timer(Time delay, std::uint64_t tag) override {
    sim_->do_set_timer(id_, delay, tag);
  }

  void note_quorum(int margin, std::uint64_t conflicting) override {
    // Only correct processes feed the near-miss counters: a faulty shim's
    // inner stacks (equivocation faces etc.) form QCs of their own, and
    // counting those would report the adversary's private state as a
    // near-miss observed by the system.
    if (sim_->faulty_[static_cast<std::size_t>(id_)] == 0) {
      sim_->metrics_.on_quorum(margin, conflicting);
    }
  }

  [[nodiscard]] const crypto::KeyRegistry& keys() const override {
    return *sim_->keys_;
  }
  [[nodiscard]] const crypto::Signer& signer() const override {
    return signer_;
  }
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  Simulator* sim_;
  ProcessId id_;
  crypto::Signer signer_;
  Rng rng_;
};

Simulator::~Simulator() = default;

namespace {

// Runs before any other member is constructed (config_ is the first member),
// so an invalid configuration never reaches KeyRegistry & co. Every later
// member initializer reads config_, never the constructor argument.
SimConfig validated(SimConfig config) {
  if (config.n <= 0 || config.t < 0 || config.t >= config.n) {
    throw std::invalid_argument("SimConfig requires 0 <= t < n, got n=" +
                                std::to_string(config.n) +
                                " t=" + std::to_string(config.t));
  }
  if (config.keys != nullptr) {
    const int k = config.n - config.t;
    if (config.keys->n() != config.n || config.keys->threshold_k() != k ||
        config.keys->seed() != config.seed) {
      throw std::invalid_argument(
          "SimConfig.keys was built for (n=" +
          std::to_string(config.keys->n()) +
          ", k=" + std::to_string(config.keys->threshold_k()) +
          ", seed=" + std::to_string(config.keys->seed()) +
          "), not this config's (n=" + std::to_string(config.n) +
          ", k=" + std::to_string(k) +
          ", seed=" + std::to_string(config.seed) + ")");
    }
  }
  return config;
}

}  // namespace

Simulator::Simulator(SimConfig config)
    : config_(validated(std::move(config))),
      network_(config_.net, config_.n, config_.seed * 0x9e3779b1ULL + 17),
      keys_(config_.keys != nullptr
                ? config_.keys
                : std::make_shared<const crypto::KeyRegistry>(
                      config_.n, config_.n - config_.t, config_.seed)),
      processes_(static_cast<std::size_t>(config_.n)),
      contexts_(static_cast<std::size_t>(config_.n)),
      faulty_(static_cast<std::size_t>(config_.n), false),
      started_(static_cast<std::size_t>(config_.n), false),
      queue_(config_.net.delta > 0 ? config_.net.delta / 16.0
                                   : 1.0 / 16.0) {}

std::size_t Simulator::checked_index(ProcessId id) const {
  if (id < 0 || id >= config_.n) {
    throw std::out_of_range("process id " + std::to_string(id) +
                            " outside [0, " + std::to_string(config_.n) + ")");
  }
  return static_cast<std::size_t>(id);
}

void Simulator::add_process(ProcessId id, std::unique_ptr<Process> process,
                            Time start_time) {
  const std::size_t idx = checked_index(id);
  if (process == nullptr) {
    throw std::invalid_argument("add_process: null process for id " +
                                std::to_string(id));
  }
  if (processes_[idx] != nullptr) {
    throw std::invalid_argument("add_process: duplicate process id " +
                                std::to_string(id));
  }
  processes_[idx] = std::move(process);
  contexts_[idx] = std::make_unique<ProcessContext>(
      this, id, config_.seed * 1000003ULL + static_cast<std::uint64_t>(id));
  queue_.push(Event{start_time, Event::pack(next_seq_++, EventKind::kStart),
                    0, id, -1});
}

void Simulator::mark_faulty(ProcessId id) { faulty_[checked_index(id)] = 1; }

std::uint64_t Simulator::run(Time horizon) {
  // One slab scope for the whole loop instead of one per event.
  const PayloadSlab::Scope slab_scope(slab_.get());
  std::uint64_t events = 0;
  while (step_unscoped(horizon)) ++events;
  return events;
}

bool Simulator::step(Time horizon) {
  // Payloads constructed by the protocol callbacks come from this
  // simulator's slab.
  const PayloadSlab::Scope slab_scope(slab_.get());
  return step_unscoped(horizon);
}

bool Simulator::step_unscoped(Time horizon) {
  Event event{};
  if (!queue_.pop_until(horizon, event)) return false;
  now_ = std::max(now_, event.time);
  dispatch(event);
  return true;
}

void Simulator::dispatch(const Event& event) {
  const auto idx = static_cast<std::size_t>(event.target);
  Process* process = processes_[idx].get();
  switch (event.kind()) {
    case EventKind::kStart:
      if (process == nullptr) return;
      started_[idx] = 1;
      process->on_start(*contexts_[idx]);
      break;
    case EventKind::kDeliver: {
      // The slot is recycled before the handler runs (the payload itself is
      // moved out first), so a throwing handler never leaks a slot.
      PayloadPtr payload = std::move(payload_slots_[event.aux]);
      free_slots_.push_back(event.aux);
      if (process == nullptr || started_[idx] == 0) return;
      process->on_message(*contexts_[idx], event.from, payload);
      break;
    }
    case EventKind::kTimer:
      if (process == nullptr || started_[idx] == 0) return;
      process->on_timer(*contexts_[idx], event.aux);
      break;
  }
}

void Simulator::do_send(ProcessId from, ProcessId to, PayloadPtr payload) {
  // A Byzantine shim handing the network an out-of-range destination must
  // fail loudly in every build type: the assert this replaces compiled out
  // of release builds and left faulty_/payload_slots_ indexing as UB.
  if (to < 0 || to >= config_.n) {
    throw std::out_of_range("send to process id " + std::to_string(to) +
                            " outside [0, " + std::to_string(config_.n) + ")");
  }
  const bool correct = faulty_[static_cast<std::size_t>(from)] == 0;
  const bool post_gst = now_ >= config_.net.gst;
  metrics_.on_send(correct, post_gst, payload->size_words(),
                   payload->type_id());
  const Time arrival = network_.arrival_time(from, to, now_);
  const std::uint64_t slot = acquire_slot(std::move(payload));
  queue_.push(Event{arrival, Event::pack(next_seq_++, EventKind::kDeliver),
                    slot, to, from});
}

void Simulator::do_set_timer(ProcessId pid, Time delay, std::uint64_t tag) {
  assert(delay >= 0);
  queue_.push(Event{now_ + delay, Event::pack(next_seq_++, EventKind::kTimer),
                    tag, pid, -1});
}

}  // namespace valcon::sim
