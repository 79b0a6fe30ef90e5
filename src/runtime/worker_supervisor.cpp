#include "runtime/worker_supervisor.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/error.h"
#include "common/log.h"
#include "runtime/retry_policy.h"

namespace ppc::runtime {

WorkerSupervisor::WorkerSupervisor(WorkerFactory factory, SupervisorConfig config)
    : factory_(std::move(factory)),
      config_(std::move(config)),
      metrics_(config_.metrics ? config_.metrics : std::make_shared<MetricsRegistry>()) {
  PPC_REQUIRE(factory_ != nullptr, "supervisor needs a worker factory");
  PPC_REQUIRE(config_.num_workers >= 1, "supervisor needs at least one slot");
  PPC_REQUIRE(config_.max_restarts_per_slot >= 0, "max_restarts_per_slot must be >= 0");
  PPC_REQUIRE(config_.initial_backoff >= 0.0 && config_.max_backoff >= 0.0,
              "backoff must be non-negative");
  PPC_REQUIRE(config_.watch_interval > 0.0, "watch interval must be positive");
  PPC_REQUIRE(config_.stall_timeout >= 0.0, "stall timeout must be >= 0");
}

WorkerSupervisor::~WorkerSupervisor() { stop(); }

void WorkerSupervisor::start() {
  std::lock_guard lock(mu_);
  PPC_REQUIRE(!started_, "supervisor already started");
  started_ = true;
  slots_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int s = 0; s < config_.num_workers; ++s) {
    Slot slot;
    slot.base_id = config_.id_prefix + std::to_string(s);
    slot.worker = factory_(slot.base_id, 0);
    PPC_REQUIRE(slot.worker.lifecycle != nullptr, "factory must supply a lifecycle");
    slots_.push_back(std::move(slot));
  }
  watch_thread_ = std::thread([this] { watch_loop(); });
}

void WorkerSupervisor::stop() {
  {
    std::lock_guard lock(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  stop_requested_.store(true);
  if (watch_thread_.joinable()) watch_thread_.join();
  // The watch loop is down; no new workers can appear, so the slot table is
  // stable without the lock (held briefly anyway for consistency).
  std::vector<TaskLifecycle*> to_stop;
  {
    std::lock_guard lock(mu_);
    for (Slot& slot : slots_) {
      if (slot.worker.lifecycle != nullptr) to_stop.push_back(slot.worker.lifecycle);
    }
    for (SupervisedWorker& w : retired_) {
      if (w.lifecycle != nullptr) to_stop.push_back(w.lifecycle);
    }
  }
  for (TaskLifecycle* lc : to_stop) lc->request_stop();
  for (TaskLifecycle* lc : to_stop) lc->join();
}

int WorkerSupervisor::alive_workers() const {
  std::lock_guard lock(mu_);
  int n = 0;
  for (const Slot& slot : slots_) {
    const TaskLifecycle* lc = slot.worker.lifecycle;
    if (lc != nullptr && lc->running() && !lc->crashed()) ++n;
  }
  return n;
}

namespace {
/// Restart backoff growth per consecutive restart of a slot.
constexpr double kBackoffMultiplier = 2.0;
}  // namespace

Seconds WorkerSupervisor::backoff_for(int restart_number) const {
  Seconds b = config_.initial_backoff;
  for (int i = 1; i < restart_number; ++i) b *= kBackoffMultiplier;
  return std::min(b, config_.max_backoff);
}

void WorkerSupervisor::check_slot_locked(Slot& slot, Seconds now) {
  if (slot.gave_up) return;
  TaskLifecycle* lc = slot.worker.lifecycle;

  if (slot.died_at < 0.0) {
    // Slot has a live worker (a retired-stall slot keeps died_at >= 0 and a
    // null lifecycle until its replacement is provisioned below).
    if (lc == nullptr) return;
    const bool crashed = !lc->running() && lc->crashed();
    const bool stalled = config_.stall_timeout > 0.0 && lc->running() &&
                         lc->last_heartbeat() > 0.0 &&
                         now - lc->last_heartbeat() > config_.stall_timeout;
    if (!crashed && !stalled) return;

    // Reap the dead worker's trace state first: any span it held open when
    // it died (the mid-task envelope, a fetch in flight) is closed here with
    // abandoned=true instead of leaking in the open-span table.
    if (Tracer* tr = config_.tracer; tr != nullptr && tr->enabled()) {
      const std::size_t reaped = tr->abandon_open_spans(lc->id());
      tr->instant(crashed ? "worker.crashed" : "worker.stalled", "supervisor", "supervisor",
                  /*task=*/{},
                  {{"worker", lc->id()}, {"abandoned_spans", std::to_string(reaped)}});
    }

    if (slot.restarts_done >= config_.max_restarts_per_slot) {
      slot.gave_up = true;
      metrics_->counter("supervisor.gave_up").inc();
      metrics_->emit({"supervisor.gave_up", {{"worker", lc->id()}}});
      PPC_WARN << "supervisor: slot " << slot.base_id << " exhausted its "
               << config_.max_restarts_per_slot << " restarts";
      return;
    }
    slot.died_at = now;
    slot.restart_at = now + backoff_for(slot.restarts_done + 1);
    if (stalled) {
      // Can't kill a thread: retire the stalled worker (ask it to stop, join
      // it at shutdown) and free the slot for a replacement — "assume the VM
      // is gone, provision another".
      lc->request_stop();
      retired_.push_back(std::move(slot.worker));
      slot.worker = SupervisedWorker{};
    }
    return;
  }

  if (now < slot.restart_at) return;  // still backing off

  ++slot.restarts_done;
  ++slot.incarnation;
  const std::string new_id = slot.base_id + "#" + std::to_string(slot.incarnation);
  // Counted before the factory starts the replacement, so whoever sees the
  // replacement's work also sees the restart.
  metrics_->counter("supervisor.restarts").inc();
  // A crashed worker's lifecycle thread has exited; dropping the owner here
  // (overwritten below) joins it. Retired (stalled) workers were moved out
  // already.
  slot.worker = factory_(new_id, slot.incarnation);
  PPC_REQUIRE(slot.worker.lifecycle != nullptr, "factory must supply a lifecycle");
  metrics_->histogram("supervisor.recovery_seconds").record(now - slot.died_at);
  metrics_->emit({"supervisor.restarted", {{"worker", new_id}}});
  if (Tracer* tr = config_.tracer; tr != nullptr && tr->enabled()) {
    tr->instant("worker.restarted", "supervisor", "supervisor", /*task=*/{},
                {{"worker", new_id}});
  }
  slot.died_at = -1.0;
}

void WorkerSupervisor::watch_loop() {
  while (!stop_requested_.load()) {
    {
      std::lock_guard lock(mu_);
      const Seconds now = ppc::monotonic_now();
      for (Slot& slot : slots_) check_slot_locked(slot, now);
    }
    sleep_for(config_.watch_interval);
  }
}

}  // namespace ppc::runtime
