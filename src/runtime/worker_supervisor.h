// Supervised worker pools: crash detection, bounded restarts, recovery
// metrics.
//
// The paper's frameworks lean on infrastructure supervision — Azure's fabric
// controller re-provisions a worker role that dies, EC2 instances behind the
// Classic Cloud script get relaunched — and correctness only needs the queue
// semantics (an unfinished task's message reappears). This class reproduces
// that supervision layer for any substrate built on TaskLifecycle: it owns a
// pool of N worker *slots*, watches each slot's lifecycle, and when a worker
// crashes (fault injection killed it) or stalls (heartbeat older than
// stall_timeout) it provisions a replacement after an exponential-backoff
// pause, up to max_restarts_per_slot times per slot. Replacement workers get
// ids "<base>#<incarnation>" so their metrics stay distinguishable while
// prefix/suffix aggregation still finds them.
//
// The supervisor does not know substrate worker types: a WorkerFactory
// closure builds-and-starts one worker and returns {owning handle, its
// TaskLifecycle*}. Stalled workers cannot be killed (threads are not
// processes); they are retired — asked to stop, replaced immediately, joined
// at shutdown — which models "assume the VM is gone, start another, let the
// old one be reclaimed".
//
// Observability (in the supervisor's MetricsRegistry):
//   supervisor.restarts          crashed/stalled workers replaced
//   supervisor.gave_up           slots abandoned after max restarts
//   supervisor.recovery_seconds  histogram: death detected -> replacement up
//
// The pool has a fixed size for the whole run: nothing scales it in. Elastic
// scale-in and spot drains are modeled by the DES elastic driver through
// cloud::Fleet.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "runtime/metrics.h"
#include "runtime/task_lifecycle.h"
#include "runtime/tracer.h"

namespace ppc::runtime {

/// One provisioned worker: an opaque owning handle (the substrate's worker
/// object) plus the lifecycle the supervisor watches. The lifecycle must
/// stay valid while `owner` is held and must already be started.
struct SupervisedWorker {
  std::shared_ptr<void> owner;
  TaskLifecycle* lifecycle = nullptr;
};

/// Builds and starts one worker. `worker_id` is the id the worker must use
/// ("<base>" or "<base>#<incarnation>"); `incarnation` is 0 for the initial
/// worker of a slot, 1+ for replacements.
using WorkerFactory =
    std::function<SupervisedWorker(const std::string& worker_id, int incarnation)>;

struct SupervisorConfig {
  /// Slots in the pool; each gets one live worker at a time.
  int num_workers = 1;
  /// Slot s's initial worker is named "<id_prefix><s>".
  std::string id_prefix = "w";
  /// Replacements allowed per slot before the supervisor gives the slot up.
  int max_restarts_per_slot = 3;
  /// Backoff before restart r of a slot: initial * 2^(r-1), capped.
  Seconds initial_backoff = 0.02;
  Seconds max_backoff = 0.5;
  /// Watch-loop poll period (real seconds).
  Seconds watch_interval = 0.005;
  /// A running worker whose heartbeat is older than this is declared stalled
  /// and replaced. 0 disables stall detection (crash detection only).
  Seconds stall_timeout = 0.0;
  /// Registry for supervisor metrics; null creates a private one.
  std::shared_ptr<MetricsRegistry> metrics;
  /// Borrowed tracer (null disables). When set, the supervisor records
  /// crash/stall/restart instants on the "supervisor" track AND reaps the
  /// dead worker's leaked spans: whatever it still had open is closed with
  /// abandoned=true at detection time (see Tracer::abandon_open_spans).
  Tracer* tracer = nullptr;
};

class WorkerSupervisor {
 public:
  WorkerSupervisor(WorkerFactory factory, SupervisorConfig config);
  ~WorkerSupervisor();

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// Provisions the initial worker of every slot and starts the watch loop.
  void start();

  /// Stops watching, asks every worker (live and retired) to stop, and joins
  /// them all. Idempotent.
  void stop();

  /// Workers currently believed alive (running and not crashed).
  int alive_workers() const;

  std::int64_t restarts() const { return metrics_->counter_value("supervisor.restarts"); }
  std::int64_t gave_up() const { return metrics_->counter_value("supervisor.gave_up"); }

  MetricsRegistry& metrics() const { return *metrics_; }
  std::shared_ptr<MetricsRegistry> metrics_ptr() const { return metrics_; }

 private:
  struct Slot {
    SupervisedWorker worker;
    std::string base_id;
    int incarnation = 0;
    int restarts_done = 0;
    bool gave_up = false;
    /// monotonic_now() when the current worker was found dead; < 0 = alive.
    Seconds died_at = -1.0;
    /// Earliest monotonic_now() at which the replacement may start.
    Seconds restart_at = 0.0;
  };

  void watch_loop();
  void check_slot_locked(Slot& slot, Seconds now);
  Seconds backoff_for(int restart_number) const;

  WorkerFactory factory_;
  SupervisorConfig config_;
  std::shared_ptr<MetricsRegistry> metrics_;

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  /// Stalled workers replaced mid-run; stopped and joined at shutdown.
  std::vector<SupervisedWorker> retired_;

  std::thread watch_thread_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace ppc::runtime
