// One real-thread engine runner, behind `ppcloud trace`, `chaos` and
// `shuffle`: run_engine() stages an AppJob on classiccloud, azuremr,
// mapreduce (map-only or shuffle) or dryad and runs it under a wall-clock
// budget. The harness owns what a run attaches (the registry, a Tracer, a
// Monitor, a FaultInjector armed with the spec's plan) and returns their
// records in one RunReport, so a difference between two runs comes from the
// spec, never from a second copy of the set-up. A fault run adds a
// dead-letter queue with a poison sentinel, a short visibility timeout, and
// on azuremr a drain worker.
#pragma once

#include <optional>
#include <string>

#include "common/units.h"
#include "runtime/fault_plan.h"
#include "sim/app_job.h"
#include "sim/run_report.h"

namespace ppc::sim {

struct EngineRunSpec {
  /// "classiccloud", "azuremr", "mapreduce", or "dryad".
  std::string substrate = "classiccloud";
  /// Names the job's resources: "<job>-cc-*" queues and workers on
  /// classiccloud, "<job>-az-*" on azuremr, the shuffle job on mapreduce.
  std::string job = "job";
  /// Storage backend behind classiccloud/azuremr ("object", "sharedfs",
  /// "parallelfs"). MapReduce and Dryad keep their local data planes.
  std::string storage = "object";
  /// classiccloud: per-worker block cache for the job's shared files.
  bool enable_cache = false;
  /// Workers (queue substrates) or cluster nodes (mapreduce, dryad).
  int num_workers = 3;
  /// One slot per node by default, so a trace track is a node and the
  /// mapreduce run compares 1:1 with the dryad run of the same job.
  int slots_per_node = 1;
  /// Fault runs: deliveries before a task is dead-lettered.
  int max_receive_count = 5;
  /// MapReduce: attempts per map and reduce task.
  int max_attempts = 6;
  // Shuffle jobs only.
  int num_reducers = 3;
  Bytes map_spill_budget = 8.0 * 1024;
  Bytes sort_memory_budget = 32.0 * 1024;

  /// Record the run with an enabled Tracer: fills RunReport's trace section.
  bool trace = false;
  /// > 0: a wall-clock Monitor samples the run's registry at this period.
  Seconds monitor_period = 0.0;
  /// A fault run: the plan is armed on the harness's FaultInjector once the
  /// job is staged, and disarmed before the outputs are read back.
  std::optional<runtime::FaultPlan> plan;
};

/// Runs `app` — a map-only job on any substrate, a shuffle job on
/// mapreduce. Throws InvalidArgument on an unknown substrate or storage
/// backend; job-level failures land in RunReport::failures.
RunReport run_engine(const EngineRunSpec& spec, const AppJob& app);

}  // namespace ppc::sim
