// One real-thread engine runner, behind `ppcloud trace`, `chaos` and
// `shuffle`: run_engine() stages an AppJob on classiccloud, azuremr,
// mapreduce (map-only or shuffle) or dryad and runs it under a wall-clock
// budget. The verbs differ only in what they attach (a Tracer, a registry,
// a Monitor, an armed FaultInjector), so a difference between two runs comes
// from the attachment, never from a second copy of the set-up. A fault run
// adds a dead-letter queue with a poison sentinel, a short visibility
// timeout, and on azuremr a drain worker.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "mapreduce/shuffle_job.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/tracer.h"
#include "sim/app_job.h"

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

  // Optional attachments.
  runtime::Tracer* tracer = nullptr;
  /// The run's registry; a private one when null.
  std::shared_ptr<runtime::MetricsRegistry> metrics;
  /// > 0: a wall-clock Monitor samples the registry at this period.
  Seconds monitor_period = 0.0;
  /// A fault run: `plan` is armed once the job is staged and disarmed
  /// before the outputs are read back.
  runtime::FaultInjector* faults = nullptr;
  const runtime::FaultPlan* plan = nullptr;
};

/// What a fault run's injector fired and what the substrate absorbed
/// (MapReduce and Dryad count their failed attempts in every run).
struct FaultTally {
  // Injected (FaultInjector totals).
  std::int64_t crashes = 0;
  std::int64_t delays = 0;
  std::int64_t errors = 0;
  std::int64_t corruptions = 0;
  /// Spot revocations fired by storm rules (also counted in `crashes`: a
  /// no-notice revocation IS a crash as far as the worker is concerned).
  std::int64_t spot_revocations = 0;

  // Absorbed.
  std::int64_t redeliveries = 0;        // queue redeliveries / failed attempts
  std::int64_t deletes_failed = 0;      // failed / injected delete attempts
  std::int64_t stale_deletes = 0;       // lapsed-receipt deletes suppressed
  std::int64_t corrupt_deliveries = 0;  // checksum-detected bad deliveries
  std::int64_t dlq_entries = 0;         // tasks dead-lettered
  std::int64_t poison_tasks = 0;        // lifecycle-routed poison tasks
  std::int64_t supervisor_restarts = 0;
  double recovery_p50 = 0.0;  // supervisor time-to-recovery (seconds)
  double recovery_max = 0.0;
};

struct EngineRun {
  bool succeeded = false;
  std::vector<std::string> failures;
  /// Input name → output bytes; for a shuffle job, the canonical key →
  /// reduced value map.
  std::map<std::string, std::string> outputs;
  FaultTally tally;
  std::string monitor_json;  // empty unless spec.monitor_period > 0
  // Shuffle jobs only.
  Seconds elapsed = 0.0;
  mapreduce::ShuffleStats shuffle;
  mapreduce::TaskScheduler::Stats map_stats;
  mapreduce::TaskScheduler::Stats reduce_stats;
};

/// Runs `app` — a map-only job on any substrate, a shuffle job on
/// mapreduce. Throws InvalidArgument on an unknown substrate or storage
/// backend; job-level failures land in EngineRun::failures.
EngineRun run_engine(EngineRunSpec spec, const AppJob& app);

}  // namespace ppc::sim
