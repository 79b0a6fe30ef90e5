// Discrete-event drivers: run a Workload on a Deployment under one of the
// paper's four framework families, in simulated time, and report the
// metrics of §3 (Equations 1 and 2) plus costs.
//
// The drivers reuse the *real* service implementations wherever time-based
// behaviour matters: the Classic Cloud driver drives the actual
// cloudq::MessageQueue (visibility timeouts, redelivery, request metering)
// and blobstore::BlobStore (metering, timing model) under the simulation
// clock; the MapReduce driver drives the actual mapreduce::TaskScheduler
// and minihdfs placement; the Dryad driver uses the actual
// dryad::PartitionedTable policies. Only the passage of time is simulated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/autoscaler.h"
#include "cloudq/message_queue.h"
#include "common/stats.h"
#include "core/exec_model.h"
#include "core/workload.h"
#include "mapreduce/scheduler.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"
#include "storage/storage_backend.h"

namespace ppc::core {

namespace sites {
/// Node loss, a fault site only the DES models: while a FaultInjector is
/// attached, the MapReduce driver fires it for every live node, in
/// ascending node id, at t = 3, 6, 9, ... s (the TaskTracker heartbeat,
/// key = node id), until the job finishes or no node is alive. A crash (or
/// error, or revoke_spot) there kills the node: its running attempts are
/// lost, its HDFS replicas re-replicate, and it takes no more work. With N
/// nodes and no earlier loss, node j dies at time t under
/// `crash(kNodeHeartbeat, 1, 1.0, (t/3 - 1) * N + j)`.
inline const std::string kNodeHeartbeat = "mapreduce.node_heartbeat";
}  // namespace sites

struct SimRunParams {
  unsigned seed = 42;

  // -- storage data plane --
  /// Backend serving the Classic Cloud data plane (and MapReduce/Dryad
  /// input staging when `stage_inputs` is set): the 2010 object store, an
  /// NFS-like shared FS, or a Lustre-like parallel FS, each with its
  /// default tuning.
  storage::StorageKind storage = storage::StorageKind::kObject;
  /// Per-worker content-addressed block cache for the workload's shared
  /// dataset (Workload::shared_input_size — the BLAST NR database, the GTM
  /// training matrix). Off: every task re-downloads the shared data.
  bool enable_block_cache = false;
  /// MapReduce/Dryad: model staging the inputs from the selected storage
  /// backend into HDFS / node shares before the job starts (per-backend
  /// scaling rows). Off = inputs pre-placed, as the checked-in baselines
  /// assume.
  bool stage_inputs = false;

  // -- Classic Cloud --
  cloudq::QueueConfig queue;
  /// Visibility timeout requested by workers. Must exceed the task length
  /// or duplicate executions appear (`ppcloud experiment
  /// ablation-visibility` sweeps this).
  Seconds visibility_timeout = 7200.0;
  /// Messages fetched per queue receive request (1..10, the SQS batch
  /// limit). 1 keeps the legacy one-receive-per-poll loop (and its exact
  /// random stream); > 1 prefetches a batch per poll, works through it, and
  /// acks completions in DeleteMessageBatch requests — cutting API requests
  /// (and request charges) by ~batch x at saturation. The visibility
  /// timeout must cover the whole prefetched batch.
  int receive_batch = 1;

  // -- MapReduce --
  mapreduce::SchedulerConfig scheduler;

  // -- Dryad --
  /// false = round-robin static partitions (the paper's layout);
  /// true = size-balanced LPT (ablation).
  bool dryad_partition_by_size = false;

  // -- cross-cutting injection knobs (ablations / property tests) --
  /// Probability a task execution becomes a straggler (x straggler_factor).
  double straggler_prob = 0.0;
  double straggler_factor = 5.0;
  /// Apply the §3 provider variability factor to execution times.
  bool provider_variability = true;
  /// Record per-task execution intervals into RunResult::trace.
  bool record_trace = false;

  // -- unified runtime hooks (borrowed, not owned; null = disabled) --
  /// Fault injection at the sites the real-thread engines fire, at the same
  /// stage, so one FaultPlan means the same in both execution modes. The
  /// drivers take each firing's decision from FaultInjector::decide (same
  /// rule streams as fire()) and interpret it in simulated time; nothing
  /// sleeps and no InjectedFault escapes. Sites:
  ///  - classic and elastic: classiccloud::sites::kAfterExecute per attempt,
  ///    after execute and before the upload; elastic also fires
  ///    cloud::sites::kSpotRevoke per running spot instance each autoscale
  ///    tick, where only revoke_spot rules act (drain within the notice);
  ///  - hadoop: mapreduce::sites::kMapAttempt at attempt start, as
  ///    run_phase does, plus sites::kNodeHeartbeat (above); the runs are
  ///    map-only, so kReduceAttempt fires in the real engines alone;
  ///  - dryad: dryad::sites::kVertexAttempt at vertex start.
  /// At an attempt site crash, error and revoke_spot fail the attempt: a
  /// Classic worker dies holding the delivery (its message resurfaces after
  /// the visibility timeout); a MapReduce attempt fails after its start-up
  /// overhead and re-queues up to scheduler.max_attempts; a Dryad vertex
  /// fails after its start-up overhead and goes to the back of its node's
  /// queue, up to dryad::RuntimeConfig{}.max_attempts, after which the job
  /// fails (completed < tasks). A delay adds that many simulated seconds to
  /// the attempt. Corrupt rules act on service payloads only, which no
  /// driver fires. Decisions depend on a site's firing order alone (the
  /// real engines' keys, "<task>:<attempt>", never enter them).
  runtime::FaultInjector* faults = nullptr;
  /// When set, each driver publishes its run metrics here (counters,
  /// "<framework>.parallel_efficiency" gauges, exec-time histogram) via
  /// publish_run_metrics().
  runtime::MetricsRegistry* metrics = nullptr;
  /// When set, the driver registers its continuous signals as probes —
  /// queue.tasks.depth / queue.tasks.inflight, workers.busy,
  /// worker.utilization, workers.idle_with_backlog, storage.bytes_per_sec,
  /// cost.dollars_per_hour (and cache.hit_rate when the block cache is on) —
  /// and ticks Monitor::sample_at on the *simulation* clock every
  /// monitor->config().period sim-seconds. The tick chain is parasitic: it
  /// reschedules only while other events are pending, so it never keeps a
  /// finished (or stranded) run alive. Fully deterministic: the same seed
  /// yields byte-identical Monitor::to_json() output.
  runtime::Monitor* monitor = nullptr;

  /// Classic Cloud stall injection (chaos scenarios): worker `stall_worker`
  /// stops polling at sim time `stall_at` for `stall_duration` seconds
  /// (disabled while stall_worker < 0 or stall_at < 0). The backlog it
  /// should have drained stays visible in the queue, so the
  /// workers.idle_with_backlog signal goes positive for the whole window —
  /// which is what the stall alarm watches.
  int stall_worker = -1;
  Seconds stall_at = -1.0;
  Seconds stall_duration = 0.0;
};

/// One task execution interval, for Gantt-style inspection and the DES
/// validity tests (a worker must never run two tasks concurrently).
struct TaskTraceEntry {
  int task_id = 0;
  int worker = 0;  // global worker/slot index
  Seconds exec_start = 0.0;
  Seconds exec_end = 0.0;
  bool counted = true;  // false for duplicate/wasted executions
};

struct RunResult {
  std::string framework;
  std::string deployment_label;
  Seconds makespan = 0.0;
  int tasks = 0;
  int completed = 0;
  /// Executions whose result was redundant (speculative twins, visibility-
  /// timeout re-deliveries).
  int duplicate_executions = 0;
  ppc::SampleSet exec_times;  // first-completion execution times

  // Cost (zero for bare metal).
  Dollars compute_cost_hour_units = 0.0;
  Dollars compute_cost_amortized = 0.0;
  Dollars queue_request_cost = 0.0;
  /// Queue API requests billed (task + monitor queues; Classic Cloud only)
  /// and the one-message-per-request equivalent — the denominator of the
  /// batching savings billing reports.
  std::uint64_t queue_api_requests = 0;
  std::uint64_t queue_unbatched_requests = 0;
  /// Messages moved per send/receive/delete request (task queue).
  double queue_batch_occupancy = 0.0;
  /// Task-queue messages never deleted when the run ended (0 = drained; a
  /// worker that crashed holding deliveries or buffered acks leaves some).
  std::uint64_t queue_undeleted_end = 0;
  Bytes bytes_in = 0.0;   // into cloud storage
  Bytes bytes_out = 0.0;  // out of cloud storage

  // Storage data plane. `storage_backend` is "local" when the run never
  // touched a backend (MapReduce/Dryad without input staging).
  std::string storage_backend = "local";
  /// FS server-hours billed over the makespan (object store: 0 — it bills
  /// per GB/request instead, under bytes_in/out + transfer fees).
  Dollars storage_service_cost = 0.0;
  std::uint64_t storage_heads = 0;  // HEAD/exists revalidation requests
  std::uint64_t cache_hits = 0;     // summed over per-worker block caches
  std::uint64_t cache_misses = 0;
  Bytes cache_bytes_saved = 0.0;  // shared-dataset bytes served locally

  // Scheduling visibility.
  mapreduce::TaskScheduler::Stats scheduler_stats;  // MapReduce only
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;

  // Metrics of §3, filled by finalize_metrics().
  Seconds t1_seconds = 0.0;           // best sequential time (Equation 1's T1)
  double parallel_efficiency = 0.0;   // Equation 1
  Seconds per_core_task_seconds = 0;  // Equation 2

  /// Execution intervals; populated when SimRunParams::record_trace is set.
  std::vector<TaskTraceEntry> trace;
};

/// Classic Cloud (EC2/Azure flavor decided by the deployment's instance
/// provider): queue-scheduled independent workers over blob storage, on a
/// static fleet of deployment.instances booted at t=0. The run ends at the
/// last first-completion and bills at the makespan. An armed stall
/// (stall_worker >= 0 and stall_at >= 0) must name an existing worker.
RunResult run_classic_cloud_sim(const Workload& workload, const Deployment& deployment,
                                const ExecutionModel& model, const SimRunParams& params);

/// Elastic-fleet knobs for run_elastic_classic_sim — the control plane a
/// static fleet does without. The deployment's `instances` field is
/// reinterpreted as the Equation-1 core budget (set it to
/// autoscaler.max_instances); the actual fleet size is the Autoscaler's
/// business, starting from min_instances.
struct ElasticSimParams {
  cloud::AutoscalerConfig autoscaler;
  /// Target fraction of launched instances placed on the spot market.
  /// Min-floor refills after revocations always launch on-demand.
  /// Spot instances bill at cloud::kDefaultSpotDiscount.
  double spot_fraction = 0.5;
  /// Sim seconds from scale-out to the instance's workers polling.
  Seconds boot_time = 60.0;
  /// Notice window of storm revocations (0 = hard kills, no notice).
  Seconds revocation_notice = 90.0;
  /// Sim times of correlated revocation storms: at each, every running spot
  /// instance is revoked with probability `revocation_rate`.
  std::vector<Seconds> storm_times;
  double revocation_rate = 0.2;
};

/// One autoscale-tick observation of the fleet, for the size-vs-time
/// artifact the elasticity-smoke CI job uploads.
struct FleetSizePoint {
  Seconds t = 0.0;
  int active = 0;  // booting + running + draining
  int spot = 0;    // spot instances up (running or draining)
};

/// Elasticity telemetry of one run, alongside the shared RunResult.
struct ElasticRunStats {
  int peak_instances = 0;
  std::int64_t scale_out_events = 0;
  std::int64_t scale_in_events = 0;
  std::int64_t revocations = 0;
  std::int64_t hard_kills = 0;
  std::int64_t drains_completed = 0;
  Seconds total_drain_seconds = 0.0;
  std::uint64_t stale_terminates = 0;
  /// Hour-unit bill split by market (Fleet::CostBreakdown views).
  Dollars cost_on_demand = 0.0;
  Dollars cost_spot = 0.0;
  Dollars cost_on_demand_equivalent = 0.0;
  std::vector<FleetSizePoint> fleet_size_series;

  Dollars spot_savings() const {
    return cost_on_demand_equivalent - (cost_on_demand + cost_spot);
  }
};

/// The same Classic Cloud driver as run_classic_cloud_sim (one loop; a
/// static fleet is the fixed-size case), here with an autoscaled
/// cloud::Fleet: scale-out on backlog, billing-boundary scale-in after a
/// graceful drain, spot instances revocable via FaultPlan::revoke_spot rules
/// at cloud::sites::kSpotRevoke and via seeded storms. The run ends once
/// every task completed AND the queue drained (acks a hard kill destroyed
/// are redelivered first) and bills at that end time; makespan stays the
/// last first-completion. Worker utilization probes divide by the live
/// workers, and fleet.size / fleet.spot_running / spot.revocations /
/// fleet.drain_seconds / fleet.scale_events.rate join the classic probes
/// when params.monitor is set, and params.record_trace fills RunResult::trace
/// as for a static fleet. RNG streams: store, queues, a control stream
/// (split once per worker in boot order) and a storm stream. The worker
/// block cache and stall injection are not modelled for elastic fleets
/// (params.enable_block_cache must be off; the stall knobs are ignored).
RunResult run_elastic_classic_sim(const Workload& workload, const Deployment& deployment,
                                  const ExecutionModel& model, const SimRunParams& params,
                                  const ElasticSimParams& elastic,
                                  ElasticRunStats* stats = nullptr);

/// Hadoop-analog: HDFS-resident inputs, locality-aware dynamic global-queue
/// scheduling, speculative execution. Jobs are map-only, as the paper runs
/// them (§2.2); the real shuffle lives in mapreduce::ShuffleJobRunner.
RunResult run_mapreduce_sim(const Workload& workload, const Deployment& deployment,
                            const ExecutionModel& model, const SimRunParams& params);

/// DryadLINQ-analog: static node-level partitions over node-local shares.
RunResult run_dryad_sim(const Workload& workload, const Deployment& deployment,
                        const ExecutionModel& model, const SimRunParams& params);

/// The one DES entry point: runs `workload` on `deployment` under
/// `framework` — "classic" (EC2 or Azure by the deployment's provider),
/// "hadoop" or "dryad" — with the app's default ExecutionModel. With
/// `elastic` the classic run gets an autoscaled fleet and fills `stats`
/// (nullable). Every figure, ablation, verb, bench row and example runs
/// through here; the four entry points above take the model explicitly and
/// stay public for the driver tests and perfbench's DES campaign. Throws
/// InvalidArgument on an unknown framework or an elastic fleet on
/// hadoop/dryad.
RunResult simulate(const std::string& framework, const Workload& workload,
                   const Deployment& deployment, const SimRunParams& params,
                   const ElasticSimParams* elastic = nullptr, ElasticRunStats* stats = nullptr);

/// Fills t1_seconds, parallel_efficiency (Eq 1) and per_core_task_seconds
/// (Eq 2). Called by the drivers; exposed for tests.
void finalize_metrics(RunResult& result, const Workload& workload, const Deployment& deployment,
                      const ExecutionModel& model);

/// Publishes a finished run into `metrics` under the "<framework>." prefix:
/// counters (tasks, completed, duplicate_executions), gauges
/// (parallel_efficiency = Eq 1, per_core_task_seconds = Eq 2, makespan,
/// t1_seconds) and the "task_exec_seconds" histogram. The drivers call this
/// when SimRunParams::metrics is set; the CLI reads Eq 1/Eq 2 from
/// the registry instead of the per-substrate result struct.
void publish_run_metrics(const RunResult& result, runtime::MetricsRegistry& metrics);

}  // namespace ppc::core
