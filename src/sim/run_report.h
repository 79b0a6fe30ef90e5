// One run report for both execution modes. sim::run_engine (the real-thread
// engines) and sim::run_des (the DES drivers) return a RunReport, and every
// `ppcloud` verb is three things over it: a preset that fills the harness's
// spec, the verb's own checks appended to `failures`, and a renderer over
// the sections below. A section the run did not ask for stays empty.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/drivers.h"
#include "mapreduce/shuffle_job.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"
#include "runtime/tracer.h"

namespace ppc::sim {

struct RunReport {
  bool succeeded = false;
  /// Why the run did not succeed; empty otherwise.
  std::vector<std::string> failures;
  /// The run itself, real time.
  double wall_seconds = 0.0;
  /// What the run published: engine, queue and supervisor counters, a DES
  /// driver's Eq 1 / Eq 2 gauges.
  std::shared_ptr<runtime::MetricsRegistry> metrics;

  // Trace (EngineRunSpec::trace): the Tracer's exports.
  std::string chrome_json;    // Chrome trace_event JSON, loads in ui.perfetto.dev
  std::size_t spans = 0;      // completed spans
  std::string summary_table;  // fixed-width per-task rollup
  runtime::LoadReport load;   // per-worker busy / idle tail, imbalance

  // Monitor (EngineRunSpec::monitor_period, DesRunSpec::monitor).
  std::uint64_t samples = 0;
  bool degraded = false;
  std::vector<runtime::AlarmFiring> firings;
  std::string monitor_json;  // Monitor::to_json(); byte-stable for DES runs
  std::string dashboard;     // Monitor::dashboard(), the sparkline table
  std::string prometheus;    // Monitor::to_prometheus(), latest samples
  bool deterministic = true;  // false when a DES rerun's series differed

  // Engine runs.
  /// Input name → output bytes; for a shuffle job, the canonical key →
  /// reduced value map.
  std::map<std::string, std::string> outputs;
  // The fault tally: what a fault run's injector fired...
  std::int64_t crashes = 0;
  std::int64_t delays = 0;
  std::int64_t errors = 0;
  std::int64_t corruptions = 0;
  /// Spot revocations fired by storm rules (also counted in `crashes`: a
  /// no-notice revocation IS a crash as far as the worker is concerned).
  std::int64_t spot_revocations = 0;
  // ...and what the substrate absorbed (MapReduce and Dryad count their
  // failed attempts as redeliveries in every run).
  std::int64_t redeliveries = 0;        // queue redeliveries / failed attempts
  std::int64_t deletes_failed = 0;      // failed / injected delete attempts
  std::int64_t stale_deletes = 0;       // lapsed-receipt deletes suppressed
  std::int64_t corrupt_deliveries = 0;  // checksum-detected bad deliveries
  std::int64_t dlq_entries = 0;         // tasks dead-lettered
  std::int64_t poison_tasks = 0;        // lifecycle-routed poison tasks
  std::int64_t supervisor_restarts = 0;
  double recovery_p50 = 0.0;  // supervisor time-to-recovery (seconds)
  double recovery_max = 0.0;
  // Shuffle jobs.
  mapreduce::ShuffleStats shuffle;
  mapreduce::TaskScheduler::Stats map_stats;
  mapreduce::TaskScheduler::Stats reduce_stats;

  // DES runs.
  core::RunResult result;
  core::ElasticRunStats elastic;  // elastic fleets only

  /// True once any alarm fired.
  bool alarmed() const { return degraded || !firings.empty(); }

  /// Copies a stopped `monitor`'s record into the monitor section.
  void record(const runtime::Monitor& monitor) {
    samples = monitor.samples();
    degraded = monitor.degraded();
    firings = monitor.firings();
    monitor_json = monitor.to_json();
    dashboard = monitor.dashboard();
    prometheus = monitor.to_prometheus();
  }
};

}  // namespace ppc::sim
