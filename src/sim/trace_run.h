// Traced end-to-end runs — the timeline evidence behind the paper's figures.
//
// run_traced_job() — the trace preset of the engine runner (engine_run.h) —
// executes one small Cap3 / BLAST / GTM job on any of the four substrates
// with an enabled runtime::Tracer attached to every layer (queues, blob
// store, lifecycle, supervisor, engine slots), then returns the three
// exports: Chrome trace_event JSON (load it in ui.perfetto.dev), the
// per-task summary table, and the per-worker LoadReport.
//
// The default workload is deliberately inhomogeneous (see AppJob `skew`):
// later files cost more, which is exactly the regime where §4.2 shows
// DryadLINQ's static node-level partitioning stranding nodes in the tail
// while Hadoop / Classic Cloud's dynamic global queues stay balanced
// (Figs 12-15). imbalance_comparison() renders that gap — per-substrate
// makespan, busy-time imbalance, and worst idle-tail fraction — from real
// span data of four runs of the same job.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.h"
#include "runtime/tracer.h"

namespace ppc::sim {

struct TraceRunConfig {
  /// "classiccloud", "azuremr", "mapreduce", or "dryad".
  std::string substrate = "classiccloud";
  /// "cap3", "blast", or "gtm".
  std::string app = "cap3";
  int num_files = 12;
  /// Worker threads (queue substrates) / cluster nodes at one slot each
  /// (mapreduce, dryad — one slot so a track maps 1:1 to a node).
  int num_workers = 4;
  /// Per-file work inhomogeneity (AppJob skew): the last file costs
  /// (1 + skew)x the first. 0 = homogeneous.
  double skew = 3.0;
  /// Storage backend behind the blob-backed substrates (classiccloud,
  /// azuremr): "object", "sharedfs", or "parallelfs". The hook sites are
  /// identical across backends, so the timeline taxonomy is unchanged.
  /// MapReduce/Dryad substrates keep their local data planes.
  std::string storage = "object";
  /// classiccloud: give each worker a content-addressed block cache, so the
  /// job's shared files (BLAST database, GTM training matrix) are fetched
  /// once per worker. Cache hits/misses appear as "cache.*" spans.
  bool enable_cache = false;
  /// > 0: attach a runtime::Monitor (own sampler thread, wall clock) to a
  /// registry shared by the run's engine — per-worker busy gauges and
  /// engine counters become time series, dumped into
  /// TraceRunReport::monitor_json (`ppcloud trace --monitor-dir`).
  Seconds monitor_period = 0.0;
};

struct TraceRunReport {
  std::string substrate;
  std::string app;
  bool succeeded = false;
  /// Input files whose outputs were produced and verified present.
  std::size_t files_processed = 0;
  std::size_t spans = 0;

  /// Tracer::to_chrome_json() — Perfetto-loadable timeline.
  std::string chrome_json;
  /// Tracer::summary_table() — fixed-width per-task rollup.
  std::string summary_table;
  /// Tracer::load_report() — per-worker busy / idle-tail + compute
  /// distribution.
  runtime::LoadReport load;

  /// Monitor::to_json(); empty unless TraceRunConfig::monitor_period > 0.
  std::string monitor_json;

  std::vector<std::string> failures;

  /// Load report + summary table, headed by the run's identity.
  std::string to_text() const;
};

/// Runs one traced job. Configuration errors (unknown substrate/app) throw;
/// job-level failures land in the report.
TraceRunReport run_traced_job(const TraceRunConfig& config);

/// Renders the static-vs-dynamic scheduling comparison across reports of the
/// same job on different substrates: one row per substrate with makespan,
/// busy-imbalance (max/mean worker busy) and the worst per-worker idle-tail
/// fraction.
std::string imbalance_comparison(const std::vector<TraceRunReport>& reports);

}  // namespace ppc::sim
