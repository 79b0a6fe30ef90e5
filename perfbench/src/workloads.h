// The four benchmark workloads and the result every run reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  /// Correctness failures; any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Sample counts, percentiles and per-engine detail, printed before the
  /// result line.
  JsonObject detail;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void fail(const std::string& problem) { problems.push_back(problem); }
};

/// Threads a workload is configured with: its workers plus the coordinator.
int workload_threads(const std::string& workload);

/// Names of the end-to-end and per-layer metrics, in BENCHMARK.json order.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::pair<std::string, std::string>>& per_layer_names();  // (name, unit)

/// Adds a 0 for every per-layer metric the workload does not exercise and
/// lists those names in the detail, so every traced run reports the full
/// set.
void complete_per_layer(Outcome& out);

Outcome run_pp_apps_skewed(const RunArgs& args);
Outcome run_blast_db_refetch(const RunArgs& args);
Outcome run_shuffle_dedup(const RunArgs& args);
Outcome run_des_campaign(const RunArgs& args);

/// fnv1a64 throughput on a buffer at least 4x the last-level cache, in GB/s;
/// `buffer_bytes` / `llc` report the sizes used.
double measure_fnv_gb_per_s(std::uint64_t* buffer_bytes, std::uint64_t* llc);

}  // namespace perfbench
