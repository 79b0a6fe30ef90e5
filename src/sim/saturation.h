// Saturation harness — the million-task control-plane claim, executable.
//
// Two instruments:
//
//  * run_saturation_sweep — real threads hammer one cloudq::MessageQueue
//    through the batch APIs (receive_batch / delete_batch) across a
//    (workers x shards) grid and report sustained tasks/s plus API-request
//    accounting. This is the curve that shows the sharded MPMC layout
//    scaling where a single lock convoys, and the batch APIs dividing the
//    request bill by ~10.
//
//  * run_million_task_campaign — an end-to-end Cap3 job of configurable
//    size (default one million tasks) through the Classic Cloud DES driver
//    with batched receives/acks and a runtime::Monitor ticking on the
//    simulation clock. The campaign passes when every task completes, the
//    task queue drains to zero undeleted messages, no alarm fires, the run
//    fits the wall-clock budget, and (when verify_determinism is set) a
//    second run produces a byte-identical monitor time-series.
//
// Both are deterministic in sim/RNG terms; only the wall-clock seconds vary
// with the host.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/monitor_run.h"

namespace ppc::sim {

struct SaturationConfig {
  /// Messages drained per grid cell. Large enough that per-cell thread
  /// start-up is noise against the drain.
  int tasks = 20000;
  std::vector<int> workers = {1, 2, 4, 8};
  std::vector<int> shards = {1, 4, 8};
  /// Messages per receive/delete request (1..10). The sweep also emits one
  /// unbatched (batch=1) reference row per shard count at the widest worker
  /// count, so the batching win is visible in the same artifact.
  int batch = 10;
  unsigned seed = 42;
};

struct SaturationCell {
  int workers = 0;
  int shards = 0;
  int batch = 0;
  int tasks = 0;
  double seconds = 0.0;
  double tasks_per_second = 0.0;
  std::uint64_t api_requests = 0;       // RequestMeter::total()
  std::uint64_t unbatched_requests = 0; // one-message-per-request equivalent
  double batch_occupancy = 0.0;         // messages moved per request

  /// "w8_s4_b10" — the row key the --check gate and CSVs use.
  std::string name() const;
};

struct SaturationReport {
  std::vector<SaturationCell> cells;
  double peak_tasks_per_second = 0.0;

  std::string to_text() const;
  /// {"meta": {...}, "cells": [...]} — BENCH_saturation.json. `git_sha` is
  /// stamped into meta ("unknown" outside a checkout).
  std::string to_json(const std::string& git_sha, const SaturationConfig& config) const;
};

SaturationReport run_saturation_sweep(const SaturationConfig& config);

struct CampaignConfig {
  /// Cap3 files; one task each. The headline run is 1,000,000.
  int tasks = 1000000;
  int instances = 32;
  int workers_per_instance = 8;
  /// SimRunParams::receive_batch — 10 keeps the queue bill at ~3 requests
  /// per 10 tasks instead of 3 per task.
  int receive_batch = 10;
  /// Queue lock stripes (QueueConfig::shards).
  int queue_shards = 8;
  unsigned seed = 42;
  /// Monitor sample period in sim-seconds.
  Seconds monitor_period = 600.0;
  std::size_t monitor_capacity = 8192;
  /// Real-seconds budget for the DES run itself (per run, excluding the
  /// determinism re-run). Exceeding it fails the campaign.
  Seconds wall_budget = 300.0;
  /// Run twice and require byte-identical Monitor::to_json() output.
  bool verify_determinism = true;
};

/// The verdict, task counts and monitor series come from MonitoredCampaign.
struct CampaignReport : MonitoredCampaign {
  Seconds makespan = 0.0;  // sim-seconds
  double sim_tasks_per_second = 0.0;

  std::uint64_t api_requests = 0;
  std::uint64_t unbatched_requests = 0;
  double batch_occupancy = 0.0;
  Dollars queue_cost = 0.0;
  Dollars queue_cost_unbatched = 0.0;

  std::string to_text() const;
};

CampaignReport run_million_task_campaign(const CampaignConfig& config);

}  // namespace ppc::sim
