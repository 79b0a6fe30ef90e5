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
//  * the million-task campaign (`ppcloud campaign`) — run_des of an
//    end-to-end Cap3 job of configurable size (default one million tasks)
//    through the Classic Cloud DES driver under campaign_spec(): batched
//    receives/acks and a runtime::Monitor ticking on the simulation clock.
//    check_campaign() passes it when every task completes, the task queue
//    drains to zero undeleted messages, no alarm fires, the run fits the
//    wall-clock budget, and (when the spec reruns) a second run produces a
//    byte-identical monitor time-series.
//
// Both are deterministic in sim/RNG terms; only the wall-clock seconds vary
// with the host.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/des_run.h"

namespace ppc::sim {

struct SaturationConfig {
  /// Messages drained per grid cell. Large enough that per-cell thread
  /// start-up is noise against the drain.
  int tasks = 20000;
  std::vector<int> workers = {1, 2, 4, 8};
  std::vector<int> shards = {1, 4, 8};
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

/// The campaign preset, shared with `autoscale`: seed 42, receive batches of
/// 10 (~3 queue requests per 10 tasks instead of 3 per task) over 8 queue
/// lock stripes, a monitor sampling every 600 sim-s (8192 samples kept per
/// series), and a determinism rerun. The caller picks the workload and the
/// deployment (the verb's default: one million Cap3 files on 32 x 8
/// EC2-HCXL).
DesRunSpec campaign_spec();

/// The checks the DES campaigns (`ppcloud campaign`, `autoscale`) share,
/// over their monitored, rerun run: the task queue drained, no alarm fired,
/// the rerun repeated the monitor series, the run fit `wall_budget`.
/// Appends what failed to `report.failures` and resets `succeeded`.
void check_campaign(RunReport& report, Seconds wall_budget);

/// Tasks, makespan, the queue bill against its unbatched equivalent, the
/// monitor verdict and the failures of a campaign run.
std::string campaign_text(const RunReport& report);

}  // namespace ppc::sim
