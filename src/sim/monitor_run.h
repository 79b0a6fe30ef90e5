// Deterministic monitored DES runs behind `ppcloud monitor`.
//
// Drives one skew-scaled job through a discrete-event substrate driver with
// a runtime::Monitor attached on the *simulation* clock: queue depth,
// in-flight count, worker utilization, idle-with-backlog, storage bytes/s
// and cost-rate are sampled every `period` sim-seconds, and the configured
// alarms are evaluated at each tick. Because the whole run — workload, event
// order, sample times — derives from the seed, the same config produces
// byte-identical monitor JSON on every invocation; CI diffs two runs to
// assert exactly that.
//
// The optional stall injection (Classic Cloud family) parks one worker for
// a window mid-run; the backlog it fails to drain keeps
// workers.idle_with_backlog positive for the window, which is what the
// default stall alarm watches. A fault-free run must fire no alarms.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "sim/des_run.h"

namespace ppc::sim {

struct MonitorRunConfig {
  /// "classiccloud", "azuremr", "mapreduce", or "dryad" ("all" is expanded
  /// by the CLI, one report per substrate).
  std::string substrate = "classiccloud";
  /// "cap3", "blast", or "gtm".
  std::string app = "cap3";
  int num_files = 32;
  int instances = 2;
  int workers_per_instance = 4;
  /// Per-file work skew, matching make_app_job: file i costs
  /// (1 + skew * i / (n-1))x the first. Skew makes the drain tail visible
  /// in the utilization series, the paper's inhomogeneity story.
  double skew = 2.0;
  unsigned seed = 42;

  /// Monitor sample period in sim-seconds.
  Seconds period = 5.0;
  /// Alarm rules in parse_alarm grammar; empty = default_alarm_rules().
  std::vector<std::string> alarms;

  /// Stall injection (classiccloud/azuremr only; see SimRunParams).
  int stall_worker = -1;
  Seconds stall_at = -1.0;
  Seconds stall_duration = 0.0;
};

/// The run's monitor record, plus what the header line shows.
struct MonitorRunReport : MonitorRecord {
  std::string substrate;
  std::string framework;  // driver-reported name, e.g. "ClassicCloud-EC2"
  Seconds makespan = 0.0;
  int tasks = 0;
  int completed = 0;

  /// Multi-line terminal summary (header + dashboard + alarm verdict).
  std::string to_text() const;
};

/// Runs one monitored job. Throws InvalidArgument on unknown
/// substrate/app/alarm grammar; run-level problems (incomplete job, fired
/// alarms) land in the report.
MonitorRunReport run_monitored_job(const MonitorRunConfig& config);

}  // namespace ppc::sim
