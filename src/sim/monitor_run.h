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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/drivers.h"
#include "runtime/monitor.h"

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
  std::size_t capacity = 4096;
  /// Alarm rules in parse_alarm grammar; empty = default_alarm_rules().
  std::vector<std::string> alarms;

  /// Stall injection (classiccloud/azuremr only; see SimRunParams).
  int stall_worker = -1;
  Seconds stall_at = -1.0;
  Seconds stall_duration = 0.0;
};

struct MonitorRunReport {
  std::string substrate;
  std::string framework;  // driver-reported name, e.g. "ClassicCloud-EC2"
  Seconds makespan = 0.0;
  int tasks = 0;
  int completed = 0;
  std::uint64_t samples = 0;
  bool degraded = false;
  std::vector<runtime::AlarmFiring> firings;

  /// Monitor::to_json() — deterministic; CI's byte-diff artifact.
  std::string monitor_json;
  /// Monitor::dashboard() — the sparkline table `ppcloud monitor` prints.
  std::string dashboard;
  /// Monitor::to_prometheus() — latest-sample text exposition.
  std::string prometheus;

  /// Multi-line terminal summary (header + dashboard + alarm verdict).
  std::string to_text() const;
};

/// The out-of-the-box alarm set: the worker-stall rule
/// "stall: workers.idle_with_backlog > 0.5 for 45s" and the autoscaler
/// oscillation rule "fleet.thrash: fleet.scale_events.rate > 0.05 for 60s"
/// (inert unless an elastic driver registers the fleet probes). Exposed so
/// docs and tests quote the real thing.
std::vector<std::string> default_alarm_rules();

/// A Monitor on its own registry with alarm rules armed — the set-up shared
/// by `ppcloud monitor`, `campaign` and `autoscale`. The registry is not
/// scraped: a DES driver publishes into it only after the last tick, so the
/// probes it registers carry every live signal.
struct AlarmedMonitor {
  AlarmedMonitor(Seconds period, std::size_t capacity,
                 const std::vector<std::string>& rules = default_alarm_rules());
  /// True once any alarm fired.
  bool alarmed() const;

  runtime::MetricsRegistry registry;
  runtime::Monitor monitor;
};

/// What the DES campaigns (`ppcloud campaign`, `autoscale`) share.
struct MonitoredCampaign {
  bool passed = false;
  std::vector<std::string> failures;  // reasons when !passed
  int tasks = 0;
  int completed = 0;
  std::uint64_t queue_undeleted_end = 0;  // 0 = task queue fully drained
  double wall_seconds = 0.0;              // first run, real time
  std::uint64_t monitor_samples = 0;
  bool alarm_fired = false;
  bool deterministic = true;  // monitor series byte-identical across reruns
  std::string monitor_json;  // first run; the artifact CI byte-diffs

  /// Calls `drive` under an AlarmedMonitor and, when `verify`, once more
  /// (first = false) under a fresh one; returns the first run's result.
  core::RunResult run_monitored(
      Seconds period, std::size_t capacity, bool verify,
      const std::function<core::RunResult(runtime::Monitor&, bool first)>& drive);
  /// Appends the shared checks (tasks, drain, alarm, rerun, wall budget) to
  /// `failures`, then sets `passed`.
  void finish(Seconds wall_budget);
};

/// Runs one monitored job. Throws InvalidArgument on unknown
/// substrate/app/alarm grammar; run-level problems (incomplete job, fired
/// alarms) land in the report.
MonitorRunReport run_monitored_job(const MonitorRunConfig& config);

}  // namespace ppc::sim
