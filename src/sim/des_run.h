// One discrete-event (DES) run, the way every DES verb runs it: run_des
// wraps core::simulate, attaches a MetricsRegistry and, when asked, an
// alarmed Monitor on the *simulation* clock, times the run, and can rerun
// it to check the monitor series repeats byte for byte. `ppcloud simulate`,
// `monitor`, `campaign` and both runs of `autoscale` are presets over it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/drivers.h"
#include "core/workload.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"

namespace ppc::sim {

/// The out-of-the-box alarm set: the worker-stall rule
/// "stall: workers.idle_with_backlog > 0.5 for 45s" and the autoscaler
/// oscillation rule "fleet.thrash: fleet.scale_events.rate > 0.05 for 60s"
/// (inert unless an elastic driver registers the fleet probes). Exposed so
/// docs and tests quote the real thing.
std::vector<std::string> default_alarm_rules();

/// `files` tasks of `app` ("cap3", "blast" or "gtm") for a DES run. `work`
/// is the per-file reads (Cap3), queries (BLAST) or points (GTM); -1 takes
/// the paper's 458 reads, 100 queries or 100,000 points. BLAST draws its
/// inhomogeneous base set from `seed`. With `skew` > 0, file i costs
/// (1 + skew * i/(n-1))x the first, the same law as make_app_job, so the
/// drain tail a monitor shows matches the traced runs. Throws
/// InvalidArgument on an unknown app.
core::Workload make_des_workload(const std::string& app, int files, unsigned seed,
                                 double skew = 0.0, int work = -1);

/// The alarmed monitor a DES run ticks on the simulation clock. Its
/// registry is not scraped: a driver publishes into the registry only after
/// the last tick, so the probes it registers carry every live signal.
struct DesMonitor {
  Seconds period = 5.0;         // sample period, sim-seconds
  std::size_t capacity = 4096;  // samples kept per series
  std::vector<std::string> alarms = default_alarm_rules();  // parse_alarm grammar
};

/// What a DES run's monitor recorded.
struct MonitorRecord {
  std::uint64_t samples = 0;
  bool degraded = false;
  std::vector<runtime::AlarmFiring> firings;
  std::string monitor_json;  // Monitor::to_json(), deterministic: CI byte-diffs it
  std::string dashboard;     // Monitor::dashboard(), the sparkline table
  std::string prometheus;    // Monitor::to_prometheus(), latest samples

  /// True once any alarm fired.
  bool alarmed() const { return degraded || !firings.empty(); }
};

struct DesRunSpec {
  /// "classic" (EC2 or Azure by the deployment's provider), "hadoop", "dryad".
  std::string framework = "classic";
  core::SimRunParams params;  // run_des sets ::metrics and ::monitor
  std::optional<core::ElasticSimParams> elastic;  // classic only: an autoscaled fleet
  std::optional<DesMonitor> monitor;
  bool rerun = false;  // run again under a fresh monitor and compare the series
};

/// The first run's result, what its driver published (counters, Eq 1 /
/// Eq 2 gauges) and its monitor record (empty without a monitor).
struct DesRunReport {
  core::RunResult result;
  core::ElasticRunStats elastic;  // elastic runs only
  std::unique_ptr<runtime::MetricsRegistry> metrics;
  double wall_seconds = 0.0;
  MonitorRecord monitor;
  bool deterministic = true;  // false when a rerun's monitor series differed
};

/// Runs `workload` on `deployment` as `spec` says. Throws InvalidArgument
/// on an unknown framework or alarm rule.
DesRunReport run_des(const core::Workload& workload, const core::Deployment& deployment,
                     const DesRunSpec& spec);

/// Samples per series a campaign's monitor keeps.
inline constexpr std::size_t kCampaignMonitorCapacity = 8192;

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

  /// Takes the counts and monitor record of the campaign's monitored `run`,
  /// appends the shared checks (tasks, drain, alarm, rerun, wall budget) to
  /// `failures`, then sets `passed`.
  void finish(const DesRunReport& run, Seconds wall_budget);
};

}  // namespace ppc::sim
