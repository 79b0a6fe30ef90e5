// One discrete-event (DES) run, the way every DES verb runs it: run_des
// wraps core::simulate, attaches a MetricsRegistry and, when asked, an
// alarmed Monitor on the *simulation* clock, times the run, and can rerun
// it to check the monitor series repeats byte for byte. It returns the same
// RunReport as the real-thread runner. `ppcloud simulate`, `monitor`,
// `campaign` and both runs of `autoscale` are presets over it.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/drivers.h"
#include "core/workload.h"
#include "sim/run_report.h"

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

struct DesRunSpec {
  /// "classic" (EC2 or Azure by the deployment's provider), "hadoop", "dryad".
  std::string framework = "classic";
  core::SimRunParams params;  // run_des sets ::metrics and ::monitor
  std::optional<core::ElasticSimParams> elastic;  // classic only: an autoscaled fleet
  std::optional<DesMonitor> monitor;
  bool rerun = false;  // run again under a fresh monitor and compare the series
};

/// Runs `workload` on `deployment` as `spec` says. The report holds the
/// first run's result, what its driver published and its monitor record; it
/// succeeds when every task completed. Throws InvalidArgument on an unknown
/// framework or alarm rule.
RunReport run_des(const core::Workload& workload, const core::Deployment& deployment,
                  const DesRunSpec& spec);

}  // namespace ppc::sim
