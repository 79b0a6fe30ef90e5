#include "sim/monitor_run.h"

#include <cstdio>
#include <sstream>

#include "cloud/instance_types.h"
#include "common/error.h"

namespace ppc::sim {

MonitorRunReport run_monitored_job(const MonitorRunConfig& config) {
  // Each substrate's DES framework and the instance type it deploys on.
  const std::string& s = config.substrate;
  const bool classic = s == "classiccloud" || s == "azuremr";
  PPC_REQUIRE(classic || s == "mapreduce" || s == "dryad", "unknown substrate: " + s);
  const cloud::InstanceType& type = s == "classiccloud" ? cloud::ec2_hcxl()
                                    : s == "azuremr"    ? cloud::azure_large()
                                    : s == "mapreduce"  ? cloud::bare_metal_idataplex_node()
                                                        : cloud::bare_metal_hpcs_node();
  DesRunSpec spec;
  spec.framework = classic ? "classic" : s == "mapreduce" ? "hadoop" : "dryad";
  spec.params.seed = config.seed;
  spec.params.stall_worker = config.stall_worker;
  spec.params.stall_at = config.stall_at;
  spec.params.stall_duration = config.stall_duration;
  spec.monitor = DesMonitor{.period = config.period};
  if (!config.alarms.empty()) spec.monitor->alarms = config.alarms;
  const DesRunReport run = run_des(
      make_des_workload(config.app, config.num_files, config.seed, config.skew),
      core::make_deployment(type, config.instances, config.workers_per_instance), spec);

  return {run.monitor, s, run.result.framework, run.result.makespan, run.result.tasks,
          run.result.completed};
}

std::string MonitorRunReport::to_text() const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "=== monitor: %s (%s) — %d/%d tasks, makespan %.1fs, %llu samples ===\n",
                substrate.c_str(), framework.c_str(), completed, tasks, makespan,
                static_cast<unsigned long long>(samples));
  os << line << dashboard;
  os << (degraded ? "verdict: DEGRADED\n" : "verdict: healthy\n");
  return os.str();
}

}  // namespace ppc::sim
