#include "sim/monitor_run.h"

#include <chrono>
#include <sstream>

#include "cloud/instance_types.h"
#include "common/error.h"
#include "core/drivers.h"
#include "core/exec_model.h"
#include "core/workload.h"

namespace ppc::sim {

namespace {

core::Workload build_workload(const MonitorRunConfig& config) {
  core::Workload w;
  if (config.app == "cap3") {
    w = core::make_cap3_workload(config.num_files, 458);
  } else if (config.app == "blast") {
    w = core::make_blast_workload(config.num_files, 100, config.seed);
  } else if (config.app == "gtm") {
    w = core::make_gtm_workload(config.num_files);
  } else {
    throw ppc::InvalidArgument("unknown app: " + config.app);
  }
  // Same skew law as make_app_job: file i costs (1 + skew * i/(n-1))x the
  // first, so the drain tail the dashboard shows matches the traced runs.
  const std::size_t n = w.tasks.size();
  if (config.skew > 0.0 && n > 1) {
    for (std::size_t i = 0; i < n; ++i) {
      w.tasks[i].work_factor *=
          1.0 + config.skew * static_cast<double>(i) / static_cast<double>(n - 1);
    }
  }
  return w;
}

core::Deployment build_deployment(const MonitorRunConfig& config) {
  const cloud::InstanceType& type =
      config.substrate == "classiccloud" ? cloud::ec2_hcxl()
      : config.substrate == "azuremr"    ? cloud::azure_large()
      : config.substrate == "mapreduce"  ? cloud::bare_metal_idataplex_node()
                                         : cloud::bare_metal_hpcs_node();
  return core::make_deployment(type, config.instances, config.workers_per_instance);
}

}  // namespace

std::vector<std::string> default_alarm_rules() {
  // Sustain (45s) is many sample periods and far beyond any fault-free idle
  // sliver (poll latency, start-up stagger), but well inside a real stall
  // window — flapping just under it never fires.
  //
  // The thrash rule watches the elastic drivers' fleet.scale_events.rate
  // probe: a well-hysteresed autoscaler (cooldown 120s) tops out around one
  // scale event per minute (~0.017/s) even during ramp-up or a post-storm
  // refill, so a sustained 0.05/s means the scale-out/scale-in thresholds
  // overlap and the fleet is oscillating. Alarms on absent series never
  // fire, so the rule is inert for static-fleet runs.
  return {"stall: workers.idle_with_backlog > 0.5 for 45s",
          "fleet.thrash: fleet.scale_events.rate > 0.05 for 60s"};
}

AlarmedMonitor::AlarmedMonitor(Seconds period, std::size_t capacity,
                               const std::vector<std::string>& rules)
    : monitor(registry, {.period = period, .capacity = capacity, .scrape_registry = false}) {
  for (const std::string& rule : rules) monitor.add_alarm(runtime::parse_alarm(rule));
}

bool AlarmedMonitor::alarmed() const {
  return monitor.degraded() || !monitor.firings().empty();
}

core::RunResult MonitoredCampaign::run_monitored(
    Seconds period, std::size_t capacity, bool verify,
    const std::function<core::RunResult(runtime::Monitor&, bool first)>& drive) {
  const auto t0 = std::chrono::steady_clock::now();
  AlarmedMonitor m(period, capacity);
  core::RunResult result = drive(m.monitor, true);
  wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  completed = result.completed;
  queue_undeleted_end = result.queue_undeleted_end;
  monitor_samples = m.monitor.samples();
  alarm_fired = m.alarmed();
  monitor_json = m.monitor.to_json();
  if (verify) {
    AlarmedMonitor rerun(period, capacity);
    (void)drive(rerun.monitor, false);
    deterministic = rerun.monitor.to_json() == monitor_json;
  }
  return result;
}

void MonitoredCampaign::finish(Seconds wall_budget) {
  if (completed != tasks) {
    failures.push_back("completed " + std::to_string(completed) + " of " +
                       std::to_string(tasks) + " tasks");
  }
  if (queue_undeleted_end != 0) {
    failures.push_back("task queue did not drain: " + std::to_string(queue_undeleted_end) +
                       " undeleted messages");
  }
  if (alarm_fired) failures.push_back("monitor alarm fired");
  if (!deterministic) failures.push_back("monitor time-series differed across reruns");
  if (wall_seconds > wall_budget) {
    failures.push_back("wall budget exceeded: " + std::to_string(wall_seconds) + "s > " +
                       std::to_string(wall_budget) + "s");
  }
  passed = failures.empty();
}

MonitorRunReport run_monitored_job(const MonitorRunConfig& config) {
  PPC_REQUIRE(config.substrate == "classiccloud" || config.substrate == "azuremr" ||
                  config.substrate == "mapreduce" || config.substrate == "dryad",
              "unknown substrate: " + config.substrate);
  const core::Workload workload = build_workload(config);
  const core::Deployment deployment = build_deployment(config);
  const core::ExecutionModel model(workload.app);

  AlarmedMonitor m(config.period, config.capacity,
                   config.alarms.empty() ? default_alarm_rules() : config.alarms);
  runtime::Monitor& monitor = m.monitor;

  core::SimRunParams params;
  params.seed = config.seed;
  params.monitor = &monitor;
  params.metrics = &m.registry;
  params.stall_worker = config.stall_worker;
  params.stall_at = config.stall_at;
  params.stall_duration = config.stall_duration;

  core::RunResult result;
  if (config.substrate == "mapreduce") {
    result = core::run_mapreduce_sim(workload, deployment, model, params);
  } else if (config.substrate == "dryad") {
    result = core::run_dryad_sim(workload, deployment, model, params);
  } else {
    result = core::run_classic_cloud_sim(workload, deployment, model, params);
  }

  MonitorRunReport report;
  report.substrate = config.substrate;
  report.framework = result.framework;
  report.makespan = result.makespan;
  report.tasks = result.tasks;
  report.completed = result.completed;
  report.samples = monitor.samples();
  report.degraded = monitor.degraded();
  report.firings = monitor.firings();
  report.monitor_json = monitor.to_json();
  report.dashboard = monitor.dashboard();
  report.prometheus = monitor.to_prometheus();
  return report;
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
