#include "sim/des_run.h"

#include <chrono>
#include <memory>

#include "common/error.h"

namespace ppc::sim {

namespace {

/// A Monitor on `registry` with the spec's alarms armed.
std::unique_ptr<runtime::Monitor> make_monitor(runtime::MetricsRegistry& registry,
                                               const DesMonitor& spec) {
  auto monitor = std::make_unique<runtime::Monitor>(
      registry, runtime::MonitorConfig{
                    .period = spec.period, .capacity = spec.capacity, .scrape_registry = false});
  for (const std::string& rule : spec.alarms) monitor->add_alarm(runtime::parse_alarm(rule));
  return monitor;
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

core::Workload make_des_workload(const std::string& app, int files, unsigned seed, double skew,
                                 int work) {
  core::Workload w;
  if (app == "cap3") {
    w = core::make_cap3_workload(files, work < 0 ? 458 : work);
  } else if (app == "blast") {
    w = core::make_blast_workload(files, work < 0 ? 100 : work, seed);
  } else if (app == "gtm") {
    w = core::make_gtm_workload(files, work < 0 ? 100000 : work);
  } else {
    throw ppc::InvalidArgument("unknown app: " + app);
  }
  const std::size_t n = w.tasks.size();
  if (skew > 0.0 && n > 1) {
    for (std::size_t i = 0; i < n; ++i) {
      w.tasks[i].work_factor *= 1.0 + skew * static_cast<double>(i) / static_cast<double>(n - 1);
    }
  }
  return w;
}

RunReport run_des(const core::Workload& workload, const core::Deployment& deployment,
                  const DesRunSpec& spec) {
  PPC_REQUIRE(!spec.rerun || spec.monitor, "a rerun compares monitor series: attach a monitor");

  RunReport report;
  report.metrics = std::make_shared<runtime::MetricsRegistry>();
  std::unique_ptr<runtime::Monitor> monitor;
  if (spec.monitor) monitor = make_monitor(*report.metrics, *spec.monitor);
  core::SimRunParams params = spec.params;
  params.metrics = report.metrics.get();
  params.monitor = monitor.get();

  const auto t0 = std::chrono::steady_clock::now();
  const core::ElasticSimParams* elastic = spec.elastic ? &*spec.elastic : nullptr;
  report.result =
      core::simulate(spec.framework, workload, deployment, params, elastic, &report.elastic);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const core::RunResult& r = report.result;
  if (r.completed != r.tasks) {
    report.failures.push_back("completed " + std::to_string(r.completed) + " of " +
                              std::to_string(r.tasks) + " tasks");
  }
  report.succeeded = report.failures.empty();
  if (!monitor) return report;

  report.record(*monitor);
  if (spec.rerun) {
    runtime::MetricsRegistry registry;
    const auto again = make_monitor(registry, *spec.monitor);
    params.metrics = &registry;
    params.monitor = again.get();
    core::ElasticRunStats elastic_stats;
    (void)core::simulate(spec.framework, workload, deployment, params, elastic, &elastic_stats);
    report.deterministic = again->to_json() == report.monitor_json;
  }
  return report;
}

}  // namespace ppc::sim
