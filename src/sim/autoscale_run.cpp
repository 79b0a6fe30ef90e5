#include "sim/autoscale_run.h"

#include <algorithm>
#include <sstream>

#include "cloud/instance_types.h"
#include "cloud/scheduler_policy.h"
#include "common/error.h"
#include "core/exec_model.h"
#include "core/workload.h"

namespace ppc::sim {

AutoscaleReport run_autoscale_campaign(const AutoscaleCampaignConfig& config) {
  PPC_REQUIRE(config.tasks >= 1, "campaign needs tasks");
  PPC_REQUIRE(config.instances >= 2 && config.workers_per_instance >= 1,
              "campaign needs a reference fleet of at least 2 instances");
  PPC_REQUIRE(config.storms >= 0, "storms must be >= 0");

  const core::Workload workload = core::make_cap3_workload(config.tasks, 458);
  const core::ExecutionModel model(core::AppKind::kCap3);
  const cloud::InstanceType& type = cloud::ec2_hcxl();

  AutoscaleReport report;
  report.tasks = config.tasks;

  // The job's total sequential work, the SchedulerPolicy's T1 input.
  Seconds t1 = 0.0;
  for (const core::SimTask& task : workload.tasks) {
    t1 += model.expected_sequential(task, type);
  }

  // Deadline: configured, or 1.25x the reference fleet's estimate — slack
  // that covers elastic ramp-up, revocation storms, and redelivery tails.
  const double efficiency = 0.85;
  const Seconds reference_makespan =
      t1 / (config.instances * type.cpu_cores * efficiency);
  report.deadline =
      config.deadline > 0.0 ? config.deadline : 1.25 * reference_makespan;

  // The comparator: the cheapest static on-demand fleet meeting the deadline.
  cloud::PolicyRequest request;
  request.t1_seconds = t1;
  request.deadline = report.deadline;
  request.efficiency = efficiency;
  request.max_instances = config.instances;
  const cloud::SchedulerPolicy policy(request);
  const cloud::FleetPlan plan = policy.plan(type);
  if (!plan.feasible) {
    report.failures.push_back("no feasible static plan: " + plan.note);
    return report;
  }
  report.static_instances = plan.instances;

  DesRunSpec spec;
  spec.params.seed = config.seed;
  spec.params.receive_batch = config.receive_batch;
  spec.params.queue.shards = config.queue_shards;
  const core::RunResult static_result =
      run_des(workload, core::make_deployment(type, plan.instances, config.workers_per_instance),
              spec)
          .result;
  report.makespan_static = static_result.makespan;
  report.cost_static = static_result.compute_cost_hour_units;

  // The elastic fleet gets the full reference budget of instances: headroom
  // over the static comparator is what absorbs storm losses, and half-spot
  // pricing is what makes the bigger fleet the cheaper one.
  core::ElasticSimParams& elastic = spec.elastic.emplace();
  elastic.autoscaler.max_instances = config.instances;
  elastic.autoscaler.min_instances = std::max(1, config.instances / 4);
  elastic.autoscaler.step_out = std::max(1, config.instances / 4);
  elastic.autoscaler.budget = config.budget;
  elastic.spot_fraction = config.spot_fraction;
  elastic.revocation_rate = config.revocation_rate;
  elastic.revocation_notice = config.revocation_notice;
  for (int i = 1; i <= config.storms; ++i) {
    elastic.storm_times.push_back(plan.est_makespan * i / (config.storms + 1));
  }
  // Redelivery tail of a hard kill: long enough to cover a prefetched
  // batch, short enough that resurfaced tasks still meet the deadline.
  spec.params.visibility_timeout = 1800.0;
  spec.monitor = DesMonitor{.period = config.monitor_period, .capacity = kCampaignMonitorCapacity};
  spec.rerun = config.verify_determinism;
  const DesRunReport run = run_des(
      workload, core::make_deployment(type, config.instances, config.workers_per_instance), spec);
  report.elastic = run.elastic;
  report.makespan_elastic = run.result.makespan;
  report.cost_elastic = run.result.compute_cost_hour_units;

  if (report.makespan_elastic > report.deadline) {
    report.failures.push_back("deadline missed: " + std::to_string(report.makespan_elastic) +
                              " sim-s > " + std::to_string(report.deadline) + " sim-s");
  }
  if (report.cost_elastic >= report.cost_static) {
    report.failures.push_back("elastic fleet not cheaper: $" +
                              std::to_string(report.cost_elastic) + " vs static $" +
                              std::to_string(report.cost_static));
  }
  if (config.spot_fraction > 0.0 && report.elastic.spot_savings() <= 0.0) {
    report.failures.push_back("no spot savings recorded");
  }
  if (config.storms > 0 && config.revocation_rate > 0.0 && config.spot_fraction > 0.0 &&
      report.elastic.revocations == 0) {
    report.failures.push_back("revocation storms injected no revocations");
  }
  if (config.budget >= 0.0 && report.cost_elastic > config.budget) {
    report.failures.push_back("budget exceeded: $" + std::to_string(report.cost_elastic) +
                              " > $" + std::to_string(config.budget));
  }
  report.finish(run, config.wall_budget);
  return report;
}

std::string AutoscaleReport::to_text() const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "=== autoscale: %d Cap3 tasks — %d completed, deadline %.0f sim-s ===\n",
                tasks, completed, deadline);
  os << line;
  std::snprintf(line, sizeof(line),
                "static : %d x on-demand, makespan %.0f sim-s, $%.2f (hour units)\n",
                static_instances, makespan_static, cost_static);
  os << line;
  std::snprintf(line, sizeof(line),
                "elastic: peak %d, makespan %.0f sim-s, $%.2f = $%.2f on-demand + $%.2f "
                "spot (saves $%.2f vs all-on-demand)\n",
                elastic.peak_instances, makespan_elastic, cost_elastic,
                elastic.cost_on_demand, elastic.cost_spot, elastic.spot_savings());
  os << line;
  std::snprintf(line, sizeof(line),
                "fleet  : %lld scale-outs, %lld scale-ins, %lld revocations "
                "(%lld hard kills), %lld drains (mean %.0fs), %llu stale terminates\n",
                static_cast<long long>(elastic.scale_out_events),
                static_cast<long long>(elastic.scale_in_events),
                static_cast<long long>(elastic.revocations),
                static_cast<long long>(elastic.hard_kills),
                static_cast<long long>(elastic.drains_completed),
                elastic.drains_completed > 0
                    ? elastic.total_drain_seconds / elastic.drains_completed
                    : 0.0,
                static_cast<unsigned long long>(elastic.stale_terminates));
  os << line;
  std::snprintf(line, sizeof(line),
                "monitor: %llu samples, alarms %s, rerun %s, wall %.1fs\n",
                static_cast<unsigned long long>(monitor_samples),
                alarm_fired ? "FIRED" : "quiet",
                deterministic ? "byte-identical" : "DIVERGED", wall_seconds);
  os << line;
  os << (passed ? "verdict: PASS\n" : "verdict: FAIL\n");
  for (const auto& f : failures) os << "  - " << f << "\n";
  return os.str();
}

std::string AutoscaleReport::fleet_series_csv() const {
  std::ostringstream os;
  os << "t,active,spot\n";
  os.setf(std::ios::fixed);
  os.precision(0);
  for (const core::FleetSizePoint& p : elastic.fleet_size_series) {
    os << p.t << "," << p.active << "," << p.spot << "\n";
  }
  return os.str();
}

}  // namespace ppc::sim
