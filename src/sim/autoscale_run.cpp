#include "sim/autoscale_run.h"

#include <algorithm>
#include <sstream>

#include "cloud/instance_types.h"
#include "cloud/scheduler_policy.h"
#include "common/error.h"
#include "core/exec_model.h"
#include "sim/saturation.h"

namespace ppc::sim {

AutoscaleVerdict run_autoscale_campaign(const core::Workload& workload,
                                        const core::Deployment& reference, DesRunSpec spec,
                                        const AutoscaleCampaignConfig& config) {
  PPC_REQUIRE(reference.instances >= 2,
              "campaign needs a reference fleet of at least 2 instances");
  PPC_REQUIRE(config.storms >= 0, "storms must be >= 0");
  const core::ExecutionModel model(workload.app);
  const cloud::InstanceType& type = reference.type;

  AutoscaleVerdict verdict;
  RunReport& report = verdict.elastic;

  // The job's total sequential work, the SchedulerPolicy's T1 input.
  Seconds t1 = 0.0;
  for (const core::SimTask& task : workload.tasks) {
    t1 += model.expected_sequential(task, type);
  }

  // Deadline: configured, or 1.25x the reference fleet's estimate — slack
  // that covers elastic ramp-up, revocation storms, and redelivery tails.
  const double efficiency = 0.85;
  const Seconds reference_makespan =
      t1 / (reference.instances * type.cpu_cores * efficiency);
  verdict.deadline = config.deadline > 0.0 ? config.deadline : 1.25 * reference_makespan;

  // The comparator: the cheapest static on-demand fleet meeting the deadline.
  cloud::PolicyRequest request;
  request.t1_seconds = t1;
  request.deadline = verdict.deadline;
  request.efficiency = efficiency;
  request.max_instances = reference.instances;
  const cloud::SchedulerPolicy policy(request);
  const cloud::FleetPlan plan = policy.plan(type);
  if (!plan.feasible) {
    report.result.tasks = static_cast<int>(workload.size());
    report.failures.push_back("no feasible static plan: " + plan.note);
    return verdict;
  }
  verdict.static_instances = plan.instances;

  DesRunSpec comparator = spec;
  comparator.elastic.reset();
  comparator.monitor.reset();
  comparator.rerun = false;
  verdict.comparator =
      run_des(workload,
              core::make_deployment(type, plan.instances, reference.workers_per_instance),
              comparator)
          .result;

  // The elastic fleet gets the full reference budget of instances: headroom
  // over the static comparator is what absorbs storm losses, and half-spot
  // pricing is what makes the bigger fleet the cheaper one.
  core::ElasticSimParams& elastic = spec.elastic ? *spec.elastic : spec.elastic.emplace();
  elastic.autoscaler.max_instances = reference.instances;
  elastic.autoscaler.min_instances = std::max(1, reference.instances / 4);
  elastic.autoscaler.step_out = std::max(1, reference.instances / 4);
  elastic.autoscaler.budget = config.budget;
  for (int i = 1; i <= config.storms; ++i) {
    elastic.storm_times.push_back(plan.est_makespan * i / (config.storms + 1));
  }
  // Redelivery tail of a hard kill: long enough to cover a prefetched
  // batch, short enough that resurfaced tasks still meet the deadline.
  spec.params.visibility_timeout = 1800.0;
  report = run_des(workload, reference, spec);
  const core::RunResult& r = report.result;
  const core::ElasticRunStats& stats = report.elastic;

  std::vector<std::string>& failures = report.failures;
  if (r.makespan > verdict.deadline) {
    failures.push_back("deadline missed: " + std::to_string(r.makespan) + " sim-s > " +
                       std::to_string(verdict.deadline) + " sim-s");
  }
  const Dollars cost_static = verdict.comparator.compute_cost_hour_units;
  if (r.compute_cost_hour_units >= cost_static) {
    failures.push_back("elastic fleet not cheaper: $" + std::to_string(r.compute_cost_hour_units) +
                       " vs static $" + std::to_string(cost_static));
  }
  if (elastic.spot_fraction > 0.0 && stats.spot_savings() <= 0.0) {
    failures.push_back("no spot savings recorded");
  }
  if (config.storms > 0 && elastic.revocation_rate > 0.0 && elastic.spot_fraction > 0.0 &&
      stats.revocations == 0) {
    failures.push_back("revocation storms injected no revocations");
  }
  if (config.budget >= 0.0 && r.compute_cost_hour_units > config.budget) {
    failures.push_back("budget exceeded: $" + std::to_string(r.compute_cost_hour_units) +
                       " > $" + std::to_string(config.budget));
  }
  check_campaign(report, config.wall_budget);
  return verdict;
}

std::string autoscale_text(const AutoscaleVerdict& verdict) {
  const RunReport& report = verdict.elastic;
  const core::RunResult& r = report.result;
  const core::ElasticRunStats& elastic = report.elastic;
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "=== autoscale: %d Cap3 tasks — %d completed, deadline %.0f sim-s ===\n",
                r.tasks, r.completed, verdict.deadline);
  os << line;
  std::snprintf(line, sizeof(line),
                "static : %d x on-demand, makespan %.0f sim-s, $%.2f (hour units)\n",
                verdict.static_instances, verdict.comparator.makespan,
                verdict.comparator.compute_cost_hour_units);
  os << line;
  std::snprintf(line, sizeof(line),
                "elastic: peak %d, makespan %.0f sim-s, $%.2f = $%.2f on-demand + $%.2f "
                "spot (saves $%.2f vs all-on-demand)\n",
                elastic.peak_instances, r.makespan, r.compute_cost_hour_units,
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
                static_cast<unsigned long long>(report.samples),
                report.alarmed() ? "FIRED" : "quiet",
                report.deterministic ? "byte-identical" : "DIVERGED", report.wall_seconds);
  os << line;
  os << (report.succeeded ? "verdict: PASS\n" : "verdict: FAIL\n");
  for (const auto& f : report.failures) os << "  - " << f << "\n";
  return os.str();
}

std::string fleet_series_csv(const RunReport& report) {
  std::ostringstream os;
  os << "t,active,spot\n";
  os.setf(std::ios::fixed);
  os.precision(0);
  for (const core::FleetSizePoint& p : report.elastic.fleet_size_series) {
    os << p.t << "," << p.active << "," << p.spot << "\n";
  }
  return os.str();
}

}  // namespace ppc::sim
