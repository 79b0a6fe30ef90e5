// Cloud cost planner — the paper's §8 takeaway as a tool:
//
//   "Computing Clouds offer different instance types at different price
//    points. We showed that selecting an instance type that is best suited
//    to the user's specific application can lead to significant time and
//    monetary advantages."
//
// Given an application profile and a deadline, the planner simulates every
// EC2 instance-type layout and the Azure alternative, prints time/cost, and
// recommends the cheapest deployment meeting the deadline. It also prices
// the buy-vs-lease question against the owned-cluster model of §4.3.
#include <cstdio>

#include <optional>

#include "billing/cost_model.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/drivers.h"

using namespace ppc;
using namespace ppc::core;

namespace {

struct PlanRow {
  Deployment deployment;
  RunResult result;
};

std::vector<PlanRow> plan(const Workload& workload, const std::vector<Deployment>& options,
                          const SimRunParams& params) {
  std::vector<PlanRow> rows;
  for (const auto& d : options) rows.push_back({d, simulate("classic", workload, d, params)});
  return rows;
}

}  // namespace

int main() {
  // Scenario: a lab must assemble 1,024 sequencing files (458 reads each)
  // within 2 hours.
  const double deadline = hours(2.0);
  const Workload workload = make_cap3_workload(1024, 458);
  SimRunParams params;  // every run of the plan uses one seed
  params.seed = 7;
  std::printf("scenario: assemble %zu Cap3 files within %s\n\n", workload.size(),
              format_duration(deadline).c_str());

  const std::vector<Deployment> options = {
      make_deployment(cloud::ec2_large(), 16, 2),
      make_deployment(cloud::ec2_xlarge(), 8, 4),
      make_deployment(cloud::ec2_hcxl(), 4, 8),
      make_deployment(cloud::ec2_hcxl(), 8, 8),
      make_deployment(cloud::ec2_hm4xl(), 4, 8),
      make_deployment(cloud::azure_small(), 32, 1),
      make_deployment(cloud::azure_large(), 8, 4),
  };
  const auto rows = plan(workload, options, params);

  Table table("Deployment options");
  table.set_header({"Deployment", "Cores", "Makespan", "Hour-unit cost $", "Meets deadline"});
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const bool ok = r.result.makespan <= deadline;
    table.add_row({r.deployment.label, std::to_string(r.deployment.total_cores_used()),
                   format_duration(r.result.makespan),
                   Table::num(r.result.compute_cost_hour_units, 2), ok ? "yes" : "NO"});
    if (ok && (!best || r.result.compute_cost_hour_units <
                            rows[*best].result.compute_cost_hour_units)) {
      best = i;
    }
  }
  table.print();
  if (best) {
    std::printf("\nrecommendation: %s — $%.2f, finishing in %s\n",
                rows[*best].deployment.label.c_str(),
                rows[*best].result.compute_cost_hour_units,
                format_duration(rows[*best].result.makespan).c_str());
  }

  // Horizontal scaling is free (§1: "100 hours of 10 cloud compute nodes
  // cost the same as 10 hours in 100 cloud compute nodes").
  std::puts("\nhorizontal scaling check (HCXL fleets):");
  for (int instances : {2, 4, 8, 16}) {
    const auto r = simulate("classic", workload, make_deployment(cloud::ec2_hcxl(), instances, 8),
                            params);
    std::printf("  %2d instances: %-12s amortized $%.2f\n", instances,
                format_duration(r.makespan).c_str(), r.compute_cost_amortized);
  }

  // Buy vs lease (§4.3 / Walker [24]).
  const billing::OwnedClusterModel cluster;
  const auto cluster_run = simulate(
      "hadoop", workload, make_deployment(cloud::bare_metal_cost_cluster_node(), 32, 24), params);
  const double core_hours = cluster_run.makespan * 768.0 / 3600.0;
  std::puts("\nbuy vs lease for this job:");
  for (double util : {0.8, 0.6, 0.4}) {
    std::printf("  owned cluster at %2.0f%% utilization: $%.2f\n", util * 100,
                cluster.job_cost(core_hours, util));
  }
  if (best) {
    std::printf("  cheapest cloud option:             $%.2f\n",
                rows[*best].result.compute_cost_hour_units);
  }
  std::puts("  (the cloud wins once utilization of owned hardware drops)");
  return 0;
}
