// Deadline-constrained, budget-capped, resource-aware fleet planning.
//
// The Hadoop-scheduling survey's policy families, applied to the paper's
// fleets: given the workload's total sequential work T1 (Equation 1's
// numerator), pick the fleet size and spot-vs-on-demand mix that meets a
// deadline, stays under a budget, and respects per-core memory needs
// (§5.1's "the Azure Small fit BLAST's database; Large did not" concern).
//
// Estimates use the paper's own model: makespan(n) ~ T1 / (n * cores *
// efficiency), cost(n) = ceil(makespan / 1h) whole-hour units at the
// blended on-demand/spot rate — the same hour-unit billing the Fleet
// meters, so plans line up with what a run actually bills. The
// cheapest() sweep over a catalog is the Table 4 extension: "the cheapest
// config meeting deadline D".
#pragma once

#include <string>
#include <vector>

#include "cloud/instance_types.h"
#include "common/units.h"

namespace ppc::cloud {

struct PolicyRequest {
  /// Total sequential work of the job on one core (sum of expected task
  /// times); the planner divides by each candidate type's core count.
  Seconds t1_seconds = 0.0;
  /// Wall deadline; < 0 = none (the minimum fleet wins).
  Seconds deadline = -1.0;
  /// Spend cap in dollars; < 0 = uncapped.
  Dollars budget = -1.0;
  /// Assumed parallel efficiency (Equation 1) of the candidate fleet.
  double efficiency = 0.85;
  /// Resource-aware filter: types with less memory per core are infeasible.
  double min_memory_per_core_gb = 0.0;
  /// Fraction of the fleet to place on the spot market (billed at
  /// kDefaultSpotDiscount).
  double spot_fraction = 0.0;
  int max_instances = 256;
};

struct FleetPlan {
  InstanceType type;
  int instances = 0;
  int spot_instances = 0;  // of `instances`
  Seconds est_makespan = 0.0;
  Dollars est_cost = 0.0;  // hour units, spot hours discounted
  bool feasible = false;
  /// Why the plan is infeasible ("deadline", "budget", "memory"); empty
  /// when feasible.
  std::string note;

  int on_demand_instances() const { return instances - spot_instances; }
};

class SchedulerPolicy {
 public:
  explicit SchedulerPolicy(PolicyRequest request);

  const PolicyRequest& request() const { return request_; }

  /// The smallest fleet of `type` meeting the deadline, clamped by the
  /// resource filter and the budget; infeasible plans carry the blocking
  /// constraint in `note`.
  FleetPlan plan(const InstanceType& type) const;

  /// The cheapest feasible plan across `catalog` (ties: fewer instances,
  /// then name). Infeasible when no type qualifies.
  FleetPlan cheapest(const std::vector<InstanceType>& catalog) const;

 private:
  PolicyRequest request_;
};

}  // namespace ppc::cloud
