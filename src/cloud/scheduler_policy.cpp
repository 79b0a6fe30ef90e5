#include "cloud/scheduler_policy.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ppc::cloud {

SchedulerPolicy::SchedulerPolicy(PolicyRequest request) : request_(request) {
  PPC_REQUIRE(request_.t1_seconds > 0.0, "policy needs the job's T1");
  PPC_REQUIRE(request_.efficiency > 0.0 && request_.efficiency <= 1.0,
              "efficiency must be in (0, 1]");
  PPC_REQUIRE(request_.spot_fraction >= 0.0 && request_.spot_fraction <= 1.0,
              "spot_fraction must be in [0, 1]");
  PPC_REQUIRE(request_.max_instances >= 1, "max_instances must be >= 1");
}

FleetPlan SchedulerPolicy::plan(const InstanceType& type) const {
  FleetPlan p;
  p.type = type;
  if (type.memory_per_core_gb() < request_.min_memory_per_core_gb) {
    p.note = "memory";
    return p;
  }

  auto makespan_of = [&](int n) {
    return request_.t1_seconds / (n * type.cpu_cores * request_.efficiency);
  };
  int n = 1;
  if (request_.deadline > 0.0) {
    n = static_cast<int>(std::ceil(
        request_.t1_seconds / (request_.deadline * type.cpu_cores * request_.efficiency)));
    n = std::max(1, n);
    if (n > request_.max_instances) {
      p.note = "deadline";
      p.instances = request_.max_instances;
      p.est_makespan = makespan_of(request_.max_instances);
      return p;
    }
  }
  p.instances = n;
  p.spot_instances = static_cast<int>(std::floor(n * request_.spot_fraction));
  p.est_makespan = makespan_of(n);

  const double hours = std::max(1.0, std::ceil(p.est_makespan / 3600.0));
  const Dollars spot_rate = type.cost_per_hour * (1.0 - kDefaultSpotDiscount);
  p.est_cost = hours * (p.on_demand_instances() * type.cost_per_hour +
                        p.spot_instances * spot_rate);
  if (request_.budget >= 0.0 && p.est_cost > request_.budget) {
    p.note = "budget";
    return p;
  }
  p.feasible = true;
  return p;
}

FleetPlan SchedulerPolicy::cheapest(const std::vector<InstanceType>& catalog) const {
  PPC_REQUIRE(!catalog.empty(), "cheapest() needs a catalog");
  FleetPlan best;
  best.note = "no feasible type";
  for (const InstanceType& type : catalog) {
    // Spot capacity comes from the plan's mix, so the catalog holds
    // on-demand types only.
    FleetPlan p = plan(type);
    if (!p.feasible) continue;
    const bool better =
        !best.feasible || p.est_cost < best.est_cost ||
        (p.est_cost == best.est_cost &&
         (p.instances < best.instances ||
          (p.instances == best.instances && p.type.name < best.type.name)));
    if (better) best = p;
  }
  return best;
}

}  // namespace ppc::cloud
