// The elastic-fleet acceptance campaign behind `ppcloud autoscale`.
//
// One scenario, two runs: a deadline-and-budget SchedulerPolicy sizes the
// cheapest static on-demand fleet meeting the deadline, the Classic Cloud
// DES driver prices that static run, and then the *elastic* driver runs the
// same workload on an autoscaled, half-spot fleet under seeded revocation
// storms — with a Monitor ticking and the default alarms armed. The campaign
// passes when the elastic run:
//
//   * completes every task with the queue drained to zero undeleted
//     messages (no task lost to a revocation storm);
//   * meets the deadline;
//   * bills less than the static on-demand fleet (the spot discount and the
//     billing-boundary scale-in are worth real dollars);
//   * actually suffered revocations (the storm coverage check);
//   * fires no alarms (hysteresis keeps fleet.thrash quiet, supervision
//     keeps the stall rule quiet);
//   * reproduces a byte-identical Monitor time-series on a rerun; and
//   * fits the wall-clock budget.
//
// The per-tick fleet-size series is exported as CSV — the fleet-size-vs-time
// artifact the elasticity-smoke CI job uploads. Both runs are run_des
// RunReports; the verb's preset is campaign_spec() plus the caller's
// ElasticSimParams (spot fraction, revocation rate and notice).
#pragma once

#include <string>

#include "common/units.h"
#include "core/drivers.h"
#include "sim/des_run.h"

namespace ppc::sim {

/// What the campaign takes besides the workload, the reference fleet and
/// the DesRunSpec.
struct AutoscaleCampaignConfig {
  /// Wall deadline in sim-seconds; < 0 derives 1.25x the reference static
  /// fleet's estimated makespan (slack for ramp-up and storm recovery).
  Seconds deadline = -1.0;
  /// Spend cap handed to the Autoscaler; < 0 = uncapped.
  Dollars budget = -1.0;
  /// Seeded revocation storms, evenly spread over the static makespan
  /// estimate (each revokes every running spot instance with the elastic
  /// params' revocation_rate on revocation_notice seconds of notice).
  int storms = 2;
  /// Real-seconds budget for the elastic run (excluding the rerun).
  Seconds wall_budget = 300.0;
};

/// The campaign verdict: the elastic run, whose `failures` say why it did
/// not pass, and the static on-demand comparator it was judged against.
struct AutoscaleVerdict {
  Seconds deadline = 0.0;
  int static_instances = 0;   // the SchedulerPolicy's comparator fleet
  core::RunResult comparator;  // the static run; cost in hour units
  RunReport elastic;
};

/// Sizes the comparator for `workload` on at most `reference.instances` of
/// its type, runs it, then runs the elastic fleet (up to the full reference
/// fleet, spot share and storms per `spec.elastic`, defaults when unset)
/// monitored and rerun per `spec`, and appends every failed gate.
AutoscaleVerdict run_autoscale_campaign(const core::Workload& workload,
                                        const core::Deployment& reference, DesRunSpec spec,
                                        const AutoscaleCampaignConfig& config);

std::string autoscale_text(const AutoscaleVerdict& verdict);
/// "t,active,spot\n..." — the fleet-size-vs-time CI artifact.
std::string fleet_series_csv(const RunReport& report);

}  // namespace ppc::sim
