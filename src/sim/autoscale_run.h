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
// artifact the elasticity-smoke CI job uploads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/drivers.h"
#include "sim/des_run.h"

namespace ppc::sim {

struct AutoscaleCampaignConfig {
  /// Cap3 files; one task each. The headline run is 1,000,000.
  int tasks = 100000;
  /// Reference static fleet (EC2 HCXL instances) the deadline defaults are
  /// derived from; the SchedulerPolicy may size the actual comparator
  /// smaller.
  int instances = 32;
  int workers_per_instance = 8;
  int receive_batch = 10;
  int queue_shards = 8;
  unsigned seed = 42;

  /// Wall deadline in sim-seconds; < 0 derives 1.25x the reference static
  /// fleet's estimated makespan (slack for ramp-up and storm recovery).
  Seconds deadline = -1.0;
  /// Spend cap handed to the Autoscaler; < 0 = uncapped.
  Dollars budget = -1.0;
  double spot_fraction = 0.5;
  /// Seeded revocation storms: `storms` of them, evenly spread over the
  /// static makespan estimate, each revoking every running spot instance
  /// with probability `revocation_rate` on `revocation_notice` seconds of
  /// notice.
  int storms = 2;
  double revocation_rate = 0.2;
  Seconds revocation_notice = 90.0;

  Seconds monitor_period = 600.0;
  /// Real-seconds budget for the elastic run (excluding the rerun).
  Seconds wall_budget = 300.0;
  bool verify_determinism = true;
};

/// The verdict, task counts and monitor series of the elastic run come
/// from MonitoredCampaign.
struct AutoscaleReport : MonitoredCampaign {
  Seconds deadline = 0.0;
  int static_instances = 0;  // the SchedulerPolicy's comparator fleet
  Seconds makespan_static = 0.0;
  Seconds makespan_elastic = 0.0;
  Dollars cost_static = 0.0;   // hour units, all on-demand
  Dollars cost_elastic = 0.0;  // hour units, blended
  core::ElasticRunStats elastic;

  std::string to_text() const;
  /// "t,active,spot\n..." — the fleet-size-vs-time CI artifact.
  std::string fleet_series_csv() const;
};

AutoscaleReport run_autoscale_campaign(const AutoscaleCampaignConfig& config);

}  // namespace ppc::sim
