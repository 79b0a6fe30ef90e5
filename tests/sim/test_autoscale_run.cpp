// The elastic-fleet acceptance campaign at test scale: the autoscaled,
// half-spot fleet under revocation storms must finish every task, drain the
// queue to zero, meet the deadline, undercut the static fleet's bill, keep
// the default alarms (including fleet.thrash) quiet, and reproduce a
// byte-identical Monitor series on a rerun.
#include "sim/autoscale_run.h"

#include <gtest/gtest.h>

#include <string>

#include "cloud/instance_types.h"
#include "sim/saturation.h"

namespace ppc::sim {
namespace {

/// `ppcloud autoscale --tasks T --instances I` with `spec`'s elastic params.
AutoscaleVerdict autoscale(int tasks, int instances, const DesRunSpec& spec,
                           const AutoscaleCampaignConfig& config = {}) {
  return run_autoscale_campaign(make_des_workload("cap3", tasks, 42),
                                core::make_deployment(cloud::ec2_hcxl(), instances, 8), spec,
                                config);
}

TEST(AutoscaleCampaign, SmallCampaignPassesEveryGate) {
  DesRunSpec spec = campaign_spec();  // reruns for determinism
  spec.elastic.emplace().revocation_rate = 0.5;  // small spot pool; keep the storm visible
  const AutoscaleVerdict verdict = autoscale(3000, 8, spec);
  const RunReport& report = verdict.elastic;

  EXPECT_TRUE(report.succeeded) << autoscale_text(verdict);
  EXPECT_EQ(report.result.completed, 3000);
  EXPECT_EQ(report.result.queue_undeleted_end, 0u);
  EXPECT_LE(report.result.makespan, verdict.deadline);
  EXPECT_LT(report.result.compute_cost_hour_units, verdict.comparator.compute_cost_hour_units);
  EXPECT_GE(report.elastic.revocations, 1);
  EXPECT_TRUE(report.deterministic);

  // The no-thrash satellite: hysteresis + cooldown keep the steady-state
  // scale-event rate under the fleet.thrash alarm threshold, and supervision
  // keeps the stall rule quiet — no alarm may fire.
  EXPECT_FALSE(report.alarmed());

  // The artifacts `ppcloud autoscale` writes are well-formed.
  EXPECT_GT(report.samples, 0u);
  EXPECT_NE(report.monitor_json.find("fleet.size"), std::string::npos);
  const std::string csv = fleet_series_csv(report);
  EXPECT_EQ(csv.rfind("t,active,spot\n", 0), 0u) << csv.substr(0, 40);
  EXPECT_GT(csv.size(), std::string("t,active,spot\n").size());
  EXPECT_NE(autoscale_text(verdict).find("PASS"), std::string::npos);
}

TEST(AutoscaleCampaign, ImpossibleDeadlineFailsTheCampaign) {
  DesRunSpec spec = campaign_spec();
  spec.rerun = false;
  AutoscaleCampaignConfig config;
  config.storms = 0;
  config.deadline = 1.0;  // nothing finishes 200 Cap3 tasks in one second
  const RunReport report = autoscale(200, 4, spec, config).elastic;
  EXPECT_FALSE(report.succeeded);
  EXPECT_FALSE(report.failures.empty());
}

}  // namespace
}  // namespace ppc::sim
