#include "cloud/fleet.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/error.h"

namespace ppc::cloud {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  std::shared_ptr<ManualClock> clock_ = std::make_shared<ManualClock>();
  Fleet fleet_{clock_};
};

// The §14 lifecycle cases: the same fixture under their own suite name.
using ElasticFleetTest = FleetTest;

// -- §3 hour-unit and amortized billing ---------------------------------------

TEST_F(FleetTest, LaunchCreatesInstances) {
  const auto ids = fleet_.scale_out(ec2_hcxl(), 3, /*spot_market=*/false);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(fleet_.instances().size(), 3u);
  EXPECT_EQ(fleet_.active_count(), 3);
}

TEST_F(FleetTest, HourlyBillingRoundsUp) {
  // §3: instances are "billed hourly"; a 30-minute run pays a full hour.
  fleet_.scale_out(ec2_hcxl(), 2, false);
  clock_->advance(1800.0);
  fleet_.terminate_all();
  EXPECT_NEAR(fleet_.hourly_billed_cost(clock_->now()), 2 * 0.68, 1e-9);
  EXPECT_NEAR(fleet_.amortized_cost(clock_->now()), 2 * 0.68 * 0.5, 1e-9);
}

TEST_F(FleetTest, SecondHourStartsNewCharge) {
  fleet_.scale_out(ec2_large(), 1, false);
  clock_->advance(3601.0);
  EXPECT_NEAR(fleet_.hourly_billed_cost(clock_->now()), 2 * 0.34, 1e-9);
}

TEST_F(FleetTest, ExactHourChargesOneHour) {
  fleet_.scale_out(ec2_large(), 1, false);
  clock_->advance(3600.0);
  EXPECT_NEAR(fleet_.hourly_billed_cost(clock_->now()), 0.34, 1e-9);
}

TEST_F(FleetTest, ZeroUptimeStillChargesMinimumHour) {
  fleet_.scale_out(azure_small(), 1, false);
  fleet_.terminate_all();
  EXPECT_NEAR(fleet_.hourly_billed_cost(clock_->now()), 0.12, 1e-9);
}

TEST_F(FleetTest, Table4ComputeCosts) {
  // Table 4: 16 HCXL for <= 1 hour = $10.88; 128 Azure Small = $15.36.
  Fleet ec2(clock_);
  ec2.scale_out(ec2_hcxl(), 16, false);
  clock_->advance(3500.0);
  ec2.terminate_all();
  EXPECT_NEAR(ec2.hourly_billed_cost(clock_->now()), 10.88, 1e-9);

  Fleet azure(clock_);
  azure.scale_out(azure_small(), 128, false);
  clock_->advance(3000.0);
  azure.terminate_all();
  EXPECT_NEAR(azure.hourly_billed_cost(clock_->now()), 15.36, 1e-9);
}

TEST_F(FleetTest, TerminateStopsAccrual) {
  const auto ids = fleet_.scale_out(ec2_large(), 1, false);
  fleet_.mark_running(ids[0]);
  clock_->advance(100.0);
  fleet_.hard_kill(ids[0]);
  const Dollars at_termination = fleet_.amortized_cost(clock_->now());
  clock_->advance(10000.0);
  EXPECT_DOUBLE_EQ(fleet_.amortized_cost(clock_->now()), at_termination);
  EXPECT_EQ(fleet_.active_count(), 0);
}

TEST_F(FleetTest, DoubleTerminateIsMeteredNoOp) {
  // Mirrors the queue's stale-delete semantics: an autoscaler and a
  // revocation racing to terminate the same instance is normal cloud
  // weather, detected and counted rather than thrown.
  const auto ids = fleet_.scale_out(ec2_large(), 1, false);
  fleet_.mark_running(ids[0]);
  clock_->advance(100.0);
  fleet_.hard_kill(ids[0]);
  const Dollars at_termination = fleet_.hourly_billed_cost(clock_->now());
  EXPECT_EQ(fleet_.stale_terminates(), 0u);
  clock_->advance(5000.0);
  fleet_.hard_kill(ids[0]);
  EXPECT_EQ(fleet_.stale_terminates(), 1u);
  EXPECT_EQ(fleet_.hard_kills(), 1);
  // The no-op must not re-terminate (and so re-price) the instance.
  EXPECT_DOUBLE_EQ(fleet_.hourly_billed_cost(clock_->now()), at_termination);
}

TEST_F(FleetTest, UnknownInstanceThrows) {
  EXPECT_THROW(fleet_.hard_kill("nope"), InvalidArgument);
  EXPECT_THROW(fleet_.info("nope"), InvalidArgument);
}

TEST_F(FleetTest, MixedFleetSumsCosts) {
  fleet_.scale_out(ec2_hcxl(), 1, false);
  fleet_.scale_out(ec2_hm4xl(), 1, false);
  clock_->advance(60.0);
  fleet_.terminate_all();
  EXPECT_NEAR(fleet_.hourly_billed_cost(clock_->now()), 0.68 + 2.00, 1e-9);
}

// -- §14 lifecycle: states, drains and spot revocations ---------------------

TEST_F(ElasticFleetTest, ScaleOutBootsThenRuns) {
  const auto ids = fleet_.scale_out(ec2_hcxl(), 2, /*spot_market=*/false);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(fleet_.booting_count(), 2);
  EXPECT_EQ(fleet_.running_count(), 0);
  EXPECT_EQ(fleet_.active_count(), 2);
  EXPECT_EQ(fleet_.scale_out_events(), 1);

  fleet_.mark_running(ids[0]);
  fleet_.mark_running(ids[1]);
  EXPECT_EQ(fleet_.booting_count(), 0);
  EXPECT_EQ(fleet_.running_count(), 2);
  EXPECT_EQ(fleet_.state(ids[0]), InstanceState::kRunning);
}

TEST_F(ElasticFleetTest, MarkRunningTwiceThrows) {
  const auto ids = fleet_.scale_out(ec2_large(), 1, false);
  fleet_.mark_running(ids[0]);
  EXPECT_THROW(fleet_.mark_running(ids[0]), InvalidArgument);
}

TEST_F(ElasticFleetTest, GracefulDrainMetersDurationAndStopsBilling) {
  const auto ids = fleet_.scale_out(ec2_large(), 1, false);
  fleet_.mark_running(ids[0]);
  clock_->advance(1000.0);

  fleet_.begin_drain(ids[0]);
  EXPECT_EQ(fleet_.draining_count(), 1);
  EXPECT_EQ(fleet_.scale_in_events(), 1);

  clock_->advance(40.0);  // the in-flight task finishes
  fleet_.finish_drain(ids[0]);
  EXPECT_EQ(fleet_.state(ids[0]), InstanceState::kTerminated);
  EXPECT_EQ(fleet_.active_count(), 0);
  EXPECT_EQ(fleet_.drains_completed(), 1);
  EXPECT_DOUBLE_EQ(fleet_.total_drain_seconds(), 40.0);

  // No further accrual after the drain terminated the instance.
  const Dollars bill = fleet_.hourly_billed_cost(clock_->now());
  clock_->advance(10000.0);
  EXPECT_DOUBLE_EQ(fleet_.hourly_billed_cost(clock_->now()), bill);
}

TEST_F(ElasticFleetTest, SpotScaleOutBillsDiscountedRate) {
  const auto ids = fleet_.scale_out(ec2_hcxl(), 1, /*spot_market=*/true);
  const auto& inst = fleet_.instances()[0];
  EXPECT_TRUE(inst.type.spot);
  EXPECT_EQ(inst.type.name, "EC2-HCXL-spot");
  EXPECT_NEAR(inst.type.cost_per_hour, 0.68 * (1.0 - kDefaultSpotDiscount), 1e-9);
  EXPECT_NEAR(inst.type.on_demand_cost_per_hour, 0.68, 1e-9);
  EXPECT_EQ(fleet_.spot_running(), 0);  // still booting
  fleet_.mark_running(ids[0]);
  EXPECT_EQ(fleet_.spot_running(), 1);

  clock_->advance(100.0);
  const auto breakdown = fleet_.hourly_billed_breakdown(clock_->now());
  EXPECT_NEAR(breakdown.spot, 0.68 * 0.3, 1e-9);
  EXPECT_NEAR(breakdown.spot_savings(), 0.68 * 0.7, 1e-9);
}

TEST_F(ElasticFleetTest, RevokeWithNoticeDrainsUntilDeadline) {
  const auto ids = fleet_.scale_out(ec2_hcxl(), 1, true);
  fleet_.mark_running(ids[0]);
  clock_->advance(500.0);

  const Seconds deadline = fleet_.revoke(ids[0], 90.0);
  EXPECT_DOUBLE_EQ(deadline, 590.0);
  EXPECT_EQ(fleet_.state(ids[0]), InstanceState::kDraining);
  EXPECT_TRUE(fleet_.info(ids[0]).revoked);
  EXPECT_DOUBLE_EQ(fleet_.info(ids[0]).revoke_deadline, 590.0);
  EXPECT_EQ(fleet_.revocations(), 1);
  // A revocation is not a scale-in decision.
  EXPECT_EQ(fleet_.scale_in_events(), 0);

  // The drain beats the notice window: a clean exit, not a hard kill.
  clock_->advance(30.0);
  fleet_.finish_drain(ids[0]);
  EXPECT_EQ(fleet_.hard_kills(), 0);
  EXPECT_EQ(fleet_.drains_completed(), 1);
}

TEST_F(ElasticFleetTest, RevokeWithoutNoticeIsImmediateHardKill) {
  const auto ids = fleet_.scale_out(ec2_hcxl(), 1, true);
  fleet_.mark_running(ids[0]);
  fleet_.revoke(ids[0], 0.0);
  EXPECT_EQ(fleet_.state(ids[0]), InstanceState::kTerminated);
  EXPECT_EQ(fleet_.revocations(), 1);
  EXPECT_EQ(fleet_.hard_kills(), 1);
}

TEST_F(ElasticFleetTest, ExpiredNoticeHardKillFromDraining) {
  const auto ids = fleet_.scale_out(ec2_hcxl(), 1, true);
  fleet_.mark_running(ids[0]);
  const Seconds deadline = fleet_.revoke(ids[0], 60.0);
  clock_->advance(deadline - clock_->now());
  fleet_.hard_kill(ids[0]);
  EXPECT_EQ(fleet_.state(ids[0]), InstanceState::kTerminated);
  EXPECT_EQ(fleet_.hard_kills(), 1);
  EXPECT_EQ(fleet_.drains_completed(), 0);
  // hard_kill is a metered no-op on a dead instance.
  fleet_.hard_kill(ids[0]);
  EXPECT_EQ(fleet_.hard_kills(), 1);
  EXPECT_EQ(fleet_.stale_terminates(), 1u);
}

TEST_F(ElasticFleetTest, RevokeOnNonSpotThrows) {
  const auto ids = fleet_.scale_out(ec2_hcxl(), 1, false);
  fleet_.mark_running(ids[0]);
  EXPECT_THROW(fleet_.revoke(ids[0], 90.0), InvalidArgument);
}

TEST_F(ElasticFleetTest, RevokeRacingScaleInDrainIsNotASecondScaleIn) {
  const auto ids = fleet_.scale_out(ec2_hcxl(), 1, true);
  fleet_.mark_running(ids[0]);
  fleet_.begin_drain(ids[0]);
  EXPECT_EQ(fleet_.scale_in_events(), 1);
  fleet_.revoke(ids[0], 120.0);
  EXPECT_EQ(fleet_.scale_in_events(), 1);  // unchanged
  EXPECT_EQ(fleet_.revocations(), 1);
  EXPECT_GE(fleet_.info(ids[0]).revoke_deadline, 0.0);
}

TEST_F(ElasticFleetTest, RevokeOnTerminatedIsNoOp) {
  const auto ids = fleet_.scale_out(ec2_hcxl(), 1, true);
  fleet_.mark_running(ids[0]);
  fleet_.hard_kill(ids[0]);
  fleet_.revoke(ids[0], 90.0);
  EXPECT_EQ(fleet_.revocations(), 0);
}

TEST_F(ElasticFleetTest, TerminateAllSweepsEveryState) {
  const auto a = fleet_.scale_out(ec2_hcxl(), 1, false);  // stays booting
  const auto b = fleet_.scale_out(ec2_hcxl(), 1, true);
  fleet_.mark_running(b[0]);
  const auto c = fleet_.scale_out(ec2_hcxl(), 1, false);
  fleet_.mark_running(c[0]);
  fleet_.begin_drain(c[0]);

  fleet_.terminate_all();
  EXPECT_EQ(fleet_.active_count(), 0);
  EXPECT_EQ(fleet_.spot_running(), 0);
  EXPECT_EQ(fleet_.state(a[0]), InstanceState::kTerminated);
}

TEST_F(ElasticFleetTest, SecondsToHourBoundary) {
  const auto ids = fleet_.scale_out(ec2_large(), 1, false);
  clock_->advance(3000.0);
  EXPECT_DOUBLE_EQ(fleet_.seconds_to_hour_boundary(ids[0], clock_->now()), 600.0);
  clock_->advance(600.0);
  EXPECT_DOUBLE_EQ(fleet_.seconds_to_hour_boundary(ids[0], clock_->now()), 0.0);
  clock_->advance(1.0);
  EXPECT_DOUBLE_EQ(fleet_.seconds_to_hour_boundary(ids[0], clock_->now()), 3599.0);
}

TEST_F(ElasticFleetTest, GaugesTrackMixedStates) {
  const auto spot = fleet_.scale_out(ec2_hcxl(), 2, true);
  const auto od = fleet_.scale_out(ec2_hcxl(), 1, false);
  fleet_.mark_running(spot[0]);
  fleet_.mark_running(spot[1]);
  fleet_.mark_running(od[0]);
  fleet_.revoke(spot[1], 60.0);  // spot + draining still counts as spot up

  EXPECT_EQ(fleet_.active_count(), 3);
  EXPECT_EQ(fleet_.running_count(), 2);
  EXPECT_EQ(fleet_.draining_count(), 1);
  EXPECT_EQ(fleet_.spot_running(), 2);
  EXPECT_EQ(fleet_.scale_events(), fleet_.scale_out_events() + fleet_.scale_in_events());
}

}  // namespace
}  // namespace ppc::cloud
