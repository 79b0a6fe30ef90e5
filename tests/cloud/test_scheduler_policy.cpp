#include "cloud/scheduler_policy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace ppc::cloud {
namespace {

PolicyRequest request(Seconds t1, Seconds deadline) {
  PolicyRequest r;
  r.t1_seconds = t1;
  r.deadline = deadline;
  r.efficiency = 1.0;
  return r;
}

TEST(SchedulerPolicyTest, SizesSmallestFleetMeetingDeadline) {
  // 80000 s of sequential work, 1 h deadline, 8-core HCXL at eff 1.0:
  // ceil(80000 / (3600 * 8)) = 3 instances, makespan ~3333 s.
  SchedulerPolicy policy(request(80000.0, 3600.0));
  const FleetPlan p = policy.plan(ec2_hcxl());
  ASSERT_TRUE(p.feasible) << p.note;
  EXPECT_EQ(p.instances, 3);
  EXPECT_NEAR(p.est_makespan, 80000.0 / (3 * 8), 1e-6);
  EXPECT_LE(p.est_makespan, 3600.0);
  // One billed hour x 3 on-demand HCXL.
  EXPECT_NEAR(p.est_cost, 3 * 0.68, 1e-9);
}

TEST(SchedulerPolicyTest, EfficiencyInflatesTheFleet) {
  PolicyRequest r = request(80000.0, 3600.0);
  r.efficiency = 0.5;  // half the useful work per core -> twice the cores
  const FleetPlan p = SchedulerPolicy(r).plan(ec2_hcxl());
  ASSERT_TRUE(p.feasible);
  EXPECT_EQ(p.instances, 6);
}

TEST(SchedulerPolicyTest, NoDeadlineMeansMinimumFleet) {
  SchedulerPolicy policy(request(80000.0, -1.0));
  const FleetPlan p = policy.plan(ec2_hcxl());
  ASSERT_TRUE(p.feasible);
  EXPECT_EQ(p.instances, 1);
}

TEST(SchedulerPolicyTest, DeadlineInfeasiblePastMaxInstances) {
  PolicyRequest r = request(1.0e7, 3600.0);
  r.max_instances = 16;
  const FleetPlan p = SchedulerPolicy(r).plan(ec2_hcxl());
  EXPECT_FALSE(p.feasible);
  EXPECT_EQ(p.note, "deadline");
  // The plan reports the best it could do at the clamp.
  EXPECT_EQ(p.instances, 16);
  EXPECT_GT(p.est_makespan, 3600.0);
}

TEST(SchedulerPolicyTest, MemoryFilterRejectsThinTypes) {
  PolicyRequest r = request(80000.0, 3600.0);
  r.min_memory_per_core_gb = 1.0;
  SchedulerPolicy policy(r);
  // HCXL: 7 GB / 8 cores = 0.875 GB/core -> rejected (the §5.1 BLAST
  // database concern); HM4XL: 68.4 / 8 = 8.55 GB/core -> fine.
  EXPECT_EQ(policy.plan(ec2_hcxl()).note, "memory");
  EXPECT_TRUE(policy.plan(ec2_hm4xl()).feasible);
}

TEST(SchedulerPolicyTest, BudgetRejectsExpensivePlans) {
  PolicyRequest r = request(80000.0, 3600.0);
  r.budget = 1.0;  // 3 HCXL-hours cost $2.04
  const FleetPlan p = SchedulerPolicy(r).plan(ec2_hcxl());
  EXPECT_FALSE(p.feasible);
  EXPECT_EQ(p.note, "budget");
}

TEST(SchedulerPolicyTest, SpotMixDiscountsTheBlendedRate) {
  PolicyRequest r = request(80000.0, 3600.0);
  r.spot_fraction = 0.5;
  const FleetPlan p = SchedulerPolicy(r).plan(ec2_hcxl());
  ASSERT_TRUE(p.feasible);
  EXPECT_EQ(p.instances, 3);
  EXPECT_EQ(p.spot_instances, 1);  // floor(3 * 0.5)
  EXPECT_EQ(p.on_demand_instances(), 2);
  // 2 on-demand + 1 spot at 30% of the rate, one billed hour.
  EXPECT_NEAR(p.est_cost, (2 + 0.3) * 0.68, 1e-9);

  const FleetPlan all_od = SchedulerPolicy(request(80000.0, 3600.0)).plan(ec2_hcxl());
  EXPECT_LT(p.est_cost, all_od.est_cost);
}

TEST(SchedulerPolicyTest, CheapestSweepsTheCatalogAndReportsWinner) {
  SchedulerPolicy policy(request(200000.0, 7200.0));
  const FleetPlan best = policy.cheapest(ec2_catalog());
  ASSERT_TRUE(best.feasible) << best.note;
  for (const InstanceType& type : ec2_catalog()) {
    const FleetPlan p = policy.plan(type);
    if (p.feasible) {
      EXPECT_LE(best.est_cost, p.est_cost) << type.name;
    }
  }
}

TEST(SchedulerPolicyTest, CheapestTieBreaksByFewerInstancesThenName) {
  // A job small enough for one instance of either type: EC2-XL and
  // EC2-HCXL both plan 1 instance x 1 hour x $0.68 — a dead tie on cost
  // and count, so the name order decides ("EC2-HCXL" < "EC2-XL").
  SchedulerPolicy policy(request(10000.0, 3600.0));
  const FleetPlan xl = policy.plan(ec2_xlarge());
  const FleetPlan hcxl = policy.plan(ec2_hcxl());
  ASSERT_TRUE(xl.feasible);
  ASSERT_TRUE(hcxl.feasible);
  ASSERT_EQ(xl.est_cost, hcxl.est_cost);
  ASSERT_EQ(xl.instances, hcxl.instances);
  const FleetPlan best = policy.cheapest({ec2_xlarge(), ec2_hcxl()});
  EXPECT_EQ(best.type.name, "EC2-HCXL");
}

TEST(SchedulerPolicyTest, CheapestWithNoFeasibleTypeSaysSo) {
  PolicyRequest r = request(1.0e9, 60.0);
  r.max_instances = 2;
  const FleetPlan best = SchedulerPolicy(r).cheapest(ec2_catalog());
  EXPECT_FALSE(best.feasible);
  EXPECT_EQ(best.note, "no feasible type");
}

TEST(SchedulerPolicyTest, RejectsBadRequests) {
  PolicyRequest none;
  EXPECT_THROW(SchedulerPolicy{none}, InvalidArgument);  // T1 missing
  PolicyRequest bad_eff = request(100.0, -1.0);
  bad_eff.efficiency = 1.5;
  EXPECT_THROW(SchedulerPolicy{bad_eff}, InvalidArgument);
}

}  // namespace
}  // namespace ppc::cloud
