// DES liveness oracle: under every FaultPlan action, armed on every fault
// site a DES driver fires, with probability 0.3 and 1.0 and no budget cap,
// each driver returns without throwing and reports honestly -- every task
// completed, or a shortfall. Delays are simulated time: the wall clock
// never waits for them, while the simulated makespan grows when they land
// on an attempt. The spot-revocation and node-heartbeat sites carry no
// attempt, so a delay there changes nothing.
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "classiccloud/worker.h"
#include "cloud/fleet.h"
#include "cloud/instance_types.h"
#include "core/drivers.h"
#include "dryad/runtime.h"
#include "mapreduce/job.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"

namespace ppc::core {
namespace {

using runtime::FaultAction;

/// Per delayed firing; a driver that slept it would fail the wall-time check.
constexpr Seconds kDelay = 2.0;

struct Driver {
  std::string framework;
  Deployment deployment;
  SimRunParams params;
  const ElasticSimParams* elastic = nullptr;
  std::vector<std::string> attempt_sites;  // a delay there lengthens an attempt
  std::vector<std::string> other_sites;    // no attempt to lengthen
};

runtime::FaultPlan plan_for(FaultAction action, const std::string& site, double p) {
  runtime::FaultPlan plan;
  plan.seed = 11;
  switch (action) {
    case FaultAction::kCrash: plan.crash(site, -1, p); break;
    case FaultAction::kDelay: plan.delay(site, kDelay, -1, p); break;
    case FaultAction::kError: plan.error(site, "injected", -1, p); break;
    case FaultAction::kCorrupt: plan.corrupt(site, -1, p); break;
    case FaultAction::kRevokeSpot: plan.revoke_spot(site, -1, p); break;
  }
  return plan;
}

void expect_live(const Driver& driver) {
  const Workload w = make_cap3_workload(24, 200);
  const RunResult base = simulate(driver.framework, w, driver.deployment, driver.params,
                                  driver.elastic);
  ASSERT_EQ(base.completed, base.tasks);

  std::vector<std::pair<std::string, bool>> sites;
  for (const std::string& s : driver.attempt_sites) sites.emplace_back(s, true);
  for (const std::string& s : driver.other_sites) sites.emplace_back(s, false);
  for (const auto& [site, attempt_site] : sites) {
    for (const FaultAction action : {FaultAction::kCrash, FaultAction::kError,
                                     FaultAction::kCorrupt, FaultAction::kRevokeSpot,
                                     FaultAction::kDelay}) {
      for (const double p : {0.3, 1.0}) {
        SCOPED_TRACE(site + " " + runtime::fault_action_name(action) + " p=" +
                     std::to_string(p));
        runtime::FaultInjector faults;
        faults.arm_plan(plan_for(action, site, p));
        SimRunParams params = driver.params;
        params.faults = &faults;
        RunResult r;
        const auto t0 = std::chrono::steady_clock::now();
        EXPECT_NO_THROW(r = simulate(driver.framework, w, driver.deployment, params,
                                     driver.elastic));
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        EXPECT_GT(faults.hits(site), 0);
        EXPECT_EQ(r.tasks, 24);
        EXPECT_GE(r.completed, 0);
        EXPECT_LE(r.completed, r.tasks);
        EXPECT_EQ(r.exec_times.count(), static_cast<std::size_t>(r.completed));
        if (action != FaultAction::kDelay) continue;
        EXPECT_GT(faults.total_delays(), 0);
        EXPECT_LT(wall, kDelay) << "a simulated delay slept on the wall clock";
        EXPECT_EQ(r.completed, r.tasks);
        if (attempt_site) {
          EXPECT_GT(r.makespan, base.makespan);
        } else {
          EXPECT_EQ(r.makespan, base.makespan);
        }
      }
    }
  }
}

SimRunParams seeded(unsigned seed) {
  SimRunParams p;
  p.seed = seed;
  return p;
}

TEST(DesLiveness, ClassicFinishesOrReportsTheShortfall) {
  expect_live({"classic", make_deployment(cloud::ec2_hcxl(), 2, 2), seeded(3), nullptr,
               {classiccloud::sites::kAfterExecute}, {}});
}

TEST(DesLiveness, ElasticFinishesOrReportsTheShortfall) {
  ElasticSimParams elastic;
  elastic.autoscaler.max_instances = 4;
  elastic.autoscaler.min_instances = 2;
  expect_live({"classic", make_deployment(cloud::ec2_hcxl(), 4, 2), seeded(4), &elastic,
               {classiccloud::sites::kAfterExecute}, {cloud::sites::kSpotRevoke}});
}

TEST(DesLiveness, MapReduceFinishesOrReportsTheShortfall) {
  expect_live({"hadoop", make_deployment(cloud::bare_metal_cap3_node(), 4, 2), seeded(5),
               nullptr, {mapreduce::sites::kMapAttempt}, {sites::kNodeHeartbeat}});
}

TEST(DesLiveness, DryadFinishesOrReportsTheShortfall) {
  expect_live({"dryad", make_deployment(cloud::bare_metal_cap3_node(), 4, 2), seeded(7),
               nullptr, {dryad::sites::kVertexAttempt}, {}});
}

}  // namespace
}  // namespace ppc::core
