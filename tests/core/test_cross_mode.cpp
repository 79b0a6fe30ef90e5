// Cross-mode agreement: one FaultPlan means the same to a real-thread engine
// (sim::run_engine) as to its DES driver (core::simulate). Each side gets
// its own FaultInjector armed with the same plan, and a 1-node x 1-slot Cap3
// job runs in both modes. The scheduler is the same state machine in both,
// one slot serialises the attempts, and a plan's decisions depend only on
// each site's firing order, so both sides must fire the attempt site as
// often, fail as many attempts, and complete as many tasks.
//
// One node also keeps speculation out of both: the scheduler only twins a
// task on a node other than the one running it (the DES side turns it off
// explicitly). run_engine resets its injector before returning, so the real
// side's site firings are read from the engine's attempt counter: both
// engines fire their attempt site once per attempt, before its body.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/instance_types.h"
#include "core/drivers.h"
#include "dryad/runtime.h"
#include "mapreduce/job.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"
#include "runtime/metrics.h"
#include "sim/app_job.h"
#include "sim/engine_run.h"

namespace ppc::core {
namespace {

struct PlanCase {
  std::string name;
  runtime::FaultPlan plan;
  bool job_fails = false;
};

/// What one side reports: site firings, failing faults, failed attempts
/// (-1 where the side does not report them) and completed tasks.
struct Side {
  std::int64_t hits = 0;
  std::int64_t crashes_and_errors = 0;
  std::int64_t failed_attempts = -1;
  int completed = 0;
  bool succeeded = false;
};

constexpr int kMaxAttempts = 6;  // EngineRunSpec's default per-task budget

Side run_real(const std::string& substrate, int files, const runtime::FaultPlan& plan,
              const std::string& attempts_counter) {
  runtime::FaultInjector faults;
  sim::EngineRunSpec spec;
  spec.substrate = substrate;
  spec.num_workers = 1;
  spec.slots_per_node = 1;
  spec.max_attempts = kMaxAttempts;
  spec.metrics = std::make_shared<runtime::MetricsRegistry>();
  spec.faults = &faults;
  spec.plan = &plan;
  const sim::EngineRun run = sim::run_engine(spec, sim::make_app_job("cap3", files));
  Side s;
  s.hits = spec.metrics->counter_value(attempts_counter);
  s.crashes_and_errors = run.tally.crashes + run.tally.errors;
  s.failed_attempts = run.tally.redeliveries;
  s.completed = static_cast<int>(run.outputs.size());
  s.succeeded = run.succeeded;
  return s;
}

Side run_des(const std::string& framework, int files, const runtime::FaultPlan& plan,
             const std::string& site) {
  runtime::FaultInjector faults;
  faults.arm_plan(plan);
  SimRunParams params;
  params.seed = 7;
  params.faults = &faults;
  params.scheduler.speculative_execution = false;
  params.scheduler.max_attempts = kMaxAttempts;
  const RunResult r = simulate(framework, make_cap3_workload(files, 200),
                               make_deployment(cloud::bare_metal_cap3_node(), 1, 1), params);
  Side s;
  s.hits = faults.hits(site);
  s.crashes_and_errors = faults.total_crashes() + faults.total_errors();
  if (framework == "hadoop") s.failed_attempts = r.scheduler_stats.failed_attempts;
  s.completed = r.completed;
  s.succeeded = r.completed == r.tasks;
  return s;
}

void expect_agreement(const PlanCase& pc, const Side& real, const Side& des) {
  SCOPED_TRACE(pc.name);
  EXPECT_GT(real.hits, 0);
  EXPECT_EQ(real.hits, des.hits);
  EXPECT_EQ(real.crashes_and_errors, des.crashes_and_errors);
  EXPECT_EQ(real.completed, des.completed);
  if (real.failed_attempts >= 0 && des.failed_attempts >= 0) {
    EXPECT_EQ(real.failed_attempts, des.failed_attempts);
  }
  EXPECT_EQ(real.succeeded, !pc.job_fails);
  EXPECT_EQ(des.succeeded, !pc.job_fails);
}

TEST(CrossMode, MapReduceAgreesWithItsDesDriver) {
  const std::string& site = mapreduce::sites::kMapAttempt;
  const int files = 4;
  std::vector<PlanCase> cases(4);
  cases[0] = {"third attempt crashes", {}};
  cases[0].plan.crash(site, /*budget=*/1, 1.0, /*skip_first=*/2);
  cases[1] = {"first two attempts error", {}};
  cases[1].plan.error(site, "injected", /*budget=*/2);
  cases[2] = {"every attempt crashes", {}, /*job_fails=*/true};
  cases[2].plan.crash(site, /*budget=*/-1);
  cases[3] = {"every attempt stalls", {}};
  cases[3].plan.delay(site, 0.001, /*budget=*/-1);
  for (const PlanCase& pc : cases) {
    const Side real = run_real("mapreduce", files, pc.plan, "mapreduce.attempts");
    const Side des = run_des("hadoop", files, pc.plan, site);
    expect_agreement(pc, real, des);
  }
  // The exhausting plan fails every task's full attempt budget.
  EXPECT_EQ(run_des("hadoop", files, cases[2].plan, site).hits, files * kMaxAttempts);
}

TEST(CrossMode, DryadAgreesWithItsDesDriver) {
  // The real engine runs one vertex per node (a node's partition) and the
  // DES one vertex per task: a one-file job makes the two the same vertex.
  const std::string& site = dryad::sites::kVertexAttempt;
  const int files = 1;
  std::vector<PlanCase> cases(3);
  cases[0] = {"second attempt crashes after an error", {}};
  cases[0].plan.crash(site, /*budget=*/1, 1.0, /*skip_first=*/1).error(site, "injected", 1);
  cases[1] = {"first two attempts error", {}};
  cases[1].plan.error(site, "injected", /*budget=*/2);
  cases[2] = {"every attempt crashes", {}, /*job_fails=*/true};
  cases[2].plan.crash(site, /*budget=*/-1);
  for (const PlanCase& pc : cases) {
    const Side real = run_real("dryad", files, pc.plan, "dryad.vertex_attempts");
    const Side des = run_des("dryad", files, pc.plan, site);
    expect_agreement(pc, real, des);
  }
  EXPECT_EQ(run_des("dryad", files, cases[2].plan, site).hits,
            dryad::RuntimeConfig{}.max_attempts);
}

}  // namespace
}  // namespace ppc::core
