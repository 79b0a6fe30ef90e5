// Property sweeps over the discrete-event drivers: whatever the failure
// rates, visibility timeouts or deployment shapes, the frameworks must
// never lose a task, efficiencies must stay in (0, 1], and the accounting
// identities must hold.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "classiccloud/worker.h"
#include "common/error.h"
#include "core/drivers.h"
#include "mapreduce/job.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"

namespace ppc::core {
namespace {

SimRunParams quiet(unsigned seed) {
  SimRunParams p;
  p.seed = seed;
  p.provider_variability = false;
  return p;
}

/// Kills MapReduce node `node` of `nodes` at time `t`, a multiple of the
/// 3 s node-heartbeat period (the first heartbeat is at 3 s).
runtime::FaultPlan node_loss(int node, int nodes, Seconds t) {
  const int skip = (static_cast<int>(t / 3.0) - 1) * nodes + node;
  return runtime::FaultPlan{}.crash(sites::kNodeHeartbeat, /*budget=*/1, 1.0, skip);
}

// --- No task is ever lost, whatever crashes and timeouts do ---

struct FaultMix {
  std::string name;
  double crash_prob;
  double visibility_timeout;
};

// Without this gtest prints the raw bytes of the struct, heap pointer
// included, so the test names ctest records would change with every build.
void PrintTo(const FaultMix& mix, std::ostream* os) {
  *os << mix.name << " (crash " << mix.crash_prob << ", visibility "
      << mix.visibility_timeout << " s)";
}

class ClassicCloudFaultSweep : public ::testing::TestWithParam<FaultMix> {};

TEST_P(ClassicCloudFaultSweep, AllTasksComplete) {
  const FaultMix& mix = GetParam();
  const Workload w = make_cap3_workload(48, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = quiet(11);
  runtime::FaultInjector faults;
  faults.arm_plan(
      runtime::FaultPlan{}.crash(classiccloud::sites::kAfterExecute, -1, mix.crash_prob));
  params.faults = &faults;
  params.visibility_timeout = mix.visibility_timeout;
  const RunResult r = run_classic_cloud_sim(w, d, model, params);
  EXPECT_EQ(r.completed, 48) << mix.name;
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GT(r.parallel_efficiency, 0.0);
  EXPECT_LE(r.parallel_efficiency, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ClassicCloudFaultSweep,
    ::testing::Values(FaultMix{"clean", 0.0, 7200.0},
                      FaultMix{"short_timeout", 0.0, 25.0},
                      FaultMix{"crashy", 0.10, 600.0},
                      FaultMix{"crashy_short_timeout", 0.10, 60.0}),
    [](const ::testing::TestParamInfo<FaultMix>& info) { return info.param.name; });

class MapReduceFailureSweep : public ::testing::TestWithParam<double> {};

TEST_P(MapReduceFailureSweep, AllTasksCompleteDespiteFailures) {
  const Workload w = make_cap3_workload(64, 200);
  const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), 4, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = quiet(13);
  runtime::FaultInjector faults;
  faults.arm_plan(runtime::FaultPlan{}.crash(mapreduce::sites::kMapAttempt, -1, GetParam()));
  params.faults = &faults;
  // Raise the retry budget for the hostile end of the sweep.
  params.scheduler.max_attempts = 8;
  const RunResult r = run_mapreduce_sim(w, d, model, params);
  EXPECT_EQ(r.completed, 64);
  if (GetParam() > 0.0) {
    EXPECT_GT(r.scheduler_stats.failed_attempts, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(FailureProbs, MapReduceFailureSweep,
                         ::testing::Values(0.0, 0.05, 0.15, 0.30),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "p" + std::to_string(static_cast<int>(info.param * 100));
                         });

TEST(MapReduceNodeFailure, JobSurvivesLosingANode) {
  const Workload w = make_cap3_workload(96, 458);
  const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), 4, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = quiet(17);
  runtime::FaultInjector faults;
  faults.arm_plan(node_loss(2, 4, 150.0));  // mid-run: attempts are in flight
  params.faults = &faults;
  const RunResult r = run_mapreduce_sim(w, d, model, params);
  EXPECT_EQ(r.completed, 96) << "every task must be re-run elsewhere";
  EXPECT_GT(r.scheduler_stats.failed_attempts, 0) << "the dead node's attempts were lost";

  // The surviving 3 nodes carry the job: makespan exceeds the no-failure run.
  SimRunParams healthy = quiet(17);
  const RunResult baseline = run_mapreduce_sim(w, d, model, healthy);
  EXPECT_GT(r.makespan, baseline.makespan);
}

TEST(MapReduceNodeFailure, FailureAfterCompletionIsHarmless) {
  const Workload w = make_cap3_workload(16, 200);
  const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), 4, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = quiet(19);
  runtime::FaultInjector faults;
  faults.arm_plan(node_loss(0, 4, 999999.0));  // long after the job drains
  params.faults = &faults;
  const RunResult r = run_mapreduce_sim(w, d, model, params);
  EXPECT_EQ(r.completed, 16);
  EXPECT_EQ(r.scheduler_stats.failed_attempts, 0);
}

TEST(MapReduceNodeFailure, DeadNodeRunsNothingAfterFailure) {
  const Workload w = make_cap3_workload(64, 458);
  const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), 4, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = quiet(23);
  const Seconds fails_at = 120.0;
  runtime::FaultInjector faults;
  faults.arm_plan(node_loss(1, 4, fails_at));
  params.faults = &faults;
  params.record_trace = true;
  const RunResult r = run_mapreduce_sim(w, d, model, params);
  EXPECT_EQ(r.completed, 64);
  for (const auto& e : r.trace) {
    const int node = e.worker / d.workers_per_instance;
    if (node == 1) {
      // Anything credited to node 1 must have finished before it died.
      EXPECT_LE(e.exec_end, fails_at + 1e-6);
    }
  }
}

// --- Accounting identities ---

TEST(DriverProperties, AmortizedNeverExceedsHourUnits) {
  const ExecutionModel model(AppKind::kCap3);
  for (unsigned seed : {1u, 2u, 3u}) {
    const Workload w = make_cap3_workload(32 + 16 * static_cast<int>(seed), 200);
    const Deployment d = make_deployment(cloud::ec2_large(), 4, 2);
    const RunResult r = run_classic_cloud_sim(w, d, model, quiet(seed));
    EXPECT_LE(r.compute_cost_amortized, r.compute_cost_hour_units + 1e-9);
    EXPECT_GT(r.compute_cost_amortized, 0.0);
  }
}

TEST(DriverProperties, TransfersAccountForEveryTask) {
  const Workload w = make_cap3_workload(40, 458);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_classic_cloud_sim(w, d, model, quiet(21));
  Bytes inputs = 0.0, outputs = 0.0;
  for (const SimTask& t : w.tasks) {
    inputs += t.input_size;
    outputs += t.output_size;
  }
  // Uploads: client inputs + worker outputs (exactly once with a generous
  // visibility timeout). Downloads: one input read per completed task.
  EXPECT_NEAR(r.bytes_in, inputs + outputs, 1.0);
  EXPECT_NEAR(r.bytes_out, inputs, 1.0);
}

TEST(DriverProperties, MakespanBoundedByWorkAndWaves) {
  const Workload w = make_cap3_workload(96, 458);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);  // 16 workers
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_classic_cloud_sim(w, d, model, quiet(23));
  const double per_task = model.cap3.expected_seconds(458, d.type);
  // Lower bound: perfect packing of 6 waves; upper: 8 waves + overheads.
  EXPECT_GE(r.makespan, 6.0 * per_task * 0.85);
  EXPECT_LE(r.makespan, 8.0 * per_task * 1.25);
}

TEST(DriverProperties, MoreWorkersNeverSlower) {
  const Workload w = make_cap3_workload(128, 458);
  const ExecutionModel model(AppKind::kCap3);
  double previous = 1e300;
  for (int instances : {2, 4, 8, 16}) {
    const Deployment d = make_deployment(cloud::ec2_hcxl(), instances, 8);
    const RunResult r = run_classic_cloud_sim(w, d, model, quiet(29));
    EXPECT_LT(r.makespan, previous) << instances << " instances";
    previous = r.makespan;
  }
}

TEST(DriverProperties, EfficiencyNormalizesAcrossClockRates) {
  // Eq 1 divides by the same-environment T1, so two environments differing
  // only in clock rate should land on nearly identical efficiency.
  const Workload w = make_cap3_workload(256, 458);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult slow =
      run_classic_cloud_sim(w, make_deployment(cloud::ec2_xlarge(), 4, 4), model, quiet(31));
  const RunResult fast =
      run_classic_cloud_sim(w, make_deployment(cloud::ec2_hm4xl(), 2, 8), model, quiet(31));
  EXPECT_NEAR(slow.parallel_efficiency, fast.parallel_efficiency, 0.05);
}

TEST(DriverProperties, ExecTimesMatchCompletedCount) {
  const Workload w = make_blast_workload(64, 100, 5);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 4, 8);
  const ExecutionModel model(AppKind::kBlast);
  const RunResult r = run_classic_cloud_sim(w, d, model, quiet(37));
  EXPECT_EQ(static_cast<int>(r.exec_times.count()), r.completed);
  EXPECT_GT(r.exec_times.min(), 0.0);
}

TEST(DriverProperties, DryadNodeQueuesConserveTasks) {
  for (int nodes : {3, 7, 16}) {
    const Workload w = make_blast_workload(100, 100, 7);
    const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), nodes, 4);
    const ExecutionModel model(AppKind::kBlast);
    const RunResult r = run_dryad_sim(w, d, model, quiet(41));
    EXPECT_EQ(r.completed, 100) << nodes << " nodes";
  }
}

TEST(DriverProperties, SimRunsAreIndependentOfEachOther) {
  // Running one simulation must not perturb another (no global state).
  const Workload w = make_cap3_workload(32, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult alone = run_classic_cloud_sim(w, d, model, quiet(43));
  (void)run_mapreduce_sim(w, make_deployment(cloud::bare_metal_cap3_node(), 4, 8), model,
                          quiet(44));
  const RunResult again = run_classic_cloud_sim(w, d, model, quiet(43));
  EXPECT_DOUBLE_EQ(alone.makespan, again.makespan);
}

}  // namespace
}  // namespace ppc::core
