#include "core/drivers.h"

#include <gtest/gtest.h>

#include "classiccloud/worker.h"
#include "common/error.h"
#include "mapreduce/job.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"

namespace ppc::core {
namespace {

SimRunParams quiet_params(unsigned seed = 42) {
  SimRunParams params;
  params.seed = seed;
  params.provider_variability = false;  // determinism across comparisons
  return params;
}

TEST(ClassicCloudDriver, CompletesAllTasks) {
  const Workload w = make_cap3_workload(32, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_classic_cloud_sim(w, d, model, quiet_params());
  EXPECT_EQ(r.completed, 32);
  EXPECT_EQ(r.duplicate_executions, 0);  // visibility timeout far above task time
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_EQ(r.exec_times.count(), 32u);
  EXPECT_EQ(r.framework, "ClassicCloud-EC2");
}

TEST(ClassicCloudDriver, MakespanAtLeastTwoWaves) {
  // 32 tasks on 16 workers: at least two execution waves.
  const Workload w = make_cap3_workload(32, 458);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_classic_cloud_sim(w, d, model, quiet_params());
  const double per_task = model.cap3.expected_seconds(458, d.type);
  EXPECT_GE(r.makespan, 2 * per_task * 0.9);
  EXPECT_LT(r.makespan, 3 * per_task);
}

TEST(ClassicCloudDriver, CostsMatchFleetBilling) {
  const Workload w = make_cap3_workload(16, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_classic_cloud_sim(w, d, model, quiet_params());
  // Under an hour: 2 HCXL x $0.68.
  EXPECT_NEAR(r.compute_cost_hour_units, 1.36, 1e-9);
  EXPECT_GT(r.compute_cost_amortized, 0.0);
  EXPECT_LT(r.compute_cost_amortized, r.compute_cost_hour_units);
  EXPECT_GT(r.queue_request_cost, 0.0);
  EXPECT_GT(r.bytes_in, 0.0);
  EXPECT_GT(r.bytes_out, 0.0);
}

TEST(ClassicCloudDriver, AzureFrameworkLabel) {
  const Workload w = make_cap3_workload(8, 200);
  const Deployment d = make_deployment(cloud::azure_small(), 8, 1);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_classic_cloud_sim(w, d, model, quiet_params());
  EXPECT_EQ(r.framework, "ClassicCloud-Azure");
  EXPECT_EQ(r.completed, 8);
}

TEST(ClassicCloudDriver, ShortVisibilityTimeoutCausesDuplicates) {
  const Workload w = make_cap3_workload(16, 458);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = quiet_params();
  params.visibility_timeout = 30.0;  // far below the ~110 s task time
  const RunResult r = run_classic_cloud_sim(w, d, model, params);
  EXPECT_EQ(r.completed, 16) << "duplicates must not prevent completion";
  EXPECT_GT(r.duplicate_executions, 0) << "timed-out tasks get re-executed";
}

TEST(ClassicCloudDriver, WorkerCrashesDoNotLoseTasks) {
  const Workload w = make_cap3_workload(24, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = quiet_params();
  runtime::FaultInjector faults;
  faults.arm_plan(runtime::FaultPlan{}.crash(classiccloud::sites::kAfterExecute, -1, 0.08));
  params.faults = &faults;
  params.visibility_timeout = 300.0;  // crashed tasks resurface
  const RunResult r = run_classic_cloud_sim(w, d, model, params);
  EXPECT_EQ(r.completed, 24);
}

TEST(ClassicCloudDriver, EfficiencyReasonableAndBelowOne) {
  const Workload w = make_cap3_workload(256, 458);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 16, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_classic_cloud_sim(w, d, model, quiet_params());
  EXPECT_GT(r.parallel_efficiency, 0.5);
  EXPECT_LE(r.parallel_efficiency, 1.0);
  EXPECT_GT(r.per_core_task_seconds, 0.0);
}

TEST(MapReduceDriver, CompletesAllTasks) {
  const Workload w = make_cap3_workload(64, 458);
  const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), 4, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_mapreduce_sim(w, d, model, quiet_params());
  EXPECT_EQ(r.completed, 64);
  EXPECT_EQ(r.framework, "Hadoop");
  EXPECT_EQ(r.scheduler_stats.completed_tasks, 64);
  EXPECT_DOUBLE_EQ(r.compute_cost_hour_units, 0.0);  // bare metal
}

TEST(MapReduceDriver, LocalityDominatesWithReplication3) {
  const Workload w = make_cap3_workload(128, 200);
  const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), 4, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_mapreduce_sim(w, d, model, quiet_params());
  // Replication 3 over 4 nodes: most assignments should be data-local.
  EXPECT_GT(r.scheduler_stats.local_assignments, r.scheduler_stats.remote_assignments * 3);
}

TEST(MapReduceDriver, TaskFailuresAreRetriedToCompletion) {
  const Workload w = make_cap3_workload(48, 200);
  const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), 4, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = quiet_params();
  runtime::FaultInjector faults;
  faults.arm_plan(runtime::FaultPlan{}.crash(mapreduce::sites::kMapAttempt, -1, 0.15));
  params.faults = &faults;
  const RunResult r = run_mapreduce_sim(w, d, model, params);
  EXPECT_EQ(r.completed, 48);
  EXPECT_GT(r.scheduler_stats.failed_attempts, 0);
}

TEST(MapReduceDriver, SpeculativeExecutionCutsStragglerTail) {
  const Workload w = make_cap3_workload(96, 458);
  const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), 4, 8);
  const ExecutionModel model(AppKind::kCap3);

  SimRunParams with_spec = quiet_params(7);
  with_spec.straggler_prob = 0.05;
  with_spec.straggler_factor = 8.0;
  const RunResult speculative = run_mapreduce_sim(w, d, model, with_spec);

  SimRunParams without_spec = with_spec;
  without_spec.scheduler.speculative_execution = false;
  const RunResult plain = run_mapreduce_sim(w, d, model, without_spec);

  EXPECT_EQ(speculative.completed, 96);
  EXPECT_EQ(plain.completed, 96);
  EXPECT_GT(speculative.scheduler_stats.speculative_assignments, 0);
  EXPECT_LT(speculative.makespan, plain.makespan)
      << "duplicate execution of stragglers must shorten the tail";
}

TEST(DryadDriver, CompletesAllTasks) {
  const Workload w = make_cap3_workload(64, 458);
  const Deployment d = make_deployment(cloud::bare_metal_hpcs_node(), 4, 16);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_dryad_sim(w, d, model, quiet_params());
  EXPECT_EQ(r.completed, 64);
  EXPECT_EQ(r.framework, "DryadLINQ");
  EXPECT_GT(r.local_reads, 0u);  // pre-distributed partitions read locally
}

TEST(DryadDriver, StaticPartitioningHurtsOnInhomogeneousData) {
  // The paper's [13] finding behind §4.2: Hadoop's dynamic scheduling
  // load-balances inhomogeneous data better than Dryad's static partitions.
  // Enough waves for packing to matter, plus occasional stragglers that a
  // static partition cannot route around (Hadoop speculates; Dryad's node
  // queue just stalls behind them).
  const Workload w = make_blast_workload(512, 100, 11);
  const ExecutionModel model(AppKind::kBlast);
  const Deployment nodes8 = make_deployment(cloud::bare_metal_idataplex_node(), 8, 8);

  SimRunParams params = quiet_params(3);
  params.straggler_prob = 0.03;
  params.straggler_factor = 5.0;
  const RunResult hadoop = run_mapreduce_sim(w, nodes8, model, params);
  const RunResult dryad = run_dryad_sim(w, nodes8, model, params);
  EXPECT_EQ(hadoop.completed, 512);
  EXPECT_EQ(dryad.completed, 512);
  EXPECT_GT(dryad.makespan, hadoop.makespan)
      << "static partitioning should lose to dynamic global-queue scheduling";
}

TEST(DryadDriver, LptPartitioningBeatsRoundRobinOnSkew) {
  const Workload w = make_blast_workload(128, 100, 11);
  const ExecutionModel model(AppKind::kBlast);
  const Deployment d = make_deployment(cloud::bare_metal_hpcs_node(), 8, 16);

  SimRunParams rr = quiet_params(5);
  const RunResult round_robin = run_dryad_sim(w, d, model, rr);
  SimRunParams lpt = quiet_params(5);
  lpt.dryad_partition_by_size = true;
  const RunResult by_size = run_dryad_sim(w, d, model, lpt);
  EXPECT_EQ(round_robin.completed, 128);
  EXPECT_EQ(by_size.completed, 128);
  // Note: sizes are uniform in this workload but work factors are not, so
  // by-size LPT cannot fix runtime skew — it must not be *worse* though.
  EXPECT_LE(by_size.makespan, round_robin.makespan * 1.1);
}

TEST(Drivers, MetricsEquationsHold) {
  const Workload w = make_cap3_workload(64, 458);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  RunResult r = run_classic_cloud_sim(w, d, model, quiet_params());
  // Recompute Equations 1 and 2 by hand.
  double t1 = 0.0;
  for (const SimTask& t : w.tasks) t1 += model.expected_sequential(t, d.type);
  EXPECT_NEAR(r.t1_seconds, t1, 1e-9);
  EXPECT_NEAR(r.parallel_efficiency, t1 / (16.0 * r.makespan), 1e-9);
  EXPECT_NEAR(r.per_core_task_seconds, r.makespan * 16.0 / 64.0, 1e-9);
}

TEST(Drivers, DeterministicGivenSeed) {
  const Workload w = make_cap3_workload(32, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult a = run_classic_cloud_sim(w, d, model, quiet_params(123));
  const RunResult b = run_classic_cloud_sim(w, d, model, quiet_params(123));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.compute_cost_amortized, b.compute_cost_amortized);
}

TEST(Drivers, EmptyWorkloadRejected) {
  Workload w;
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 1, 1);
  const ExecutionModel model(AppKind::kCap3);
  EXPECT_THROW(run_classic_cloud_sim(w, d, model, quiet_params()), ppc::InvalidArgument);
  EXPECT_THROW(run_mapreduce_sim(w, d, model, quiet_params()), ppc::InvalidArgument);
  EXPECT_THROW(run_dryad_sim(w, d, model, quiet_params()), ppc::InvalidArgument);
}

TEST(ClassicCloudDriver, RejectsStallOnAWorkerTheDeploymentLacks) {
  const Workload w = make_cap3_workload(8, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 4);  // workers 0..7
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = quiet_params();
  params.stall_at = 100.0;
  params.stall_duration = 120.0;
  params.stall_worker = 8;
  EXPECT_THROW(run_classic_cloud_sim(w, d, model, params), ppc::InvalidArgument);
  params.stall_worker = 7;
  EXPECT_EQ(run_classic_cloud_sim(w, d, model, params).completed, 8);
  params.stall_worker = 99;
  params.stall_at = -1.0;  // not armed: the worker index is never consulted
  EXPECT_EQ(run_classic_cloud_sim(w, d, model, params).completed, 8);
}

}  // namespace
}  // namespace ppc::core
