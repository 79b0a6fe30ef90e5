// Validity tests of the discrete-event drivers via the execution trace:
// every counted task appears exactly once, all intervals lie within the
// run, and — the strongest invariant — no worker slot ever executes two
// tasks at the same time.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/drivers.h"

namespace ppc::core {
namespace {

SimRunParams traced(unsigned seed) {
  SimRunParams p;
  p.seed = seed;
  p.provider_variability = false;
  p.record_trace = true;
  return p;
}

void check_trace_invariants(const RunResult& r, int num_tasks) {
  // Every task counted exactly once.
  std::set<int> counted;
  for (const auto& e : r.trace) {
    EXPECT_LE(e.exec_start, e.exec_end);
    EXPECT_GE(e.exec_start, 0.0);
    if (e.counted) {
      // Late duplicates (lost speculative twins, redeliveries) may outlive
      // the makespan; winning executions must not.
      EXPECT_LE(e.exec_end, r.makespan + 1e-6) << "counted execution past the makespan";
      EXPECT_TRUE(counted.insert(e.task_id).second) << "task counted twice: " << e.task_id;
    }
  }
  EXPECT_EQ(counted.size(), static_cast<std::size_t>(num_tasks));

  // Per-worker intervals must not overlap: a slot is one core.
  std::map<int, std::vector<std::pair<Seconds, Seconds>>> by_worker;
  for (const auto& e : r.trace) by_worker[e.worker].emplace_back(e.exec_start, e.exec_end);
  for (auto& [worker, intervals] : by_worker) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9)
          << "worker " << worker << " ran two tasks concurrently";
    }
  }
}

TEST(TraceInvariants, ClassicCloud) {
  const Workload w = make_cap3_workload(64, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  const RunResult r = run_classic_cloud_sim(w, d, model, traced(3));
  ASSERT_FALSE(r.trace.empty());
  check_trace_invariants(r, 64);
}

TEST(TraceInvariants, ClassicCloudWithDuplicates) {
  const Workload w = make_cap3_workload(24, 458);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = traced(5);
  params.visibility_timeout = 40.0;  // forces redeliveries
  const RunResult r = run_classic_cloud_sim(w, d, model, params);
  EXPECT_GT(r.duplicate_executions, 0);
  // Duplicates appear in the trace as uncounted entries.
  int uncounted = 0;
  for (const auto& e : r.trace) {
    if (!e.counted) ++uncounted;
  }
  EXPECT_EQ(uncounted, r.duplicate_executions);
  check_trace_invariants(r, 24);
}

TEST(TraceInvariants, ElasticCloudUnderAStorm) {
  // Workers boot mid-run and die with revoked instances; the ones that
  // remain still never overlap, and every task is counted once.
  const Workload w = make_cap3_workload(200, 458);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 6, 4);
  const ExecutionModel model(AppKind::kCap3);
  ElasticSimParams elastic;
  elastic.autoscaler.min_instances = 2;
  elastic.autoscaler.max_instances = 6;
  elastic.storm_times = {500.0};
  elastic.revocation_rate = 0.6;
  elastic.revocation_notice = 0.0;
  SimRunParams params = traced(21);
  params.visibility_timeout = 900.0;
  ElasticRunStats stats;
  const RunResult r = run_elastic_classic_sim(w, d, model, params, elastic, &stats);
  EXPECT_GT(stats.hard_kills, 0);
  check_trace_invariants(r, 200);
}

TEST(TraceInvariants, MapReduce) {
  const Workload w = make_blast_workload(96, 100, 7);
  const Deployment d = make_deployment(cloud::bare_metal_idataplex_node(), 4, 8);
  const ExecutionModel model(AppKind::kBlast);
  const RunResult r = run_mapreduce_sim(w, d, model, traced(7));
  ASSERT_FALSE(r.trace.empty());
  check_trace_invariants(r, 96);
}

TEST(TraceInvariants, MapReduceWithSpeculation) {
  const Workload w = make_cap3_workload(64, 458);
  const Deployment d = make_deployment(cloud::bare_metal_cap3_node(), 4, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params = traced(9);
  params.straggler_prob = 0.05;
  params.straggler_factor = 8.0;
  const RunResult r = run_mapreduce_sim(w, d, model, params);
  check_trace_invariants(r, 64);
}

TEST(TraceInvariants, Dryad) {
  const Workload w = make_gtm_workload(60);
  const Deployment d = make_deployment(cloud::bare_metal_hpcs_node(), 4, 16);
  const ExecutionModel model(AppKind::kGtm);
  const RunResult r = run_dryad_sim(w, d, model, traced(11));
  ASSERT_FALSE(r.trace.empty());
  check_trace_invariants(r, 60);
  // Static partitioning: every task of a partition runs on slots of its
  // node (slot / workers_per_instance == node of the partition).
  for (const auto& e : r.trace) {
    const int node = e.worker / d.workers_per_instance;
    EXPECT_EQ(node, e.task_id % d.instances)  // round-robin partition layout
        << "task " << e.task_id << " escaped its node";
  }
}

TEST(TraceInvariants, TraceOffByDefault) {
  const Workload w = make_cap3_workload(8, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 1, 8);
  const ExecutionModel model(AppKind::kCap3);
  SimRunParams params;
  params.seed = 13;
  const RunResult r = run_classic_cloud_sim(w, d, model, params);
  EXPECT_TRUE(r.trace.empty());
}

}  // namespace
}  // namespace ppc::core
