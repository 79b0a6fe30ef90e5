// core::simulate, the one DES entry point every figure, ablation, verb and
// example runs through: for each framework it must report exactly what the
// matching driver entry point reports with the app's default model, and it
// owns the framework-name and elastic-fleet checks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "core/drivers.h"

#include "golden.h"

namespace ppc::core {
namespace {

/// Every RunResult field as canonical `<case>.<field> = <value>` lines.
std::vector<std::string> fields(const std::string& name, const RunResult& r) {
  golden::Canon c(name);
  golden::put_result(c, r);
  return golden::split_lines(c.text());
}

void expect_same_result(const std::string& name, const RunResult& via_simulate,
                        const RunResult& direct) {
  const std::vector<std::string> got = fields(name, via_simulate);
  const std::vector<std::string> want = fields(name, direct);
  ASSERT_EQ(got.size(), want.size()) << name;
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]) << name;
}

void expect_same_stats(const ElasticRunStats& a, const ElasticRunStats& b) {
  EXPECT_EQ(a.peak_instances, b.peak_instances);
  EXPECT_EQ(a.scale_out_events, b.scale_out_events);
  EXPECT_EQ(a.scale_in_events, b.scale_in_events);
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_EQ(a.hard_kills, b.hard_kills);
  EXPECT_EQ(a.drains_completed, b.drains_completed);
  EXPECT_EQ(a.total_drain_seconds, b.total_drain_seconds);
  EXPECT_EQ(a.stale_terminates, b.stale_terminates);
  EXPECT_EQ(a.cost_on_demand, b.cost_on_demand);
  EXPECT_EQ(a.cost_spot, b.cost_spot);
  EXPECT_EQ(a.cost_on_demand_equivalent, b.cost_on_demand_equivalent);
  ASSERT_EQ(a.fleet_size_series.size(), b.fleet_size_series.size());
  for (std::size_t i = 0; i < a.fleet_size_series.size(); ++i) {
    EXPECT_EQ(a.fleet_size_series[i].t, b.fleet_size_series[i].t) << i;
    EXPECT_EQ(a.fleet_size_series[i].active, b.fleet_size_series[i].active) << i;
    EXPECT_EQ(a.fleet_size_series[i].spot, b.fleet_size_series[i].spot) << i;
  }
}

SimRunParams seeded(unsigned seed) {
  SimRunParams params;
  params.seed = seed;
  params.record_trace = true;  // compare the per-task intervals too
  return params;
}

TEST(Simulate, MatchesTheEntryPoints) {
  struct Case {
    std::string name;
    std::string framework;
    Workload workload;
    Deployment deployment;
    SimRunParams params;
  };
  SimRunParams sharedfs = seeded(5);
  sharedfs.storage = storage::StorageKind::kSharedFs;
  SimRunParams stragglers = seeded(9);
  stragglers.straggler_prob = 0.2;
  SimRunParams staged = seeded(3);
  staged.storage = storage::StorageKind::kParallelFs;
  staged.stage_inputs = true;
  const std::vector<Case> cases = {
      {"classic_cap3", "classic", make_cap3_workload(16, 200),
       make_deployment(cloud::ec2_hcxl(), 2, 4), seeded(42)},
      {"classic_blast_sharedfs", "classic", make_blast_workload(12, 50, 5),
       make_deployment(cloud::azure_large(), 2, 4), sharedfs},
      {"classic_gtm", "classic", make_gtm_workload(10, 20000),
       make_deployment(cloud::azure_small(), 4, 1), seeded(7)},
      {"hadoop_cap3_stragglers", "hadoop", make_cap3_workload(24, 200),
       make_deployment(cloud::bare_metal_idataplex_node(), 2, 8), stragglers},
      {"hadoop_gtm", "hadoop", make_gtm_workload(12, 20000),
       make_deployment(cloud::bare_metal_gtm_hadoop_node(), 2, 8), seeded(11)},
      {"dryad_blast_staged", "dryad", make_blast_workload(16, 50, 2),
       make_deployment(cloud::bare_metal_hpcs_node(), 2, 16), staged},
      {"dryad_cap3", "dryad", make_cap3_workload(20, 200),
       make_deployment(cloud::bare_metal_cap3_node(), 2, 8), seeded(13)},
  };
  for (const Case& c : cases) {
    const ExecutionModel model(c.workload.app);
    const RunResult direct =
        c.framework == "hadoop"  ? run_mapreduce_sim(c.workload, c.deployment, model, c.params)
        : c.framework == "dryad" ? run_dryad_sim(c.workload, c.deployment, model, c.params)
                                 : run_classic_cloud_sim(c.workload, c.deployment, model, c.params);
    expect_same_result(c.name, simulate(c.framework, c.workload, c.deployment, c.params), direct);
  }

  // An autoscaled half-spot fleet under one revocation storm.
  const Workload w = make_cap3_workload(60, 200);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 4, 4);
  ElasticSimParams elastic;
  elastic.autoscaler.min_instances = 1;
  elastic.autoscaler.max_instances = 4;
  elastic.storm_times = {400.0};
  elastic.revocation_rate = 0.5;
  const SimRunParams params = seeded(17);
  ElasticRunStats direct_stats, stats;
  const RunResult direct = run_elastic_classic_sim(w, d, ExecutionModel(w.app), params, elastic,
                                                   &direct_stats);
  expect_same_result("classic_elastic", simulate("classic", w, d, params, &elastic, &stats),
                     direct);
  expect_same_stats(stats, direct_stats);
  EXPECT_GT(stats.scale_out_events, 0);  // the fleet really was elastic
}

TEST(Simulate, RejectsUnknownFrameworkAndElasticOffClassic) {
  const Workload w = make_cap3_workload(4, 100);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 1, 2);
  const SimRunParams params = seeded(1);
  try {
    (void)simulate("mesos", w, d, params);
    FAIL() << "an unknown framework must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "unknown framework: mesos");
  }
  const ElasticSimParams elastic;
  EXPECT_THROW((void)simulate("hadoop", w, d, params, &elastic), InvalidArgument);
  EXPECT_THROW((void)simulate("dryad", w, d, params, &elastic), InvalidArgument);
  EXPECT_EQ(simulate("classic", w, d, params, &elastic).completed, 4);
}

}  // namespace
}  // namespace ppc::core
