// Golden oracle for the MapReduce and Dryad DES drivers, the counterpart of
// test_classic_golden.cpp: the full output of run_mapreduce_sim and
// run_dryad_sim over a grid of parameters — every RunResult field with the
// exec_times samples and the trace, Monitor::to_json(), the published run
// metrics, and the fault injector's per-site counts — compared line by line
// with the checked-in expectation next to this file.
//
// The grid covers map-only jobs (the only kind the MapReduce driver runs),
// speculation on and off, stragglers, FaultPlans (attempt crashes at the
// MapReduce sites, a node loss at the node-heartbeat site), staged BLAST
// inputs with the block cache on and off, and trace recording. The
// reduce-attempt rule and the Dryad cases arm sites the driver does not
// fire, and neither driver models the block cache today; those cases pin
// that, so wiring either in shows up here as an intended difference.
//
// After an intended behaviour change, regenerate the expectation with
//   PPC_UPDATE_GOLDEN=1 ./ppc_tests_core --gtest_filter='DesGolden.*'
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "classiccloud/worker.h"
#include "cloud/instance_types.h"
#include "core/drivers.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"

#include "golden.h"

namespace ppc::core {
namespace {

using golden::Canon;

using Driver = RunResult (*)(const Workload&, const Deployment&, const ExecutionModel&,
                             const SimRunParams&);

/// One grid point: a name, the inputs, and the optional attachments.
struct DesCase {
  std::string name;
  Workload workload;
  Deployment deployment;
  AppKind app = AppKind::kCap3;
  SimRunParams params;
  bool monitor = false;
  bool metrics = false;
  runtime::FaultPlan faults;  // armed when it has rules
};

/// The sites a FaultPlan case arms; their counts are serialised.
const std::vector<std::string> kSites = {mapreduce::sites::kMapAttempt,
                                         mapreduce::sites::kReduceAttempt,
                                         classiccloud::sites::kAfterExecute};

std::string serialise(DesCase dc, Driver run) {
  runtime::MetricsRegistry monitor_registry;
  runtime::MonitorConfig mc;
  mc.period = 120.0;
  mc.scrape_registry = false;
  runtime::Monitor monitor(monitor_registry, mc);
  runtime::MetricsRegistry metrics;
  runtime::FaultInjector injector;
  if (dc.monitor) dc.params.monitor = &monitor;
  if (dc.metrics) dc.params.metrics = &metrics;
  if (!dc.faults.rules.empty()) {
    injector.arm_plan(dc.faults);
    dc.params.faults = &injector;
  }
  const RunResult r = run(dc.workload, dc.deployment, ExecutionModel(dc.app), dc.params);
  Canon c(dc.name);
  golden::put_result(c, r);
  if (dc.monitor) golden::put_monitor(c, monitor.to_json());
  if (dc.metrics) {
    for (const auto& [name, value] : metrics.counters()) c.put("counter." + name, value);
    for (const auto& [name, value] : metrics.gauges()) c.put("gauge." + name, value);
  }
  if (!dc.faults.rules.empty()) {
    for (const std::string& site : kSites) c.put("faults.hits." + site, injector.hits(site));
    c.put("faults.total_crashes", injector.total_crashes());
  }
  return c.text();
}

SimRunParams seeded(unsigned seed) {
  SimRunParams p;
  p.seed = seed;
  return p;
}

/// Grid points shared by both drivers, named "<prefix>.<case>".
std::vector<DesCase> common_grid(const std::string& prefix, unsigned seed0) {
  const Workload cap3 = make_cap3_workload(40, 458);
  const Deployment ec2 = make_deployment(cloud::ec2_hcxl(), 4, 2);
  std::vector<DesCase> grid;
  auto add = [&](const std::string& name, SimRunParams p) {
    DesCase dc;
    dc.name = prefix + "." + name;
    dc.workload = cap3;
    dc.deployment = ec2;
    dc.params = p;
    grid.push_back(std::move(dc));
    return &grid.back();
  };

  add("base", seeded(seed0))->metrics = true;
  add("monitor", seeded(seed0 + 1))->monitor = true;
  {
    SimRunParams p = seeded(seed0 + 2);
    p.record_trace = true;
    p.straggler_prob = 0.15;
    add("trace_straggler", p);
  }
  {
    DesCase* dc = add("fault_plan", seeded(seed0 + 3));
    dc->faults.seed = 31;
    dc->faults.crash(mapreduce::sites::kMapAttempt, /*budget=*/2)
        .crash(mapreduce::sites::kReduceAttempt, /*budget=*/1)
        .crash(classiccloud::sites::kAfterExecute, /*budget=*/2, /*probability=*/0.5);
  }
  {
    // BLAST with a shared database staged from the object store: with and
    // without the worker block cache.
    const Workload blast = make_blast_workload(24, 100, 11, 128, 0.30, 64.0 * 1024 * 1024);
    for (const bool cache : {false, true}) {
      SimRunParams p = seeded(seed0 + 4);
      p.stage_inputs = true;
      p.enable_block_cache = cache;
      DesCase* dc = add(cache ? "blast.stage.cache" : "blast.stage.nocache", p);
      dc->workload = blast;
      dc->app = AppKind::kBlast;
      dc->monitor = cache;
    }
  }
  {
    SimRunParams p = seeded(seed0 + 5);
    p.stage_inputs = true;
    p.storage = storage::StorageKind::kSharedFs;
    add("stage.sharedfs", p);
  }
  {
    DesCase* dc = add("azure", seeded(seed0 + 6));
    dc->deployment = make_deployment(cloud::azure_small(), 6, 1);
  }
  return grid;
}

std::string run_grid(std::vector<DesCase> grid, Driver run) {
  std::string text;
  for (DesCase& dc : grid) text += serialise(std::move(dc), run);
  return text;
}

// -- MapReduce -------------------------------------------------------------

std::vector<DesCase> mapreduce_grid() {
  std::vector<DesCase> grid = common_grid("m", 1);
  auto add = [&](const std::string& name, SimRunParams p) {
    DesCase dc = grid.front();
    dc.name = "m." + name;
    dc.params = p;
    dc.metrics = false;
    grid.push_back(std::move(dc));
    return &grid.back();
  };
  for (const bool spec : {true, false}) {
    // Stragglers are what speculation duplicates; off, none are run twice.
    SimRunParams p = seeded(21);
    p.straggler_prob = 0.2;
    p.record_trace = true;
    p.scheduler.speculative_execution = spec;
    add(spec ? "spec_on" : "spec_off", p);
  }
  {
    SimRunParams p = seeded(22);
    p.record_trace = true;
    add("task_failure", p)->faults.crash(mapreduce::sites::kMapAttempt, -1, 0.1);
  }
  {
    // Node 1 of 4 dies at 150 s: the 50th heartbeat round, so 49 rounds of
    // 4 firings and node 0's firing pass first.
    DesCase* dc = add("node_failure", seeded(23));
    dc->faults.crash(sites::kNodeHeartbeat, /*budget=*/1, 1.0, /*skip_first=*/197);
    dc->monitor = true;
  }
  return grid;
}

TEST(DesGolden, MapReduceGridMatchesExpectation) {
  golden::expect_golden("mapreduce_golden.txt", run_grid(mapreduce_grid(), run_mapreduce_sim));
}

// -- Dryad -----------------------------------------------------------------

std::vector<DesCase> dryad_grid() {
  std::vector<DesCase> grid = common_grid("d", 41);
  {
    // Size-balanced LPT partitions (the ablation) on a skewed workload.
    DesCase dc = grid.front();
    dc.name = "d.by_size.trace";
    dc.workload = make_gtm_workload(30);
    dc.app = AppKind::kGtm;
    dc.params = seeded(51);
    dc.params.dryad_partition_by_size = true;
    dc.params.record_trace = true;
    dc.metrics = false;
    grid.push_back(std::move(dc));
  }
  return grid;
}

TEST(DesGolden, DryadGridMatchesExpectation) {
  golden::expect_golden("dryad_golden.txt", run_grid(dryad_grid(), run_dryad_sim));
}

}  // namespace
}  // namespace ppc::core
