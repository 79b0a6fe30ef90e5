// Golden oracle for the Classic Cloud DES: the full output of both entry
// points (run_classic_cloud_sim and run_elastic_classic_sim) over a grid of
// parameters, serialised to canonical text — every RunResult field with the
// exec_times samples and the trace, ElasticRunStats with the fleet-size
// series, and Monitor::to_json() — and compared line by line with the
// checked-in expectation next to this file. Any behaviour change of the
// drivers (an RNG draw moved, an event reordered, a meter bumped) surfaces
// as the first differing field.
//
// After an intended behaviour change, regenerate the expectation with
//   PPC_UPDATE_GOLDEN=1 ./ppc_tests_core --gtest_filter='ClassicGolden.*'
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "classiccloud/worker.h"
#include "cloud/fleet.h"
#include "cloud/instance_types.h"
#include "core/drivers.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"

#include "golden.h"

namespace ppc::core {
namespace {

using golden::Canon;
using golden::expect_golden;

void put_elastic_stats(Canon& c, const ElasticRunStats& s) {
  c.put("elastic.peak_instances", s.peak_instances);
  c.put("elastic.scale_out_events", s.scale_out_events);
  c.put("elastic.scale_in_events", s.scale_in_events);
  c.put("elastic.revocations", s.revocations);
  c.put("elastic.hard_kills", s.hard_kills);
  c.put("elastic.drains_completed", s.drains_completed);
  c.put("elastic.total_drain_seconds", s.total_drain_seconds);
  c.put("elastic.stale_terminates", s.stale_terminates);
  c.put("elastic.cost_on_demand", s.cost_on_demand);
  c.put("elastic.cost_spot", s.cost_spot);
  c.put("elastic.cost_on_demand_equivalent", s.cost_on_demand_equivalent);
  c.put("elastic.fleet_size_series.count",
        static_cast<std::uint64_t>(s.fleet_size_series.size()));
  for (std::size_t i = 0; i < s.fleet_size_series.size(); ++i) {
    const FleetSizePoint& p = s.fleet_size_series[i];
    const std::string key = "elastic.fleet_size_series[" + std::to_string(i) + "]";
    c.put(key + ".t", p.t);
    c.put(key + ".active", p.active);
    c.put(key + ".spot", p.spot);
  }
}

/// One grid point: a name, the inputs, and the optional attachments.
struct GoldenCase {
  std::string name;
  Workload workload;
  Deployment deployment;
  AppKind app = AppKind::kCap3;
  SimRunParams params;
  bool monitor = false;
  runtime::FaultPlan faults;  // armed when it has rules
  ElasticSimParams elastic;   // elastic grid only
};

/// Runs one case through `run` (the static or the elastic entry point) and
/// serialises everything it reports.
std::string serialise(GoldenCase gc,
                      const std::function<RunResult(GoldenCase&, ElasticRunStats*)>& run,
                      bool elastic) {
  runtime::MetricsRegistry registry;
  runtime::MonitorConfig mc;
  mc.period = 120.0;
  mc.scrape_registry = false;
  runtime::Monitor monitor(registry, mc);
  runtime::FaultInjector injector;
  if (gc.monitor) gc.params.monitor = &monitor;
  if (!gc.faults.rules.empty()) {
    injector.arm_plan(gc.faults);
    gc.params.faults = &injector;
  }
  ElasticRunStats stats;
  const RunResult r = run(gc, elastic ? &stats : nullptr);
  Canon c(gc.name);
  golden::put_result(c, r);
  if (elastic) put_elastic_stats(c, stats);
  if (gc.monitor) golden::put_monitor(c, monitor.to_json());
  return c.text();
}

SimRunParams seeded(unsigned seed) {
  SimRunParams p;
  p.seed = seed;
  return p;
}

// -- static grid -----------------------------------------------------------

std::vector<GoldenCase> static_grid() {
  const Workload cap3 = make_cap3_workload(40, 458);
  const Deployment ec2 = make_deployment(cloud::ec2_hcxl(), 2, 4);
  std::vector<GoldenCase> grid;
  auto add = [&](const std::string& name, SimRunParams p) {
    GoldenCase gc;
    gc.name = name;
    gc.workload = cap3;
    gc.deployment = ec2;
    gc.params = p;
    grid.push_back(std::move(gc));
    return &grid.back();
  };

  add("s.batch1", seeded(1));
  {
    SimRunParams p = seeded(2);
    p.receive_batch = 10;
    add("s.batch10", p)->monitor = true;
  }
  {
    SimRunParams p = seeded(3);
    add("s.crash.batch1", p)->faults.crash(classiccloud::sites::kAfterExecute, -1, 0.05);
    p.receive_batch = 10;
    p.seed = 4;
    add("s.crash.batch10", p)->faults.crash(classiccloud::sites::kAfterExecute, -1, 0.05);
  }
  {
    GoldenCase* gc = add("s.fault_after_execute", seeded(5));
    gc->faults.seed = 77;
    gc->faults.crash(classiccloud::sites::kAfterExecute, /*budget=*/3, /*probability=*/0.5);
  }
  {
    SimRunParams p = seeded(6);
    p.record_trace = true;
    p.straggler_prob = 0.1;
    add("s.trace_straggler", p);
  }
  {
    SimRunParams p = seeded(7);
    p.stall_worker = 1;
    p.stall_at = 100.0;
    p.stall_duration = 400.0;
    add("s.stall", p)->monitor = true;
  }
  {
    SimRunParams p = seeded(8);
    p.storage = storage::StorageKind::kSharedFs;
    add("s.sharedfs", p)->monitor = true;
  }
  {
    // Visibility timeout below the task length: redeliveries, stale
    // deletes and duplicate executions, unbatched and batched.
    SimRunParams p = seeded(9);
    p.visibility_timeout = 60.0;
    p.record_trace = true;
    add("s.short_visibility.batch1", p);
    p.receive_batch = 4;
    add("s.short_visibility.batch4", p);
    // A redelivery received just after the last first-completion: the
    // one-message loop still runs it.
    p = seeded(17);
    p.visibility_timeout = 60.0;
    add("s.late_delivery", p);
  }
  {
    SimRunParams p = seeded(10);
    p.queue.duplicate_delivery_prob = 0.1;
    p.provider_variability = false;
    add("s.duplicate_delivery", p);
  }
  {
    // BLAST with a shared database: with and without the worker block cache.
    const Workload blast = make_blast_workload(24, 100, 11, 128, 0.30, 64.0 * 1024 * 1024);
    for (const bool cache : {false, true}) {
      SimRunParams p = seeded(11);
      p.enable_block_cache = cache;
      GoldenCase* gc = add(cache ? "s.blast.cache" : "s.blast.nocache", p);
      gc->workload = blast;
      gc->app = AppKind::kBlast;
      gc->monitor = cache;
    }
  }
  {
    GoldenCase* gc = add("s.azure", seeded(12));
    gc->deployment = make_deployment(cloud::azure_small(), 6, 1);
  }
  return grid;
}

TEST(ClassicGolden, StaticGridMatchesExpectation) {
  std::string text;
  for (GoldenCase& gc : static_grid()) {
    text += serialise(
        std::move(gc),
        [](GoldenCase& c, ElasticRunStats*) {
          return run_classic_cloud_sim(c.workload, c.deployment, ExecutionModel(c.app),
                                       c.params);
        },
        /*elastic=*/false);
  }
  expect_golden("classic_golden_static.txt", text);
}

// -- elastic grid ----------------------------------------------------------

std::vector<GoldenCase> elastic_grid() {
  const Workload cap3 = make_cap3_workload(400, 458);
  const Deployment ec2 = make_deployment(cloud::ec2_hcxl(), 6, 4);
  ElasticSimParams base;
  base.autoscaler.min_instances = 2;
  base.autoscaler.max_instances = 6;
  base.autoscaler.step_out = 2;
  base.storm_times = {500.0, 1100.0};
  base.revocation_rate = 0.6;

  std::vector<GoldenCase> grid;
  auto add = [&](const std::string& name, unsigned seed, const ElasticSimParams& e) {
    GoldenCase gc;
    gc.name = name;
    gc.workload = cap3;
    gc.deployment = ec2;
    gc.params = seeded(seed);
    gc.params.visibility_timeout = 900.0;
    gc.elastic = e;
    grid.push_back(std::move(gc));
    return &grid.back();
  };

  add("e.storm_notice", 21, base)->monitor = true;
  {
    ElasticSimParams e = base;
    e.revocation_notice = 0.0;
    GoldenCase* gc = add("e.storm_hard.batch10", 22, e);
    gc->params.receive_batch = 10;
    gc->params.visibility_timeout = 3600.0;  // covers a prefetched batch
    gc->monitor = true;
  }
  {
    ElasticSimParams e = base;
    e.storm_times.clear();
    GoldenCase* gc = add("e.revoke_rule", 23, e);
    gc->faults.seed = 5;
    gc->faults.revoke_spot(cloud::sites::kSpotRevoke, /*budget=*/3, /*probability=*/0.2,
                           /*notice=*/120.0);
    gc->faults.crash(classiccloud::sites::kAfterExecute, /*budget=*/2, /*probability=*/0.3);
  }
  {
    ElasticSimParams e = base;
    e.boot_time = 0.0;
    add("e.boot0", 24, e);
  }
  {
    ElasticSimParams e = base;
    e.spot_fraction = 0.0;
    add("e.spot0", 25, e);
    e.spot_fraction = 1.0;
    GoldenCase* gc = add("e.spot1.crash", 26, e);
    gc->faults.crash(classiccloud::sites::kAfterExecute, -1, 0.02);
    gc->params.receive_batch = 5;
    gc->params.visibility_timeout = 3600.0;
  }
  {
    ElasticSimParams e = base;
    e.autoscaler.budget = 12.0;
    add("e.budget", 27, e);
  }
  {
    // No storms; the queue runs low just before the first billing-hour
    // boundary, so the autoscaler drains an instance there.
    ElasticSimParams e = base;
    e.storm_times.clear();
    e.autoscaler.max_instances = 8;
    e.autoscaler.step_out = 4;
    e.autoscaler.hour_slack = 600.0;
    GoldenCase* gc = add("e.billing_drain", 28, e);
    gc->workload = make_cap3_workload(900, 458);
    gc->deployment = make_deployment(cloud::ec2_hcxl(), 8, 4);
    gc->params.receive_batch = 2;
    gc->monitor = true;
  }
  return grid;
}

TEST(ClassicGolden, ElasticGridMatchesExpectation) {
  std::string text;
  for (GoldenCase& gc : elastic_grid()) {
    text += serialise(
        std::move(gc),
        [](GoldenCase& c, ElasticRunStats* stats) {
          return run_elastic_classic_sim(c.workload, c.deployment, ExecutionModel(c.app),
                                         c.params, c.elastic, stats);
        },
        /*elastic=*/true);
  }
  expect_golden("classic_golden_elastic.txt", text);
}

}  // namespace
}  // namespace ppc::core
