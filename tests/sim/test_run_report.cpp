// The one run report both harnesses return: the same small Cap3 job through
// run_engine (classiccloud, 2 workers) and run_des (classic, 1 x 2) must
// fill the verdict, the registry and the wall time, and the monitor section
// exactly when a monitor is asked for. Spec-level errors throw before a run.
#include "sim/run_report.h"

#include <gtest/gtest.h>

#include <string>

#include "cloud/instance_types.h"
#include "common/error.h"
#include "sim/des_run.h"
#include "sim/engine_run.h"
#include "sim/monitor_run.h"

namespace ppc::sim {
namespace {

void expect_common_sections(const RunReport& report) {
  EXPECT_TRUE(report.succeeded) << ::testing::PrintToString(report.failures);
  EXPECT_TRUE(report.failures.empty());
  ASSERT_NE(report.metrics, nullptr);
  EXPECT_GT(report.wall_seconds, 0.0);
}

RunReport engine_run(Seconds monitor_period) {
  EngineRunSpec spec;
  spec.num_workers = 2;
  spec.monitor_period = monitor_period;
  return run_engine(spec, make_app_job("cap3", 4));
}

RunReport des_run(bool monitored) {
  DesRunSpec spec;
  if (monitored) spec.monitor.emplace();
  return run_des(make_des_workload("cap3", 4, 42),
                 core::make_deployment(cloud::ec2_hcxl(), 1, 2), spec);
}

TEST(RunReport, EngineRunFillsVerdictRegistryAndWallTime) {
  const RunReport report = engine_run(0.0);
  expect_common_sections(report);
  EXPECT_EQ(report.outputs.size(), 4u);
  EXPECT_EQ(report.metrics->sum_counters(".tasks_completed"), 4);
  // No monitor, no tracer asked for: those sections stay empty.
  EXPECT_EQ(report.samples, 0u);
  EXPECT_TRUE(report.monitor_json.empty());
  EXPECT_TRUE(report.chrome_json.empty());
}

TEST(RunReport, EngineRunFillsTheMonitorSectionWhenAsked) {
  const RunReport report = engine_run(0.01);
  expect_common_sections(report);
  EXPECT_GT(report.samples, 0u);
  EXPECT_NE(report.monitor_json.find("\"series\""), std::string::npos);
  EXPECT_FALSE(report.dashboard.empty());
  EXPECT_FALSE(report.prometheus.empty());
}

TEST(RunReport, DesRunFillsVerdictRegistryAndWallTime) {
  const RunReport report = des_run(false);
  expect_common_sections(report);
  EXPECT_EQ(report.result.completed, 4);
  EXPECT_EQ(report.metrics->counter_value(report.result.framework + ".completed"), 4);
  EXPECT_EQ(report.samples, 0u);
  EXPECT_TRUE(report.monitor_json.empty());
}

TEST(RunReport, DesRunFillsTheMonitorSectionWhenAsked) {
  const RunReport report = des_run(true);
  expect_common_sections(report);
  EXPECT_GT(report.samples, 0u);
  EXPECT_NE(report.monitor_json.find("queue.tasks.depth"), std::string::npos);
  EXPECT_FALSE(report.dashboard.empty());
  EXPECT_FALSE(report.prometheus.empty());
  EXPECT_FALSE(report.alarmed());
  EXPECT_TRUE(report.deterministic);
}

TEST(RunReport, UnknownEngineSubstrateThrows) {
  EngineRunSpec spec;
  spec.substrate = "telepathy";
  EXPECT_THROW(run_engine(spec, make_app_job("cap3", 2)), ppc::InvalidArgument);
}

TEST(RunReport, UnknownDesSubstrateThrows) {
  EXPECT_THROW(des_model("slurm"), ppc::InvalidArgument);
}

}  // namespace
}  // namespace ppc::sim
