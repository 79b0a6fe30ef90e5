// End-to-end coverage of `ppcloud monitor`'s runs (run_des under the
// des_model preset with a DesMonitor): determinism (byte-identical monitor
// JSON across reruns of one spec), queue-drain shape, the seeded stall
// alarm, and alarm silence on fault-free runs — the same assertions the CI
// monitor-smoke job makes from the CLI.
#include <string>

#include <gtest/gtest.h>

#include "sim/des_run.h"
#include "sim/monitor_run.h"

namespace ppc::sim {
namespace {

/// `ppcloud monitor --substrate S --files F` on `instances` x `workers`,
/// default skew, seed and period; `spec` carries stalls and alarms.
RunReport monitored(const std::string& substrate, DesRunSpec spec = {}, int files = 12,
                    int instances = 2, int workers = 2) {
  const auto [framework, type] = des_model(substrate);
  spec.framework = framework;
  if (!spec.monitor) spec.monitor.emplace();
  return run_des(make_des_workload("cap3", files, spec.params.seed, 2.0),
                 core::make_deployment(*type, instances, workers), spec);
}

// Extracts the last recorded value of `series` from Monitor::to_json()
// output: the final "[t, v]" pair of that series' points array.
double last_point_value(const std::string& json, const std::string& series) {
  const std::size_t series_pos = json.find("\"" + series + "\"");
  EXPECT_NE(series_pos, std::string::npos) << "series missing: " << series;
  const std::size_t points_pos = json.find("\"points\": [", series_pos);
  EXPECT_NE(points_pos, std::string::npos);
  const std::size_t end = json.find("]]", points_pos);
  EXPECT_NE(end, std::string::npos);
  const std::size_t comma = json.rfind(", ", end);
  return std::stod(json.substr(comma + 2, end - comma - 2));
}

TEST(MonitorRun, JsonIsByteIdenticalAcrossReruns) {
  for (const char* substrate : {"classiccloud", "azuremr", "mapreduce", "dryad"}) {
    const RunReport a = monitored(substrate);
    const RunReport b = monitored(substrate);
    EXPECT_EQ(a.monitor_json, b.monitor_json) << substrate;
    EXPECT_EQ(a.dashboard, b.dashboard) << substrate;
    EXPECT_FALSE(a.monitor_json.empty()) << substrate;
  }
}

TEST(MonitorRun, QueueDepthSeriesIsNonEmptyAndDrainsToZero) {
  for (const char* substrate : {"classiccloud", "azuremr", "mapreduce", "dryad"}) {
    const RunReport report = monitored(substrate);
    EXPECT_EQ(report.result.completed, report.result.tasks) << substrate;
    EXPECT_GT(report.samples, 0u) << substrate;
    // The final monitor tick rides the drained simulation: pending work is 0.
    EXPECT_EQ(last_point_value(report.monitor_json, "queue.tasks.depth"), 0.0)
        << substrate;
  }
}

TEST(MonitorRun, FaultFreeRunFiresNoAlarms) {
  for (const char* substrate : {"classiccloud", "azuremr", "mapreduce", "dryad"}) {
    const RunReport report = monitored(substrate);
    EXPECT_FALSE(report.degraded) << substrate;
    EXPECT_TRUE(report.firings.empty()) << substrate;
  }
}

TEST(MonitorRun, SeededStallFiresTheStallAlarm) {
  DesRunSpec spec;  // default fleet: 2 instances x 4 workers
  spec.params.stall_worker = 0;
  spec.params.stall_at = 100.0;
  spec.params.stall_duration = 120.0;  // > the 45s default sustain
  const RunReport report = monitored("classiccloud", spec, 16, 2, 4);
  EXPECT_TRUE(report.degraded);
  ASSERT_FALSE(report.firings.empty());
  EXPECT_EQ(report.firings[0].alarm, "stall");
  EXPECT_EQ(report.firings[0].series, "workers.idle_with_backlog");
  EXPECT_GE(report.firings[0].held, 45.0);
  // The stalled worker recovers; the job still finishes.
  EXPECT_TRUE(report.succeeded);
}

TEST(MonitorRun, StallRunIsAlsoDeterministic) {
  DesRunSpec spec;
  spec.params.stall_worker = 1;
  spec.params.stall_at = 50.0;
  spec.params.stall_duration = 100.0;
  const RunReport a = monitored("classiccloud", spec);
  const RunReport b = monitored("classiccloud", spec);
  EXPECT_EQ(a.monitor_json, b.monitor_json);
  EXPECT_EQ(a.firings.size(), b.firings.size());
}

TEST(MonitorRun, CustomAlarmRulesReplaceDefaults) {
  DesRunSpec spec;
  // A rule every run trips immediately: there is a backlog from t=0.
  spec.monitor = DesMonitor{.alarms = {"backlog: queue.tasks.depth > 0.5 for 0s"}};
  const RunReport report = monitored("classiccloud", spec);
  EXPECT_TRUE(report.degraded);
  ASSERT_FALSE(report.firings.empty());
  EXPECT_EQ(report.firings[0].alarm, "backlog");
}

TEST(MonitorRun, DefaultAlarmRulesQuoteTheStallRule) {
  const auto rules = default_alarm_rules();
  ASSERT_FALSE(rules.empty());
  EXPECT_EQ(rules[0], "stall: workers.idle_with_backlog > 0.5 for 45s");
}

}  // namespace
}  // namespace ppc::sim
