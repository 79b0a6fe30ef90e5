// Golden oracle for the reports the `ppcloud` verbs print: chaos, shuffle,
// trace, monitor, campaign and autoscale. Each case fills the harness spec
// the way the verb's preset does (run_engine or run_des), adds the verb's
// checks and renders the RunReport with the verb's renderer; the text is
// compared line by line with a checked-in file under golden/, so a refactor
// of the harnesses behind the verbs shows up as the first field it moved.
//
// The real-thread verbs race real threads, so a few fields move from run to
// run even when nothing is wrong. Those fields, and only those, are masked
// to "*" before the comparison:
//  * chaos on classiccloud/azuremr: `redeliveries`, `recovery_p50` and
//    `recovery_max` (how often a message comes back, and how fast a
//    supervisor restarts a worker, depend on thread timing); on azuremr also
//    `restarts` (a worker killed as the job drains is never restarted);
//  * shuffle: `spec=` (speculative attempts race the slot loop),
//    `shuffle_storage=` (storage cost integrates wall time) and `elapsed=`;
//  * trace: everything but success, the file count and each task's id and
//    final state (span counts and timings are wall clock);
//  * campaign/autoscale: the `wall` seconds.
//
// After an intended behaviour change, regenerate with
//   PPC_UPDATE_GOLDEN=1 ./ppc_tests_chaos --gtest_filter='VerbGolden*'
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/instance_types.h"
#include "sim/autoscale_run.h"
#include "sim/chaos_campaign.h"
#include "sim/monitor_run.h"
#include "sim/saturation.h"
#include "sim/shuffle_run.h"
#include "sim/trace_run.h"

#include "../core/golden.h"

namespace ppc::sim {
namespace {

using core::golden::expect_golden;

/// Replaces the value after every occurrence of `key` (up to the next space,
/// ')' or newline) with "*".
std::string mask(std::string text, const std::string& key) {
  for (std::size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos)) {
    const std::size_t begin = pos + key.size();
    const std::size_t end = text.find_first_of(" )\n", begin);
    text.replace(begin, end - begin, "*");
    pos = begin + 1;
  }
  return text;
}

std::string mask_all(std::string text, const std::vector<std::string>& keys) {
  for (const std::string& key : keys) text = mask(std::move(text), key);
  return text;
}

std::string masked_chaos_text(const std::string& substrate, const ChaosConfig& config) {
  const EngineRunSpec spec = chaos_spec(substrate, config);
  std::string text = chaos_text(run_chaos_campaign(spec, config), spec, config);
  if (substrate == "mapreduce") return text;
  if (substrate == "azuremr") text = mask(text, "restarts=");
  return mask_all(text, {"redeliveries=", "recovery_p50=", "recovery_max="});
}

// ---------------------------------------------------------------------------
// chaos: seeds 1-3 on every substrate, the shuffle campaign, the storm runs.

class VerbGoldenChaos
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(VerbGoldenChaos, ReportText) {
  const auto& [substrate, seed] = GetParam();
  ChaosConfig config;
  config.seed = seed;
  expect_golden("chaos_" + substrate + "_seed" + std::to_string(seed) + ".txt",
                masked_chaos_text(substrate, config));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, VerbGoldenChaos,
    ::testing::Combine(::testing::Values("classiccloud", "azuremr", "mapreduce"),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>& info) {
      return std::get<0>(info.param) + "_seed" + std::to_string(std::get<1>(info.param));
    });

class VerbGoldenChaosShuffle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerbGoldenChaosShuffle, ReportText) {
  ChaosConfig config;  // what `ppcloud chaos --shuffle 1` runs
  config.seed = GetParam();
  config.app = "histogram";
  expect_golden("chaos_shuffle_seed" + std::to_string(GetParam()) + ".txt",
                masked_chaos_text("mapreduce", config));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerbGoldenChaosShuffle, ::testing::Values(1u, 2u, 3u));

class VerbGoldenChaosStorm : public ::testing::TestWithParam<std::string> {};

TEST_P(VerbGoldenChaosStorm, ReportText) {
  ChaosConfig config;
  config.seed = 1;
  config.revocation_storm = true;
  expect_golden("chaos_" + GetParam() + "_storm.txt", masked_chaos_text(GetParam(), config));
}

INSTANTIATE_TEST_SUITE_P(Substrates, VerbGoldenChaosStorm,
                         ::testing::Values("classiccloud", "azuremr", "mapreduce"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// shuffle: the histogram seeds and dedup seed 1, with --verify on.

class VerbGoldenShuffle
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(VerbGoldenShuffle, ReportText) {
  const auto& [app, seed] = GetParam();
  EngineRunSpec spec;  // what `ppcloud shuffle --app A --seed S --verify 1` runs
  spec.substrate = "mapreduce";
  spec.job = app + "-" + std::to_string(seed);
  spec.slots_per_node = 2;
  const RunReport report = run_shuffle_job(spec, make_shuffle_app(app, 6, seed), true);
  expect_golden("shuffle_" + app + "_seed" + std::to_string(seed) + ".txt",
                mask_all(shuffle_text(report, spec, app, seed, 6, true),
                         {"spec=", "shuffle_storage=", "elapsed="}));
}

INSTANTIATE_TEST_SUITE_P(
    Runs, VerbGoldenShuffle,
    ::testing::Values(std::make_tuple(std::string("histogram"), std::uint64_t{1}),
                      std::make_tuple(std::string("histogram"), std::uint64_t{2}),
                      std::make_tuple(std::string("histogram"), std::uint64_t{3}),
                      std::make_tuple(std::string("dedup"), std::uint64_t{1})),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>& info) {
      return std::get<0>(info.param) + "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// trace: the deterministic part of the report — verdict, file count, and the
// id and final state of every task in the summary table.

class VerbGoldenTrace : public ::testing::TestWithParam<std::string> {};

TEST_P(VerbGoldenTrace, TasksAndStates) {
  EngineRunSpec spec;  // what `ppcloud trace` runs, at 6 files x 2 workers
  spec.substrate = GetParam();
  spec.job = "trace";
  spec.num_workers = 2;
  spec.trace = true;
  const RunReport report = run_engine(spec, make_app_job("cap3", 6, 2.0));
  std::string text = "succeeded=" + std::string(report.succeeded ? "true" : "false") +
                     " files_processed=" + std::to_string(report.outputs.size()) + "\n";
  std::istringstream table(report.summary_table);
  std::string line;
  std::getline(table, line);  // header
  while (std::getline(table, line)) {
    std::istringstream row(line);
    std::string task, field, state;
    row >> task;
    while (row >> field) state = field;
    text += task + " " + state + "\n";
  }
  expect_golden("trace_" + GetParam() + ".txt", text);
}

INSTANTIATE_TEST_SUITE_P(Substrates, VerbGoldenTrace,
                         ::testing::Values("classiccloud", "azuremr", "mapreduce", "dryad"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// monitor, campaign, autoscale: DES runs, deterministic but for wall time.

/// What `ppcloud monitor --substrate S --files F --instances I --workers 2`
/// renders, followed by its --json artifact; `spec` carries the seed, stall
/// and monitor.
std::string monitor_golden(const std::string& substrate, int files, int instances,
                           int workers, DesRunSpec spec) {
  const auto [framework, type] = des_model(substrate);
  spec.framework = framework;
  spec.monitor.emplace();
  const RunReport report = run_des(make_des_workload("cap3", files, spec.params.seed, 2.0),
                                   core::make_deployment(*type, instances, workers), spec);
  return monitor_text(report, substrate) + report.monitor_json;
}

class VerbGoldenMonitor : public ::testing::TestWithParam<std::string> {};

TEST_P(VerbGoldenMonitor, ReportAndJson) {
  expect_golden("monitor_" + GetParam() + ".txt", monitor_golden(GetParam(), 12, 2, 2, {}));
}

INSTANTIATE_TEST_SUITE_P(Substrates, VerbGoldenMonitor,
                         ::testing::Values("classiccloud", "azuremr", "mapreduce", "dryad"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(VerbGolden, MonitorStallRun) {
  DesRunSpec spec;  // what the smoke.monitor.stall entry runs
  spec.params.stall_worker = 0;
  spec.params.stall_at = 100.0;
  spec.params.stall_duration = 120.0;
  expect_golden("monitor_stall.txt", monitor_golden("classiccloud", 16, 2, 4, spec));
}

TEST(VerbGolden, Campaign) {
  DesRunSpec spec = campaign_spec();
  spec.monitor->period = 120.0;
  RunReport report = run_des(make_des_workload("cap3", 2000, 42),
                             core::make_deployment(cloud::ec2_hcxl(), 4, 4), spec);
  check_campaign(report, 300.0);
  expect_golden("campaign.txt", mask(campaign_text(report), "wall ") + report.monitor_json);
}

TEST(VerbGolden, Autoscale) {
  DesRunSpec spec = campaign_spec();
  spec.elastic.emplace().revocation_rate = 0.5;
  const AutoscaleVerdict verdict =
      run_autoscale_campaign(make_des_workload("cap3", 3000, 42),
                             core::make_deployment(cloud::ec2_hcxl(), 8, 8), spec, {});
  expect_golden("autoscale.txt",
                mask(autoscale_text(verdict), "wall ") + verdict.elastic.monitor_json);
}

}  // namespace
}  // namespace ppc::sim
