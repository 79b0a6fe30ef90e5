// Golden oracle for the reports the `ppcloud` verbs print: chaos, shuffle,
// trace, monitor, campaign and autoscale. Each case's text is compared line
// by line with a checked-in file under golden/, so a refactor of the
// harnesses behind the verbs shows up as the first field it moved.
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

std::string chaos_text(const ChaosConfig& config) {
  std::string text = run_chaos_campaign(config).to_text();
  if (config.substrate == "mapreduce") return text;
  if (config.substrate == "azuremr") text = mask(text, "restarts=");
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
  config.substrate = substrate;
  expect_golden("chaos_" + substrate + "_seed" + std::to_string(seed) + ".txt",
                chaos_text(config));
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
  config.substrate = "mapreduce";
  config.app = "histogram";
  expect_golden("chaos_shuffle_seed" + std::to_string(GetParam()) + ".txt",
                chaos_text(config));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerbGoldenChaosShuffle, ::testing::Values(1u, 2u, 3u));

class VerbGoldenChaosStorm : public ::testing::TestWithParam<std::string> {};

TEST_P(VerbGoldenChaosStorm, ReportText) {
  ChaosConfig config;
  config.seed = 1;
  config.substrate = GetParam();
  config.revocation_storm = true;
  expect_golden("chaos_" + GetParam() + "_storm.txt", chaos_text(config));
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
  ShuffleRunConfig config;
  config.app = app;
  config.seed = seed;
  config.verify_determinism = true;
  expect_golden("shuffle_" + app + "_seed" + std::to_string(seed) + ".txt",
                mask_all(run_shuffle_job(config).to_text(),
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
  TraceRunConfig config;
  config.substrate = GetParam();
  config.num_files = 6;
  config.num_workers = 2;
  config.skew = 2.0;
  const TraceRunReport report = run_traced_job(config);
  std::string text = "succeeded=" + std::string(report.succeeded ? "true" : "false") +
                     " files_processed=" + std::to_string(report.files_processed) + "\n";
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

class VerbGoldenMonitor : public ::testing::TestWithParam<std::string> {};

TEST_P(VerbGoldenMonitor, ReportAndJson) {
  MonitorRunConfig config;
  config.substrate = GetParam();
  config.num_files = 12;
  config.instances = 2;
  config.workers_per_instance = 2;
  const MonitorRunReport report = run_monitored_job(config);
  expect_golden("monitor_" + GetParam() + ".txt", report.to_text() + report.monitor_json);
}

INSTANTIATE_TEST_SUITE_P(Substrates, VerbGoldenMonitor,
                         ::testing::Values("classiccloud", "azuremr", "mapreduce", "dryad"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(VerbGolden, MonitorStallRun) {
  MonitorRunConfig config;  // what the smoke.monitor.stall entry runs
  config.substrate = "classiccloud";
  config.num_files = 16;
  config.stall_worker = 0;
  config.stall_at = 100.0;
  config.stall_duration = 120.0;
  const MonitorRunReport report = run_monitored_job(config);
  expect_golden("monitor_stall.txt", report.to_text() + report.monitor_json);
}

TEST(VerbGolden, Campaign) {
  CampaignConfig config;
  config.tasks = 2000;
  config.instances = 4;
  config.workers_per_instance = 4;
  config.monitor_period = 120.0;
  const CampaignReport report = run_million_task_campaign(config);
  expect_golden("campaign.txt", mask(report.to_text(), "wall ") + report.monitor_json);
}

TEST(VerbGolden, Autoscale) {
  AutoscaleCampaignConfig config;
  config.tasks = 3000;
  config.instances = 8;
  config.revocation_rate = 0.5;
  const AutoscaleReport report = run_autoscale_campaign(config);
  expect_golden("autoscale.txt", mask(report.to_text(), "wall ") + report.monitor_json);
}

}  // namespace
}  // namespace ppc::sim
