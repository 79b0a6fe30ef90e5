// End-to-end chaos campaigns: each substrate must produce byte-identical
// outputs under a seeded fault schedule, and the report must show the
// schedule actually exercised the fault machinery (crashes, delays, errors,
// and — on the queue substrates — corruption and poison handling).
#include "sim/chaos_campaign.h"

#include <gtest/gtest.h>

#include <string>

namespace ppc::sim {
namespace {

RunReport campaign(const std::string& substrate, const ChaosConfig& config) {
  return run_chaos_campaign(chaos_spec(substrate, config), config);
}

class ChaosCampaign : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosCampaign, SurvivesSeededFaultSchedule) {
  ChaosConfig config;
  config.seed = 42;
  const std::string& substrate = GetParam();
  const RunReport report = campaign(substrate, config);
  const std::string text = chaos_text(report, chaos_spec(substrate, config), config);
  EXPECT_TRUE(report.succeeded) << text;

  // The campaign is only meaningful if faults actually fired.
  EXPECT_GE(report.crashes, 1);
  EXPECT_GE(report.delays, 1);
  EXPECT_GE(report.errors, 1);
  if (substrate != "mapreduce") {
    EXPECT_GE(report.corruptions, 1);
    EXPECT_GE(report.dlq_entries, 1);
    EXPECT_GE(report.poison_tasks, 1);
  }
  EXPECT_GE(report.redeliveries, 1);
  EXPECT_NE(text.find("  plan:\n    "), std::string::npos) << text;
  EXPECT_NE(report.metrics->to_json(), "");

  // The chaos run is traced: the report carries the Chrome trace that
  // `ppcloud chaos --trace-dir` writes next to a failing seed.
  EXPECT_GT(report.spans, 0u);
  EXPECT_NE(report.chrome_json.find("\"traceEvents\""), std::string::npos);
  if (substrate != "mapreduce") {
    // Queue substrates run under a supervisor; the plan's guaranteed crash
    // must show up as a reap in the timeline.
    EXPECT_NE(report.chrome_json.find("worker.crashed"), std::string::npos);
  }
  EXPECT_NE(text.find("PASS"), std::string::npos);
  EXPECT_EQ(chaos_reproduce_line(report, chaos_spec(substrate, config), config), "");
}

INSTANTIATE_TEST_SUITE_P(Substrates, ChaosCampaign,
                         ::testing::Values("classiccloud", "azuremr", "mapreduce"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Revocation storms must leave the determinism story intact. `succeeded`
// requires the chaos run's outputs to be byte-identical to the fault-free
// baseline AND the storm to have revoked at least one worker, so this sweep
// (seeds 1-3 on every substrate) is the "storms don't break determinism or
// lose work" acceptance gate.
class RevocationStorm
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(RevocationStorm, ByteIdenticalOutputsUnderStorm) {
  const std::string& substrate = std::get<0>(GetParam());
  ChaosConfig config;
  config.seed = std::get<1>(GetParam());
  config.revocation_storm = true;
  const RunReport report = campaign(substrate, config);
  const std::string text = chaos_text(report, chaos_spec(substrate, config), config);
  EXPECT_TRUE(report.succeeded) << text;
  EXPECT_GE(report.spot_revocations, 1);
  // A no-notice revocation is a crash to the worker: the kill shows up in
  // the crash totals and the redelivery machinery absorbs it.
  EXPECT_GE(report.crashes, report.spot_revocations);
  EXPECT_NE(text.find("revoke_spot"), std::string::npos) << text;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RevocationStorm,
    ::testing::Combine(::testing::Values("classiccloud", "azuremr", "mapreduce"),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ChaosCampaignConfig, UnknownSubstrateThrows) {
  EXPECT_THROW(campaign("telepathy", {}), std::exception);
}

TEST(ChaosCampaignConfig, UnknownAppThrows) {
  ChaosConfig config;
  config.app = "folding";
  EXPECT_THROW(campaign("classiccloud", config), std::exception);
}

TEST(ChaosCampaignConfig, ReproduceLineNamesEveryNonDefaultOption) {
  RunReport report;  // synthetic: a failed campaign, nothing else recorded
  report.failures = {"chaos: classiccloud produced 3 of 4 outputs"};
  ChaosConfig config;
  config.seed = 7;
  config.app = "blast";
  config.num_files = 6;
  config.revocation_storm = true;
  EngineRunSpec spec = chaos_spec("classiccloud", config);
  spec.storage = "sharedfs";
  spec.enable_cache = true;
  spec.num_workers = 5;
  EXPECT_EQ(chaos_reproduce_line(report, spec, config),
            "reproduce with: ppcloud chaos --seed 7 --substrate classiccloud --app blast "
            "--storage sharedfs --cache 1 --files 6 --workers 5 --revocation-storm 1\n");
  // Defaults are not named, and a campaign that passed prints nothing.
  EXPECT_EQ(chaos_reproduce_line(report, chaos_spec("azuremr", {}), {}),
            "reproduce with: ppcloud chaos --seed 42 --substrate azuremr --app cap3\n");
  report.succeeded = true;
  EXPECT_EQ(chaos_reproduce_line(report, spec, config), "");
}

}  // namespace
}  // namespace ppc::sim
