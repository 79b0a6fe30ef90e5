// Shuffle run harness + chaos shuffle campaigns: the histogram/dedup
// workloads through `run_shuffle_job`, then full chaos campaigns on the
// mapreduce substrate for seeds 1–3 — crash/corrupt faults at
// spill/fetch/register sites must leave the canonical reduced output
// byte-identical to the fault-free baseline, with zero lost groups.
#include "sim/shuffle_run.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "mapreduce/job.h"
#include "sim/chaos_campaign.h"

namespace ppc::sim {
namespace {

/// What `ppcloud shuffle --app A --seed S` runs: 6 files on 3 nodes x 2
/// slots, 3 reducers.
EngineRunSpec shuffle_spec(const std::string& app, std::uint64_t seed) {
  EngineRunSpec spec;
  spec.substrate = "mapreduce";
  spec.job = app + "-" + std::to_string(seed);
  spec.slots_per_node = 2;
  return spec;
}

RunReport shuffle(const std::string& app, std::uint64_t seed, bool verify = false) {
  return run_shuffle_job(shuffle_spec(app, seed), make_shuffle_app(app, 6, seed), verify);
}

TEST(ShuffleRun, HistogramProducesGroupedHits) {
  const auto report = shuffle("histogram", 1);
  ASSERT_TRUE(report.succeeded);
  EXPECT_GT(report.outputs.size(), 0u);
  EXPECT_GT(report.shuffle.fetches, 0);
  const std::string text = shuffle_text(report, shuffle_spec("histogram", 1), "histogram", 1, 6,
                                        false);
  EXPECT_NE(text.find("shuffle app=histogram seed=1 maps=6 reducers=3 OK"), std::string::npos)
      << text;
}

TEST(ShuffleRun, DedupCollapsesDuplicateSequences) {
  const auto report = shuffle("dedup", 2);
  ASSERT_TRUE(report.succeeded);
  // The read pool is smaller than the read count, so dedup must collapse:
  // fewer groups than total reads (6 files * 8).
  EXPECT_GT(report.outputs.size(), 0u);
  EXPECT_LT(report.outputs.size(), 6u * 8);
}

TEST(ShuffleRun, SameSeedSameBytesAcrossHarnessRuns) {
  const auto a = shuffle("histogram", 7);
  const auto b = shuffle("histogram", 7);
  ASSERT_TRUE(a.succeeded);
  ASSERT_TRUE(b.succeeded);
  EXPECT_EQ(mapreduce::encode_canonical(a.outputs), mapreduce::encode_canonical(b.outputs));
  // Different corpus seed, different bytes (sanity that the seed matters).
  const auto c = shuffle("histogram", 8);
  ASSERT_TRUE(c.succeeded);
  EXPECT_NE(mapreduce::encode_canonical(a.outputs), mapreduce::encode_canonical(c.outputs));
}

TEST(ShuffleRun, VerifyDeterminismReRunsOnAlternateClusterShape) {
  const auto report = shuffle("dedup", 3, /*verify=*/true);
  ASSERT_TRUE(report.succeeded) << report.failures.front();
  const std::string text = shuffle_text(report, shuffle_spec("dedup", 3), "dedup", 3, 6, true);
  EXPECT_NE(text.find("determinism: byte-identical across cluster shapes"), std::string::npos)
      << text;
}

TEST(ShuffleRun, TraceCapturesShuffleTimeline) {
  EngineRunSpec spec = shuffle_spec("histogram", 4);
  spec.trace = true;
  const auto report = run_shuffle_job(spec, make_shuffle_app("histogram", 6, 4), false);
  ASSERT_TRUE(report.succeeded);
  EXPECT_GT(report.spans, 0u);
  EXPECT_NE(report.chrome_json.find("shuffle.fetch"), std::string::npos);
  EXPECT_NE(report.chrome_json.find("shuffle.merge"), std::string::npos);
}

TEST(ShuffleRun, UnknownAppThrows) {
  EXPECT_THROW(shuffle("wordcount", 1), ppc::InvalidArgument);
}

TEST(ShuffleRun, FailedJobSaysWhyInReportAndText) {
  EngineRunSpec spec = shuffle_spec("histogram", 1);
  spec.plan.emplace().error(mapreduce::sites::kMapAttempt, "injected", /*budget=*/-1);
  const RunReport report = run_shuffle_job(spec, make_shuffle_app("histogram", 6, 1), true);
  ASSERT_FALSE(report.succeeded);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_EQ(report.failures.front(), "mapreduce shuffle job failed");
  const std::string text = shuffle_text(report, spec, "histogram", 1, 6, true);
  EXPECT_NE(text.find(" FAILED\n"), std::string::npos) << text;
  EXPECT_NE(text.find("  FAIL: mapreduce shuffle job failed\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("determinism:"), std::string::npos) << text;
}

TEST(ShuffleRun, ReproduceLineNamesEveryNonDefaultOption) {
  RunReport report;  // synthetic: a failed run, nothing else recorded
  report.failures = {"determinism: MISMATCH across cluster shapes"};
  EngineRunSpec spec = shuffle_spec("dedup", 9);
  spec.num_workers = 5;
  spec.slots_per_node = 3;
  spec.num_reducers = 4;
  EXPECT_EQ(shuffle_reproduce_line(report, spec, "dedup", 9, 10, true),
            "reproduce with: ppcloud shuffle --app dedup --seed 9 --files 10 --nodes 5 "
            "--slots 3 --reducers 4 --verify 1\n");
  // Defaults are not named, and a run that succeeded prints nothing.
  EXPECT_EQ(shuffle_reproduce_line(report, shuffle_spec("histogram", 2), "histogram", 2, 6, true),
            "reproduce with: ppcloud shuffle --app histogram --seed 2 --verify 1\n");
  report.succeeded = true;
  EXPECT_EQ(shuffle_reproduce_line(report, spec, "dedup", 9, 10, true), "");
}

// ---------------------------------------------------------------------------
// Chaos shuffle campaigns, seeds 1..3.

RunReport shuffle_chaos(std::uint64_t seed, const std::string& app,
                        const std::string& substrate = "mapreduce") {
  ChaosConfig config;
  config.seed = seed;
  config.app = app;
  return run_chaos_campaign(chaos_spec(substrate, config), config);
}

TEST(ChaosShuffle, HistogramSeedsOneToThreeAreByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto report = shuffle_chaos(seed, "histogram");
    EXPECT_TRUE(report.succeeded)
        << "seed " << seed << ": " << ::testing::PrintToString(report.failures);
    // The campaign must actually have chased faults through the shuffle,
    // not passed vacuously.
    EXPECT_GT(report.crashes + report.delays + report.errors + report.corruptions, 0)
        << "seed " << seed;
    EXPECT_GE(report.corruptions, 1) << "seed " << seed;
  }
}

TEST(ChaosShuffle, DedupCampaignSurvivesFaults) {
  const auto report = shuffle_chaos(2, "dedup");
  EXPECT_TRUE(report.succeeded) << ::testing::PrintToString(report.failures);
  EXPECT_GT(report.redeliveries + report.corrupt_deliveries + report.crashes, 0);
}

TEST(ChaosShuffle, ShuffleAppRequiresMapReduceSubstrate) {
  EXPECT_THROW(shuffle_chaos(1, "histogram", "classiccloud"), ppc::InvalidArgument);
}

}  // namespace
}  // namespace ppc::sim
