// The saturation harness at test scale: the (workers x shards) sweep must
// drain every cell and actually batch, and a small end-to-end campaign must
// meet every PASS criterion the million-task run is held to (complete,
// drained, alarm-quiet, deterministic, within budget).
#include "sim/saturation.h"

#include <gtest/gtest.h>

#include <string>

namespace ppc::sim {
namespace {

TEST(SaturationSweep, SmallGridDrainsEveryCellAndBatches) {
  SaturationConfig config;
  config.tasks = 2000;
  config.workers = {1, 2};
  config.shards = {1, 2};
  const SaturationReport report = run_saturation_sweep(config);

  // 2x2 batched grid plus one unbatched reference row per shard count.
  ASSERT_EQ(report.cells.size(), 6u);
  double peak = 0.0;
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.tasks, 2000);
    EXPECT_GT(cell.tasks_per_second, 0.0);
    EXPECT_GT(cell.api_requests, 0u);
    EXPECT_EQ(cell.unbatched_requests, 3u * 2000u)
        << "send + receive + delete per message";
    if (cell.batch > 1) {
      EXPECT_GT(cell.batch_occupancy, 5.0) << cell.name();
      EXPECT_LT(cell.api_requests, cell.unbatched_requests) << cell.name();
    } else {
      EXPECT_LT(cell.batch_occupancy, 2.0) << cell.name();
    }
    peak = std::max(peak, cell.tasks_per_second);
  }
  EXPECT_DOUBLE_EQ(report.peak_tasks_per_second, peak);

  const std::string json = report.to_json("abc1234", config);
  EXPECT_NE(json.find("\"git_sha\": \"abc1234\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_tasks_per_second\""), std::string::npos);
  EXPECT_NE(json.find("\"w1_s1_b10\""), std::string::npos);
}

TEST(SaturationCampaign, SmallCampaignPassesEveryGate) {
  CampaignConfig config;
  config.tasks = 2000;
  config.instances = 4;
  config.workers_per_instance = 4;
  config.receive_batch = 10;
  config.queue_shards = 4;
  config.monitor_period = 120.0;
  config.wall_budget = 120.0;
  config.verify_determinism = true;
  const CampaignReport report = run_million_task_campaign(config);

  EXPECT_TRUE(report.passed) << report.to_text();
  EXPECT_EQ(report.completed, 2000);
  EXPECT_EQ(report.queue_undeleted_end, 0u);
  EXPECT_FALSE(report.alarm_fired);
  EXPECT_TRUE(report.deterministic);
  EXPECT_GT(report.monitor_samples, 0u);
  EXPECT_FALSE(report.monitor_json.empty());
  // Batched receives/acks must beat the one-message-per-request bill.
  EXPECT_LT(report.api_requests, report.unbatched_requests);
  EXPECT_LT(report.queue_cost, report.queue_cost_unbatched);
  EXPECT_GT(report.batch_occupancy, 2.0);
}

TEST(SaturationCampaign, UnbatchedCampaignStillPassesButCostsMore) {
  CampaignConfig batched;
  batched.tasks = 800;
  batched.instances = 2;
  batched.workers_per_instance = 4;
  batched.receive_batch = 10;
  batched.queue_shards = 4;
  batched.monitor_period = 120.0;
  batched.wall_budget = 120.0;
  batched.verify_determinism = false;

  CampaignConfig unbatched = batched;
  unbatched.receive_batch = 1;
  unbatched.queue_shards = 1;

  const CampaignReport fast = run_million_task_campaign(batched);
  const CampaignReport legacy = run_million_task_campaign(unbatched);
  EXPECT_TRUE(fast.passed) << fast.to_text();
  EXPECT_TRUE(legacy.passed) << legacy.to_text();
  EXPECT_EQ(fast.completed, legacy.completed);
  EXPECT_LT(fast.api_requests, legacy.api_requests)
      << "batching must cut billable requests on identical work";
}

}  // namespace
}  // namespace ppc::sim
