// The saturation harness at test scale: the (workers x shards) sweep must
// drain every cell and actually batch, and a small end-to-end campaign must
// meet every PASS criterion the million-task run is held to (complete,
// drained, alarm-quiet, deterministic, within budget).
#include "sim/saturation.h"

#include <gtest/gtest.h>

#include <string>

#include "billing/cost_model.h"
#include "cloud/instance_types.h"

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

/// `ppcloud campaign --tasks T --instances I --workers W --receive-batch B
/// --shards S --period 120 --wall-budget 120 --verify V`.
RunReport campaign(int tasks, int instances, int workers, int batch, int shards, bool verify) {
  DesRunSpec spec = campaign_spec();
  spec.params.receive_batch = batch;
  spec.params.queue.shards = shards;
  spec.monitor->period = 120.0;
  spec.rerun = verify;
  RunReport report = run_des(make_des_workload("cap3", tasks, 42),
                             core::make_deployment(cloud::ec2_hcxl(), instances, workers), spec);
  check_campaign(report, 120.0);
  return report;
}

TEST(SaturationCampaign, SmallCampaignPassesEveryGate) {
  const RunReport report = campaign(2000, 4, 4, 10, 4, true);
  const core::RunResult& r = report.result;

  EXPECT_TRUE(report.succeeded) << campaign_text(report);
  EXPECT_EQ(r.completed, 2000);
  EXPECT_EQ(r.queue_undeleted_end, 0u);
  EXPECT_FALSE(report.alarmed());
  EXPECT_TRUE(report.deterministic);
  EXPECT_GT(report.samples, 0u);
  EXPECT_FALSE(report.monitor_json.empty());
  // Batched receives/acks must beat the one-message-per-request bill.
  EXPECT_LT(r.queue_api_requests, r.queue_unbatched_requests);
  const auto savings =
      billing::queue_batching_savings(r.queue_api_requests, r.queue_unbatched_requests);
  EXPECT_LT(savings.cost, savings.unbatched_cost);
  EXPECT_GT(r.queue_batch_occupancy, 2.0);
}

TEST(SaturationCampaign, UnbatchedCampaignStillPassesButCostsMore) {
  const RunReport fast = campaign(800, 2, 4, 10, 4, false);
  const RunReport legacy = campaign(800, 2, 4, 1, 1, false);
  EXPECT_TRUE(fast.succeeded) << campaign_text(fast);
  EXPECT_TRUE(legacy.succeeded) << campaign_text(legacy);
  EXPECT_EQ(fast.result.completed, legacy.result.completed);
  EXPECT_LT(fast.result.queue_api_requests, legacy.result.queue_api_requests)
      << "batching must cut billable requests on identical work";
}

}  // namespace
}  // namespace ppc::sim
