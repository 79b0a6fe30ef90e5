// End-to-end tests of the Classic Cloud framework in *real-thread* mode:
// real workers polling a real queue, processing real bytes from the blob
// store — the full Figure 1 pipeline in-process.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "blobstore/blob_store.h"
#include "classiccloud/job_client.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"

namespace ppc::classiccloud {
namespace {

class ClassicCloudTest : public ::testing::Test {
 protected:
  std::shared_ptr<SystemClock> clock_ = std::make_shared<SystemClock>();
  blobstore::BlobStore store_{clock_};
  cloudq::QueueConfig queue_config_;
  std::unique_ptr<cloudq::QueueService> queues_;

  void SetUp() override {
    queue_config_.default_visibility_timeout = 5.0;
    queues_ = std::make_unique<cloudq::QueueService>(clock_, queue_config_);
  }

  WorkerConfig worker_config() {
    WorkerConfig config;
    config.bucket = "job";
    config.poll_interval = 0.001;
    config.visibility_timeout = 5.0;
    return config;
  }

  static TaskExecutor upper_executor() {
    return [](const TaskSpec&, const std::string& input) {
      std::string out = input;
      for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      return out;
    };
  }
};

TEST_F(ClassicCloudTest, SingleWorkerProcessesAllTasks) {
  JobClient client(store_, *queues_, "job");
  client.submit({{"a.txt", "alpha"}, {"b.txt", "beta"}, {"c.txt", "gamma"}});

  WorkerPool pool(store_, client.task_queue(), client.monitor_queue(), upper_executor(),
                  worker_config(), 1);
  pool.start_all();
  ASSERT_TRUE(client.wait_for_completion(20.0));
  pool.stop_all();
  pool.join_all();

  EXPECT_EQ(*client.fetch_output(client.tasks()[0]), "ALPHA");
  EXPECT_EQ(*client.fetch_output(client.tasks()[1]), "BETA");
  EXPECT_EQ(*client.fetch_output(client.tasks()[2]), "GAMMA");
  EXPECT_EQ(client.completions().size(), 3u);
}

TEST_F(ClassicCloudTest, WaitingHeadsEachOutputAtMostOnce) {
  // Many polls per task: the wait must not re-HEAD (a billed request) the
  // outputs it has already seen on every poll.
  constexpr int kTasks = 16;
  JobClient client(store_, *queues_, "job");
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < kTasks; ++i) files.emplace_back("f" + std::to_string(i), "v");
  client.submit(files);
  TaskExecutor slow = [](const TaskSpec&, const std::string& input) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    return input;
  };
  WorkerPool pool(store_, client.task_queue(), client.monitor_queue(), slow, worker_config(), 2);
  pool.start_all();
  ASSERT_TRUE(client.wait_for_completion(20.0, /*poll_interval=*/0.001));
  pool.stop_all();
  pool.join_all();
  EXPECT_LE(store_.meter().heads, static_cast<std::uint64_t>(kTasks));
}

TEST_F(ClassicCloudTest, ManyWorkersShareTheQueue) {
  JobClient client(store_, *queues_, "job");
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 40; ++i) {
    files.emplace_back("f" + std::to_string(i), "data" + std::to_string(i));
  }
  client.submit(files);

  WorkerPool pool(store_, client.task_queue(), client.monitor_queue(), upper_executor(),
                  worker_config(), 8);
  pool.start_all();
  ASSERT_TRUE(client.wait_for_completion(30.0));
  pool.stop_all();
  pool.join_all();

  const auto stats = pool.aggregate_stats();
  EXPECT_GE(stats.tasks_completed, 40);
  // Monitoring queue reported every task exactly once in the client's view.
  EXPECT_EQ(client.completions().size(), 40u);
}

TEST_F(ClassicCloudTest, HybridLocalAndCloudPools) {
  // §2.1.3: "one can start workers in computers outside of the cloud to
  // augment compute capacity" — two pools, one queue.
  JobClient client(store_, *queues_, "job");
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 30; ++i) files.emplace_back("f" + std::to_string(i), "x");
  client.submit(files);

  // Slow the executor slightly so neither pool can drain the queue alone
  // before the other's threads have started.
  TaskExecutor slow_upper = [](const TaskSpec&, const std::string& input) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::string out = input;
    for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out;
  };
  WorkerPool cloud_pool(store_, client.task_queue(), client.monitor_queue(), slow_upper,
                        worker_config(), 3, "cloud");
  WorkerPool local_pool(store_, client.task_queue(), client.monitor_queue(), slow_upper,
                        worker_config(), 3, "local");
  cloud_pool.start_all();
  local_pool.start_all();
  ASSERT_TRUE(client.wait_for_completion(30.0));
  cloud_pool.stop_all();
  local_pool.stop_all();
  cloud_pool.join_all();
  local_pool.join_all();

  // Both pools contributed (40 tasks across 6 workers makes starvation of a
  // whole pool effectively impossible with random sampling).
  EXPECT_GT(cloud_pool.aggregate_stats().tasks_completed, 0);
  EXPECT_GT(local_pool.aggregate_stats().tasks_completed, 0);
}

TEST_F(ClassicCloudTest, ProgressTracksCompletionAndEstimatesEta) {
  JobClient client(store_, *queues_, "job");
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 20; ++i) files.emplace_back("f" + std::to_string(i), "x");
  client.submit(files);

  const auto before = client.progress();
  EXPECT_EQ(before.total, 20u);
  EXPECT_EQ(before.completed, 0u);
  EXPECT_DOUBLE_EQ(before.fraction(), 0.0);

  TaskExecutor slow = [](const TaskSpec&, const std::string& input) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    return input;
  };
  WorkerPool pool(store_, client.task_queue(), client.monitor_queue(), slow, worker_config(), 2);
  pool.start_all();

  // Mid-flight: progress should be partial with a positive rate.
  bool saw_partial = false;
  for (int i = 0; i < 2000; ++i) {
    const auto p = client.progress();
    if (p.completed > 0 && p.completed < p.total) {
      saw_partial = true;
      EXPECT_GT(p.tasks_per_second, 0.0);
      EXPECT_GT(p.eta, 0.0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  EXPECT_TRUE(saw_partial);

  ASSERT_TRUE(client.wait_for_completion(30.0));
  pool.stop_all();
  pool.join_all();
  const auto done = client.progress();
  EXPECT_EQ(done.completed, 20u);
  EXPECT_DOUBLE_EQ(done.fraction(), 1.0);
  EXPECT_DOUBLE_EQ(done.eta, 0.0);
}

TEST_F(ClassicCloudTest, QueueSamplingDoesNotStarveWorkers) {
  // With slow-ish tasks and several workers, the queue's random sampling
  // should spread work across every worker (no systematic starvation).
  JobClient client(store_, *queues_, "job");
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 48; ++i) files.emplace_back("f" + std::to_string(i), "x");
  client.submit(files);
  TaskExecutor slow = [](const TaskSpec&, const std::string& input) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return input;
  };
  WorkerPool pool(store_, client.task_queue(), client.monitor_queue(), slow, worker_config(), 4);
  pool.start_all();
  ASSERT_TRUE(client.wait_for_completion(30.0));
  pool.stop_all();
  pool.join_all();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_GT(pool.worker(i).stats().tasks_completed, 0)
        << "worker " << i << " was starved";
  }
}

TEST_F(ClassicCloudTest, WorkerStopsAfterIdlePolls) {
  auto tasks = queues_->create_queue("idle-tasks");
  auto monitor = queues_->create_queue("idle-monitor");
  WorkerConfig config = worker_config();
  config.max_idle_polls = 3;
  Worker worker("w", store_, tasks, monitor, upper_executor(), config);
  worker.start();
  worker.join();
  EXPECT_FALSE(worker.running());
  EXPECT_EQ(worker.stats().tasks_completed, 0);
}

TEST_F(ClassicCloudTest, ExecutorExceptionLeavesTaskForRetry) {
  JobClient client(store_, *queues_, "job");
  client.submit({{"poison", "p"}});
  std::atomic<int> calls{0};
  TaskExecutor flaky = [&calls](const TaskSpec&, const std::string& input) -> std::string {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("transient failure");
    return input;
  };
  WorkerConfig config = worker_config();
  config.visibility_timeout = 0.2;  // fast retry
  WorkerPool pool(store_, client.task_queue(), client.monitor_queue(), flaky, config, 2);
  pool.start_all();
  ASSERT_TRUE(client.wait_for_completion(20.0));
  pool.stop_all();
  pool.join_all();
  EXPECT_GE(calls.load(), 2);
  EXPECT_EQ(pool.aggregate_stats().executions_failed, 1);
}

TEST_F(ClassicCloudTest, EventuallyConsistentBlobStoreIsRetried) {
  // Inputs suffer read-after-write lag; workers must retry the download.
  blobstore::BlobStoreConfig blob_config;
  blob_config.read_after_write_lag_mean = 0.02;
  blobstore::BlobStore lagged_store(clock_, blob_config);
  JobClient client(lagged_store, *queues_, "job");
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 10; ++i) files.emplace_back("f" + std::to_string(i), "v");
  client.submit(files);

  WorkerPool pool(lagged_store, client.task_queue(), client.monitor_queue(), upper_executor(),
                  worker_config(), 4);
  pool.start_all();
  ASSERT_TRUE(client.wait_for_completion(20.0));
  pool.stop_all();
  pool.join_all();
  EXPECT_EQ(client.completions().size(), 10u);
}

}  // namespace
}  // namespace ppc::classiccloud
