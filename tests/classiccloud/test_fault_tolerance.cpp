// Fault-tolerance properties of the Classic Cloud framework (§2.1.3):
//
//   "The workers delete the task (message) in the queue only after the
//    completion of the task. Hence, a task (message) will get processed by
//    some worker if the task does not get completed with the initial reader
//    (worker) within the given time limit. Rare occurrences of multiple
//    instances processing the same task or another worker re-executing a
//    failed task will not affect the result due to the idempotent nature of
//    the independent tasks."
//
// These tests crash workers at every stage of the pipeline — armed through
// the unified runtime::FaultInjector at the worker's named sites — and
// assert that no task is ever lost and results stay correct.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "blobstore/blob_store.h"
#include "classiccloud/job_client.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"
#include "runtime/fault_injector.h"

namespace ppc::classiccloud {
namespace {

class FaultToleranceTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::shared_ptr<SystemClock> clock_ = std::make_shared<SystemClock>();
  blobstore::BlobStore store_{clock_};
  cloudq::QueueService queues_{clock_};

  WorkerConfig worker_config(Seconds visibility) {
    WorkerConfig config;
    config.bucket = "job";
    config.poll_interval = 0.001;
    config.visibility_timeout = visibility;
    return config;
  }

  static TaskExecutor echo_executor() {
    return [](const TaskSpec& task, const std::string& input) {
      return task.task_id + "|" + input;
    };
  }
};

TEST_P(FaultToleranceTest, CrashedWorkerNeverLosesTasks) {
  const std::string& crash_site = GetParam();
  JobClient client(store_, queues_, "job");
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 12; ++i) files.emplace_back("f" + std::to_string(i), "payload");
  client.submit(files);

  // The saboteur crashes on its first task at the parameterized site.
  runtime::FaultInjector faults;
  faults.arm_plan(runtime::FaultPlan{}.crash(crash_site));
  WorkerConfig saboteur_config = worker_config(/*visibility=*/0.3);
  saboteur_config.faults = &faults;
  Worker saboteur("saboteur", store_, client.task_queue(), client.monitor_queue(),
                  echo_executor(), saboteur_config);

  WorkerPool rescuers(store_, client.task_queue(), client.monitor_queue(), echo_executor(),
                      worker_config(0.3), 3, "rescuer");

  // The rescuers start only once the saboteur has crashed, so they cannot
  // drain the queue before it has taken its first task.
  saboteur.start();
  const auto crash_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!saboteur.crashed() && std::chrono::steady_clock::now() < crash_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(saboteur.crashed()) << "the saboteur must crash on its first task";
  rescuers.start_all();
  ASSERT_TRUE(client.wait_for_completion(30.0))
      << "all tasks must complete despite the crash";
  rescuers.stop_all();
  saboteur.request_stop();
  rescuers.join_all();
  saboteur.join();

  EXPECT_TRUE(saboteur.stats().crashed);
  EXPECT_EQ(faults.crashes(crash_site), 1);
  // Every output present and correct — idempotency means re-execution did
  // not corrupt anything.
  for (const TaskSpec& task : client.tasks()) {
    const auto out = client.fetch_output(task);
    ASSERT_TRUE(out != nullptr);
    EXPECT_EQ(*out, task.task_id + "|payload");
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, FaultToleranceTest,
                         ::testing::Values(sites::kAfterReceive, sites::kAfterExecute,
                                           sites::kAfterUpload),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           // "classiccloud.after_receive" -> "AfterReceive"-style names.
                           std::string name;
                           bool upper = true;
                           for (char c : info.param.substr(info.param.find('.') + 1)) {
                             if (c == '_') {
                               upper = true;
                             } else {
                               name += upper ? static_cast<char>(std::toupper(c)) : c;
                               upper = false;
                             }
                           }
                           return name;
                         });

TEST(FaultTolerance, VisibilityTimeoutCausesDuplicateProcessingNotLoss) {
  // One deliberately slow worker holds a task past its visibility timeout;
  // a second worker re-processes it. The slow worker's delete fails (stale
  // receipt) — and the result is still correct.
  auto clock = std::make_shared<SystemClock>();
  blobstore::BlobStore store(clock);
  cloudq::QueueService queues(clock);
  JobClient client(store, queues, "job");
  client.submit({{"slow-file", "data"}});

  std::atomic<int> executions{0};
  TaskExecutor slow_then_fast = [&executions](const TaskSpec&, const std::string& input) {
    if (executions.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    return input;
  };
  WorkerConfig config;
  config.bucket = "job";
  config.poll_interval = 0.001;
  config.visibility_timeout = 0.1;  // far below the slow execution
  WorkerPool pool(store, client.task_queue(), client.monitor_queue(), slow_then_fast, config, 2);
  pool.start_all();
  ASSERT_TRUE(client.wait_for_completion(20.0));
  // Give the slow twin time to finish and observe its stale delete.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  pool.stop_all();
  pool.join_all();

  EXPECT_GE(executions.load(), 2) << "the task must have been re-processed";
  EXPECT_GE(pool.aggregate_stats().deletes_failed, 1)
      << "the superseded receipt's delete must fail";
  EXPECT_EQ(*client.fetch_output(client.tasks()[0]), "data");
}

TEST(FaultTolerance, AllWorkersCrashThenFreshPoolFinishes) {
  // Instance failure and replacement: the first fleet dies mid-job; a new
  // fleet attaches to the same queues and completes the computation.
  auto clock = std::make_shared<SystemClock>();
  blobstore::BlobStore store(clock);
  cloudq::QueueService queues(clock);
  JobClient client(store, queues, "job");
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 8; ++i) files.emplace_back("f" + std::to_string(i), "v");
  client.submit(files);

  runtime::FaultInjector faults;
  faults.arm_plan(runtime::FaultPlan{}.crash(sites::kAfterExecute, /*budget=*/-1));
  WorkerConfig doomed_config;
  doomed_config.bucket = "job";
  doomed_config.poll_interval = 0.001;
  doomed_config.visibility_timeout = 0.2;
  doomed_config.faults = &faults;
  TaskExecutor echo = [](const TaskSpec&, const std::string& input) { return input; };
  WorkerPool doomed(store, client.task_queue(), client.monitor_queue(), echo, doomed_config, 2,
                    "doomed");
  doomed.start_all();
  doomed.join_all();  // both crash on their first task
  EXPECT_TRUE(doomed.aggregate_stats().crashed);
  EXPECT_EQ(doomed.aggregate_stats().tasks_completed, 0);

  WorkerConfig fresh_config;
  fresh_config.bucket = "job";
  fresh_config.poll_interval = 0.001;
  fresh_config.visibility_timeout = 0.5;
  WorkerPool fresh(store, client.task_queue(), client.monitor_queue(), echo, fresh_config, 2,
                   "fresh");
  fresh.start_all();
  EXPECT_TRUE(client.wait_for_completion(30.0));
  fresh.stop_all();
  fresh.join_all();
  EXPECT_EQ(client.completions().size(), 8u);
}

}  // namespace
}  // namespace ppc::classiccloud
