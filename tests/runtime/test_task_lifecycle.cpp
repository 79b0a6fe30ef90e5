// The shared §2.1.3 poll loop: receive -> handle -> delete-after-completion,
// exercised directly against a real MessageQueue (visibility timeouts, stale
// receipts) rather than through any substrate adapter.
#include "runtime/task_lifecycle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "blobstore/blob_store.h"
#include "cloudq/message_queue.h"
#include "common/clock.h"

namespace ppc::runtime {
namespace {

class TaskLifecycleTest : public ::testing::Test {
 protected:
  std::shared_ptr<SystemClock> clock_ = std::make_shared<SystemClock>();
  std::shared_ptr<cloudq::MessageQueue> queue_ =
      std::make_shared<cloudq::MessageQueue>("tasks", clock_);

  static LifecycleConfig fast_config() {
    LifecycleConfig config;
    config.poll_interval = 0.001;
    config.visibility_timeout = 0.05;
    return config;
  }

  static bool wait_until(const std::function<bool()>& pred, double timeout_s = 10.0) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }
};

TEST_F(TaskLifecycleTest, CompletesTasksAndDeletesOnlyAfterCompletion) {
  for (int i = 0; i < 3; ++i) queue_->send("task-" + std::to_string(i));

  std::vector<std::string> handled;
  std::mutex mu;
  LifecycleConfig config = fast_config();
  config.max_idle_polls = 30;  // drain, then exit on its own
  TaskLifecycle worker(
      "w0", queue_,
      [&](TaskContext& ctx) {
        std::lock_guard lock(mu);
        handled.push_back(ctx.message().body());
        return TaskOutcome::kCompleted;
      },
      config);
  worker.start();
  worker.join();

  EXPECT_EQ(handled.size(), 3u);
  EXPECT_EQ(queue_->undeleted(), 0u) << "completed tasks must be deleted";
  EXPECT_EQ(worker.counter(counters::kMessagesReceived), 3);
  EXPECT_EQ(worker.counter(counters::kTasksCompleted), 3);
  EXPECT_FALSE(worker.crashed());
}

TEST_F(TaskLifecycleTest, AbandonedDeliveryTimesOutAndIsRedelivered) {
  queue_->send("flaky");
  std::atomic<int> deliveries{0};
  TaskLifecycle worker(
      "w0", queue_,
      [&](TaskContext&) {
        return deliveries.fetch_add(1) == 0 ? TaskOutcome::kAbandoned : TaskOutcome::kCompleted;
      },
      fast_config());
  worker.start();
  ASSERT_TRUE(wait_until([&] { return worker.counter(counters::kTasksCompleted) == 1; }));
  worker.request_stop();
  worker.join();

  EXPECT_GE(deliveries.load(), 2);
  EXPECT_EQ(queue_->undeleted(), 0u);
  EXPECT_GE(worker.counter(counters::kMessagesReceived), 2);
}

TEST_F(TaskLifecycleTest, HandlerExceptionCountsAsFailedExecutionNotALostTask) {
  queue_->send("explosive");
  std::atomic<int> deliveries{0};
  TaskLifecycle worker(
      "w0", queue_,
      [&](TaskContext&) -> TaskOutcome {
        if (deliveries.fetch_add(1) == 0) throw std::runtime_error("boom");
        return TaskOutcome::kCompleted;
      },
      fast_config());
  worker.start();
  ASSERT_TRUE(wait_until([&] { return worker.counter(counters::kTasksCompleted) == 1; }));
  worker.request_stop();
  worker.join();

  EXPECT_EQ(worker.counter(counters::kExecutionsFailed), 1);
  EXPECT_EQ(queue_->undeleted(), 0u);
}

TEST_F(TaskLifecycleTest, InjectedCrashKillsWorkerWithoutDeletingTheMessage) {
  queue_->send("doomed-once");
  FaultInjector faults;
  faults.arm_plan(FaultPlan{}.crash("test.mid_task"));

  auto handler = [](TaskContext& ctx) {
    if (ctx.crash_site("test.mid_task", ctx.message().id)) return TaskOutcome::kCrashed;
    return TaskOutcome::kCompleted;
  };

  TaskLifecycle victim("victim", queue_, handler, fast_config(), nullptr, &faults);
  victim.start();
  victim.join();  // the crash exits the poll loop
  EXPECT_TRUE(victim.crashed());
  EXPECT_FALSE(victim.running());
  EXPECT_EQ(victim.counter(counters::kTasksCompleted), 0);
  EXPECT_EQ(queue_->undeleted(), 1u) << "a crashed worker must leave its message";

  // Delete-after-completion pays off: a replacement picks the task up once
  // the visibility timeout lapses.
  TaskLifecycle rescuer("rescuer", queue_, handler, fast_config(), nullptr, &faults);
  rescuer.start();
  ASSERT_TRUE(wait_until([&] { return rescuer.counter(counters::kTasksCompleted) == 1; }));
  rescuer.request_stop();
  rescuer.join();
  EXPECT_EQ(queue_->undeleted(), 0u);
  EXPECT_FALSE(rescuer.crashed());
}

TEST_F(TaskLifecycleTest, FetchExhaustsRetryBudgetOnMissingBlob) {
  blobstore::BlobStore store(clock_);
  queue_->send("needs-input");
  LifecycleConfig config = fast_config();
  config.max_idle_polls = 30;
  config.fetch_retry = RetryPolicy::fixed(3, 0.0005);

  std::atomic<bool> fetched{true};
  TaskLifecycle worker(
      "w0", queue_,
      [&](TaskContext& ctx) {
        fetched = ctx.fetch(store, "bucket", "absent-key") != nullptr;
        return TaskOutcome::kCompleted;
      },
      config);
  worker.start();
  worker.join();

  EXPECT_FALSE(fetched.load());
  EXPECT_EQ(worker.counter(counters::kDownloadsMissed), 3);
}

TEST_F(TaskLifecycleTest, PoolSharesOneRegistryAndEmitsCompletionEvents) {
  auto metrics = std::make_shared<MetricsRegistry>();
  std::mutex mu;
  std::vector<std::string> events;
  metrics->set_event_sink([&](const MetricEvent& e) {
    std::lock_guard lock(mu);
    events.push_back(e.name);
  });
  for (int i = 0; i < 6; ++i) queue_->send("t" + std::to_string(i));

  auto handler = [](TaskContext&) { return TaskOutcome::kCompleted; };
  TaskLifecycle w0("w0", queue_, handler, fast_config(), metrics);
  TaskLifecycle w1("w1", queue_, handler, fast_config(), metrics);
  EXPECT_EQ(w0.metrics_ptr().get(), metrics.get());
  w0.start();
  w1.start();
  ASSERT_TRUE(wait_until([&] { return metrics->sum_counters(".tasks_completed") == 6; }));
  w0.request_stop();
  w1.request_stop();
  w0.join();
  w1.join();

  EXPECT_EQ(w0.counter(counters::kTasksCompleted) + w1.counter(counters::kTasksCompleted), 6);
  std::lock_guard lock(mu);
  EXPECT_EQ(std::count(events.begin(), events.end(), "task.completed"), 6);
}

TEST_F(TaskLifecycleTest, ScopedNamesCarryTheWorkerId) {
  TaskLifecycle worker("cloud-3", queue_, [](TaskContext&) { return TaskOutcome::kCompleted; });
  EXPECT_EQ(worker.scoped(counters::kTasksCompleted), "cloud-3.tasks_completed");
  EXPECT_EQ(worker.counter("never_touched"), 0);
}

TEST_F(TaskLifecycleTest, BatchedReceiveAndDeleteDrainWithFewerRequests) {
  constexpr int kTasks = 23;
  for (int i = 0; i < kTasks; ++i) queue_->send("task-" + std::to_string(i));

  LifecycleConfig config = fast_config();
  config.receive_batch = 10;
  config.delete_batch = 10;
  // The prefetched batch is worked through sequentially, so the visibility
  // window must cover all ten tasks, not one.
  config.visibility_timeout = 10.0;
  config.max_idle_polls = 30;
  TaskLifecycle worker("w0", queue_, [](TaskContext&) { return TaskOutcome::kCompleted; },
                       config);
  worker.start();
  worker.join();

  EXPECT_EQ(worker.counter(counters::kTasksCompleted), kTasks);
  EXPECT_EQ(queue_->undeleted(), 0u);
  const cloudq::RequestMeter meter = queue_->meter();
  EXPECT_EQ(meter.messages_deleted, static_cast<std::uint64_t>(kTasks));
  // 23 tasks in batches of <= 10: at least ~10x fewer delete requests than
  // the unbatched delete-per-task protocol. (Whole-meter occupancy is
  // diluted here by the idle polls max_idle_polls burns before exiting, so
  // the batching win is asserted per verb.)
  EXPECT_LE(meter.deletes, 4u);
  EXPECT_GE(static_cast<double>(meter.messages_deleted) / static_cast<double>(meter.deletes),
            5.0);
}

TEST_F(TaskLifecycleTest, CrashLosesBufferedAcksAndRedeliveryAbsorbsThem) {
  constexpr int kTasks = 4;
  for (int i = 0; i < kTasks; ++i) queue_->send("task-" + std::to_string(i));

  LifecycleConfig config = fast_config();
  config.receive_batch = 10;
  config.delete_batch = 10;
  std::atomic<int> handled{0};
  TaskLifecycle doomed(
      "doomed", queue_,
      [&](TaskContext&) {
        return handled.fetch_add(1) + 1 == kTasks ? TaskOutcome::kCrashed
                                                  : TaskOutcome::kCompleted;
      },
      config);
  doomed.start();
  doomed.join();

  EXPECT_TRUE(doomed.crashed());
  // The three completions were acked into the buffer, never flushed: the
  // crash loses them, so every message is still undeleted and will
  // resurface after its visibility timeout.
  EXPECT_EQ(queue_->undeleted(), static_cast<std::size_t>(kTasks));

  LifecycleConfig rescue_config = fast_config();
  rescue_config.max_idle_polls = 200;
  TaskLifecycle rescue("rescue", queue_, [](TaskContext&) { return TaskOutcome::kCompleted; },
                       rescue_config);
  rescue.start();
  rescue.join();
  EXPECT_EQ(rescue.counter(counters::kTasksCompleted), kTasks)
      << "idempotent re-execution absorbs the lost acks";
  EXPECT_EQ(queue_->undeleted(), 0u);
}

}  // namespace
}  // namespace ppc::runtime
