// WorkerSupervisor: crash detection, bounded restarts with backoff, stall
// retirement, and recovery metrics — driven with plain TaskLifecycle workers
// over a real MessageQueue, the same shape every substrate adapter has.
#include "runtime/worker_supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "cloudq/message_queue.h"
#include "common/clock.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/task_lifecycle.h"

namespace ppc::runtime {
namespace {

class WorkerSupervisorTest : public ::testing::Test {
 protected:
  std::shared_ptr<SystemClock> clock_ = std::make_shared<SystemClock>();
  std::shared_ptr<cloudq::MessageQueue> queue_ =
      std::make_shared<cloudq::MessageQueue>("tasks", clock_);
  std::shared_ptr<MetricsRegistry> metrics_ = std::make_shared<MetricsRegistry>();

  static bool wait_until(const std::function<bool()>& pred, double timeout_s = 10.0) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }

  SupervisorConfig fast_config(int workers) {
    SupervisorConfig config;
    config.num_workers = workers;
    config.id_prefix = "w";
    config.metrics = metrics_;
    config.initial_backoff = 0.005;
    config.watch_interval = 0.002;
    return config;
  }

  /// Factory for lifecycle workers running `handler` against queue_.
  WorkerFactory lifecycle_factory(TaskHandler handler, FaultInjector* faults = nullptr) {
    return [this, handler, faults](const std::string& worker_id, int) {
      LifecycleConfig config;
      config.poll_interval = 0.001;
      config.visibility_timeout = 0.05;
      auto lc = std::make_shared<TaskLifecycle>(worker_id, queue_, handler, config,
                                                metrics_, faults);
      lc->start();
      return SupervisedWorker{lc, lc.get()};
    };
  }
};

TEST_F(WorkerSupervisorTest, ProvisionsOneWorkerPerSlot) {
  std::atomic<int> completed{0};
  for (int i = 0; i < 6; ++i) queue_->send("t" + std::to_string(i));
  WorkerSupervisor supervisor(lifecycle_factory([&](TaskContext&) {
                                completed.fetch_add(1);
                                return TaskOutcome::kCompleted;
                              }),
                              fast_config(3));
  supervisor.start();
  EXPECT_TRUE(wait_until([&] { return completed.load() == 6; }));
  EXPECT_EQ(supervisor.alive_workers(), 3);
  supervisor.stop();
  EXPECT_EQ(supervisor.restarts(), 0);
  EXPECT_EQ(queue_->undeleted(), 0u);
}

TEST_F(WorkerSupervisorTest, ReplacesACrashedWorkerAndFinishesTheJob) {
  FaultInjector faults;
  faults.arm_plan(FaultPlan{}.crash("w.site"));  // first delivery kills its worker
  std::atomic<int> completed{0};
  for (int i = 0; i < 4; ++i) queue_->send("t" + std::to_string(i));
  WorkerSupervisor supervisor(
      lifecycle_factory(
          [&](TaskContext& ctx) {
            if (ctx.crash_site("w.site")) return TaskOutcome::kCrashed;
            completed.fetch_add(1);
            return TaskOutcome::kCompleted;
          },
          &faults),
      fast_config(1));
  supervisor.start();
  // All four tasks complete: the crashed delivery reappears after its
  // visibility timeout and the replacement worker absorbs it.
  EXPECT_TRUE(wait_until([&] { return completed.load() == 4 && queue_->undeleted() == 0; }));
  EXPECT_TRUE(wait_until([&] { return supervisor.restarts() >= 1; }));
  supervisor.stop();
  EXPECT_EQ(supervisor.gave_up(), 0);
  // Recovery latency was recorded.
  const auto recovery = metrics_->histogram("supervisor.recovery_seconds").snapshot();
  EXPECT_GE(recovery.count(), 1u);
  // The replacement worker kept its own metric scope: "w0#1.*".
  EXPECT_GT(metrics_->counter_value("w0#1.tasks_completed"), 0);
}

TEST_F(WorkerSupervisorTest, GivesUpASlotAfterMaxRestarts) {
  FaultInjector faults;
  // Every incarnation dies on its first task.
  faults.arm_plan(FaultPlan{}.crash("w.site", /*budget=*/-1));
  queue_->send("doomed");
  SupervisorConfig config = fast_config(1);
  config.max_restarts_per_slot = 2;
  WorkerSupervisor supervisor(
      lifecycle_factory(
          [&](TaskContext& ctx) {
            if (ctx.crash_site("w.site")) return TaskOutcome::kCrashed;
            return TaskOutcome::kCompleted;
          },
          &faults),
      config);
  supervisor.start();
  EXPECT_TRUE(wait_until([&] { return supervisor.gave_up() == 1; }));
  supervisor.stop();
  EXPECT_EQ(supervisor.restarts(), 2);
  EXPECT_EQ(supervisor.alive_workers(), 0);
}

TEST_F(WorkerSupervisorTest, RetiresAStalledWorker) {
  // The initial worker wedges (handler blocks); stall detection must retire
  // it and provision a replacement that completes the remaining work.
  std::atomic<bool> release{false};
  std::atomic<int> completed{0};
  queue_->send("t0");
  SupervisorConfig config = fast_config(1);
  config.stall_timeout = 0.05;
  WorkerFactory factory = [&](const std::string& worker_id, int incarnation) {
    LifecycleConfig lc_config;
    lc_config.poll_interval = 0.001;
    lc_config.visibility_timeout = 0.05;
    TaskHandler handler = [&, incarnation](TaskContext&) {
      if (incarnation == 0) {  // only the initial worker wedges
        while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return TaskOutcome::kAbandoned;
      }
      completed.fetch_add(1);
      return TaskOutcome::kCompleted;
    };
    auto lc = std::make_shared<TaskLifecycle>(worker_id, queue_, handler, lc_config, metrics_);
    lc->start();
    return SupervisedWorker{lc, lc.get()};
  };
  WorkerSupervisor supervisor(factory, config);
  supervisor.start();
  EXPECT_TRUE(wait_until([&] { return completed.load() == 1; }));
  EXPECT_GE(supervisor.restarts(), 1);
  release.store(true);  // unwedge so stop() can join the retired worker
  supervisor.stop();
  EXPECT_EQ(queue_->undeleted(), 0u);
}

TEST_F(WorkerSupervisorTest, StopIsIdempotentAndStartableOnlyOnce) {
  WorkerSupervisor supervisor(lifecycle_factory([](TaskContext&) {
                                return TaskOutcome::kCompleted;
                              }),
                              fast_config(2));
  supervisor.start();
  supervisor.stop();
  supervisor.stop();  // no-op
  EXPECT_EQ(supervisor.alive_workers(), 0);
}

}  // namespace
}  // namespace ppc::runtime
