#include "mapreduce/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/error.h"
#include "common/rng.h"

namespace ppc::mapreduce {
namespace {

std::vector<TaskInfo> make_tasks(int n, std::vector<std::vector<minihdfs::NodeId>> preferred = {}) {
  std::vector<TaskInfo> tasks;
  for (int i = 0; i < n; ++i) {
    TaskInfo t;
    t.task_id = i;
    t.path = "/in/t" + std::to_string(i);
    t.name = "t" + std::to_string(i);
    if (!preferred.empty()) t.preferred = preferred[static_cast<std::size_t>(i)];
    tasks.push_back(t);
  }
  return tasks;
}

TEST(TaskScheduler, AssignsEveryTaskOnce) {
  TaskScheduler sched(make_tasks(5));
  for (int i = 0; i < 5; ++i) {
    const auto a = sched.next_task(0, 0.0);
    ASSERT_TRUE(a.has_value());
    sched.report_completed(*a, 1.0);
  }
  EXPECT_TRUE(sched.job_done());
  EXPECT_TRUE(sched.job_succeeded());
  EXPECT_EQ(sched.stats().completed_tasks, 5);
}

TEST(TaskScheduler, PrefersDataLocalTasks) {
  // Node 1 holds task 2's data; an idle node 1 must take task 2 first.
  TaskScheduler sched(make_tasks(3, {{0}, {0}, {1}}));
  const auto a = sched.next_task(1, 0.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->task_id, 2);
  EXPECT_TRUE(a->data_local);
  EXPECT_EQ(sched.stats().local_assignments, 1);
}

TEST(TaskScheduler, FallsBackToRemoteWhenNoLocalWork) {
  TaskScheduler sched(make_tasks(2, {{0}, {0}}));
  const auto a = sched.next_task(5, 0.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(a->data_local);
  EXPECT_EQ(sched.stats().remote_assignments, 1);
}

TEST(TaskScheduler, NoWorkWhenAllRunning) {
  TaskScheduler sched(make_tasks(1));
  ASSERT_TRUE(sched.next_task(0, 0.0).has_value());
  EXPECT_FALSE(sched.next_task(1, 0.0).has_value());  // nothing pending, no history yet
}

TEST(TaskScheduler, FailedTaskIsRerun) {
  SchedulerConfig config;
  config.max_attempts = 3;
  TaskScheduler sched(make_tasks(1), config);
  auto a1 = sched.next_task(0, 0.0);
  sched.report_failed(*a1, 1.0);
  EXPECT_FALSE(sched.job_done());
  auto a2 = sched.next_task(1, 2.0);
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a2->task_id, 0);
  EXPECT_NE(a2->attempt_id, a1->attempt_id);
  sched.report_completed(*a2, 3.0);
  EXPECT_TRUE(sched.job_succeeded());
  EXPECT_EQ(sched.stats().failed_attempts, 1);
}

TEST(TaskScheduler, ExhaustedRetriesFailTheJob) {
  SchedulerConfig config;
  config.max_attempts = 2;
  TaskScheduler sched(make_tasks(1), config);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto a = sched.next_task(0, 0.0);
    ASSERT_TRUE(a.has_value());
    sched.report_failed(*a, 1.0);
  }
  EXPECT_TRUE(sched.job_done());
  EXPECT_FALSE(sched.job_succeeded());
  EXPECT_FALSE(sched.next_task(0, 2.0).has_value());
}

TEST(TaskScheduler, SpeculativeExecutionTargetsStragglers) {
  SchedulerConfig config;
  config.min_completions_for_speculation = 2;
  config.speculative_slowdown = 1.5;
  TaskScheduler sched(make_tasks(4), config);

  // Tasks 0,1 complete quickly (duration 10).
  auto a0 = sched.next_task(0, 0.0);
  auto a1 = sched.next_task(0, 0.0);
  sched.report_completed(*a0, 10.0);
  sched.report_completed(*a1, 10.0);
  // Task 2 starts at t=10 and drags on; task 3 completes.
  auto a2 = sched.next_task(0, 10.0);
  auto a3 = sched.next_task(1, 10.0);
  sched.report_completed(*a3, 20.0);
  ASSERT_EQ(a2->task_id, 2);

  // At t=40, task 2 has run 30s > 1.5 x median(10): node 1 speculates.
  const auto spec = sched.next_task(1, 40.0);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->task_id, 2);
  EXPECT_TRUE(spec->speculative);
  EXPECT_EQ(sched.stats().speculative_assignments, 1);

  // The twin wins; the original attempt's completion is wasted.
  EXPECT_TRUE(sched.report_completed(*spec, 45.0));
  EXPECT_FALSE(sched.report_completed(*a2, 50.0));
  EXPECT_EQ(sched.stats().wasted_attempts, 1);
  EXPECT_TRUE(sched.job_succeeded());
}

TEST(TaskScheduler, NoSpeculationOnTheSuspectNode) {
  SchedulerConfig config;
  config.min_completions_for_speculation = 1;
  TaskScheduler sched(make_tasks(2), config);
  auto fast = sched.next_task(0, 0.0);
  sched.report_completed(*fast, 5.0);
  auto slow = sched.next_task(0, 5.0);
  ASSERT_TRUE(slow.has_value());
  // Node 0 runs the straggler; it must not speculate against itself.
  EXPECT_FALSE(sched.next_task(0, 100.0).has_value());
  EXPECT_TRUE(sched.next_task(1, 100.0).has_value());
}

TEST(TaskScheduler, SpeculationDisabledByConfig) {
  SchedulerConfig config;
  config.speculative_execution = false;
  config.min_completions_for_speculation = 1;
  TaskScheduler sched(make_tasks(2), config);
  auto fast = sched.next_task(0, 0.0);
  sched.report_completed(*fast, 5.0);
  (void)sched.next_task(0, 5.0);
  EXPECT_FALSE(sched.next_task(1, 1000.0).has_value());
}

TEST(TaskScheduler, AttemptUsefulReflectsCompletion) {
  TaskScheduler sched(make_tasks(1));
  const auto a = sched.next_task(0, 0.0);
  EXPECT_TRUE(sched.attempt_useful(*a));
  sched.report_completed(*a, 1.0);
  EXPECT_FALSE(sched.attempt_useful(*a));
}

TEST(TaskScheduler, FailureAfterTwinCompletionDoesNotRequeue) {
  SchedulerConfig config;
  config.min_completions_for_speculation = 1;
  TaskScheduler sched(make_tasks(2), config);
  auto fast = sched.next_task(0, 0.0);
  sched.report_completed(*fast, 5.0);
  auto slow = sched.next_task(0, 5.0);
  auto twin = sched.next_task(1, 100.0);
  ASSERT_TRUE(twin.has_value());
  sched.report_completed(*twin, 105.0);
  sched.report_failed(*slow, 106.0);  // straggler dies after twin won
  EXPECT_TRUE(sched.job_succeeded());
  EXPECT_FALSE(sched.next_task(0, 107.0).has_value());
}

TEST(TaskScheduler, NoSpeculationBelowMinCompletions) {
  // With fewer completions than the configured floor there is no reliable
  // median to judge stragglers against, so no duplicates may launch no
  // matter how long an attempt has been running.
  SchedulerConfig config;
  config.min_completions_for_speculation = 3;
  TaskScheduler sched(make_tasks(4), config);
  auto a0 = sched.next_task(0, 0.0);
  auto a1 = sched.next_task(0, 0.0);
  sched.report_completed(*a0, 10.0);
  sched.report_completed(*a1, 10.0);  // only 2 completions: below the floor
  auto straggler = sched.next_task(0, 10.0);
  auto other = sched.next_task(0, 10.0);
  ASSERT_TRUE(straggler.has_value());
  ASSERT_TRUE(other.has_value());
  // Both remaining tasks run absurdly long; an idle node still gets nothing.
  EXPECT_FALSE(sched.next_task(1, 100000.0).has_value());
  EXPECT_EQ(sched.stats().speculative_assignments, 0);
}

TEST(TaskScheduler, OriginalCompletionWinsRaceAgainstSpeculativeTwin) {
  // The mirror image of the twin-wins case: the original attempt finishes
  // first, so the speculative duplicate's completion must be rejected and
  // recorded as wasted work — and the task completes exactly once.
  SchedulerConfig config;
  config.min_completions_for_speculation = 1;
  TaskScheduler sched(make_tasks(2), config);
  auto fast = sched.next_task(0, 0.0);
  sched.report_completed(*fast, 5.0);
  auto original = sched.next_task(0, 5.0);
  auto twin = sched.next_task(1, 100.0);
  ASSERT_TRUE(twin.has_value());
  EXPECT_TRUE(twin->speculative);
  EXPECT_EQ(twin->task_id, original->task_id);

  EXPECT_TRUE(sched.report_completed(*original, 101.0));
  EXPECT_FALSE(sched.attempt_useful(*twin));  // engines may kill it here
  EXPECT_FALSE(sched.report_completed(*twin, 102.0));
  EXPECT_EQ(sched.stats().wasted_attempts, 1);
  EXPECT_EQ(sched.stats().completed_tasks, 2);
  EXPECT_TRUE(sched.job_succeeded());
}

TEST(TaskScheduler, RetryBudgetExhaustionFailsJobWhileOthersComplete) {
  // One poisoned task burns its whole attempt budget while healthy tasks
  // complete around it: the job must end, be marked failed, and hand out no
  // further attempts for the dead task.
  SchedulerConfig config;
  config.max_attempts = 3;
  TaskScheduler sched(make_tasks(3), config);
  int failures = 0;
  Seconds now = 0.0;
  while (!sched.job_done()) {
    ASSERT_LT(now, 1000.0) << "scheduler failed to converge";
    const auto a = sched.next_task(0, now);
    now += 1.0;
    if (!a.has_value()) continue;
    if (a->task_id == 1) {
      sched.report_failed(*a, now);
      ++failures;
    } else {
      sched.report_completed(*a, now);
    }
  }
  EXPECT_EQ(failures, 3);  // exactly max_attempts failures before giving up
  EXPECT_FALSE(sched.job_succeeded());
  EXPECT_FALSE(sched.task_completed(1));
  EXPECT_TRUE(sched.task_completed(0));
  EXPECT_TRUE(sched.task_completed(2));
  EXPECT_EQ(sched.stats().failed_attempts, 3);
  EXPECT_EQ(sched.stats().completed_tasks, 2);
  EXPECT_FALSE(sched.next_task(0, now).has_value());
}

TEST(TaskScheduler, ConcurrentHeartbeatsFinishEveryTaskExactlyOnce) {
  // Real threads race heartbeats, completions and failures on one
  // scheduler. Each thread holds up to two attempts at a time and the
  // speculation bar is low, so twins launch and lose races. Only first
  // attempts fail, so every task must still finish, exactly once.
  constexpr int kTasks = 2000;
  constexpr int kThreads = 6;
  SchedulerConfig config;
  config.min_completions_for_speculation = 1;
  config.speculative_slowdown = 1.01;
  std::vector<std::vector<minihdfs::NodeId>> preferred;
  for (int i = 0; i < kTasks; ++i) preferred.push_back({i % 5});
  TaskScheduler sched(make_tasks(kTasks, preferred), config);

  std::vector<std::atomic<int>> wins(kTasks);
  std::atomic<int> assigned{0}, failures{0}, late{0};
  const auto start = std::chrono::steady_clock::now();
  const auto clock = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  const auto finish = [&](const Assignment& a, Rng& rng) {
    if (a.attempt_id == 0 && rng.bernoulli(0.2)) {
      sched.report_failed(a, clock());
      ++failures;
    } else if (sched.report_completed(a, clock())) {
      ++wins[static_cast<std::size_t>(a.task_id)];
    } else {
      ++late;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      std::vector<Assignment> held;
      while (!sched.job_done()) {
        if (held.size() < 2) {
          if (const auto a = sched.next_task(t % 4, clock())) {
            ++assigned;
            held.push_back(*a);
            continue;
          }
        }
        if (held.empty()) {
          std::this_thread::yield();
          continue;
        }
        const std::size_t pick = rng.index(held.size());
        const Assignment a = held[pick];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
        finish(a, rng);
      }
      for (const Assignment& a : held) finish(a, rng);  // twins that lost
    });
  }
  for (auto& th : threads) th.join();

  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(wins[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
  EXPECT_TRUE(sched.job_succeeded());
  const auto stats = sched.stats();
  EXPECT_EQ(stats.completed_tasks, kTasks);
  EXPECT_EQ(stats.local_assignments + stats.remote_assignments + stats.speculative_assignments,
            assigned.load());
  EXPECT_EQ(assigned.load(), kTasks + failures.load() + late.load());
  EXPECT_EQ(stats.failed_attempts, failures.load());
  EXPECT_EQ(stats.wasted_attempts, late.load());
}

TEST(TaskScheduler, RejectsMalformedConstruction) {
  EXPECT_THROW(TaskScheduler({}, {}), ppc::InvalidArgument);
  std::vector<TaskInfo> bad = make_tasks(2);
  bad[1].task_id = 7;  // ids must be dense
  EXPECT_THROW(TaskScheduler(std::move(bad), {}), ppc::InvalidArgument);
  SchedulerConfig no_attempts;
  no_attempts.max_attempts = 0;
  EXPECT_THROW(TaskScheduler(make_tasks(1), no_attempts), ppc::InvalidArgument);
  // Zero completions would ask for the median of nothing.
  SchedulerConfig no_history;
  no_history.min_completions_for_speculation = 0;
  EXPECT_THROW(TaskScheduler(make_tasks(1), no_history), ppc::InvalidArgument);
}

}  // namespace
}  // namespace ppc::mapreduce
