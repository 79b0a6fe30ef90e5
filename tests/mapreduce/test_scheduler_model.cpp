// Differential test: the indexed TaskScheduler against a reference model
// that decides every call by scanning all tasks — the straightforward O(n)
// implementation the indexes replaced, kept here verbatim. Both are driven
// through the same seeded random operation sequences and must agree on
// every observable after every operation.
#include <algorithm>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "mapreduce/scheduler.h"

namespace ppc::mapreduce {
namespace {

class ReferenceScheduler {
 public:
  using Stats = TaskScheduler::Stats;

  ReferenceScheduler(std::vector<TaskInfo> tasks, SchedulerConfig config)
      : tasks_(std::move(tasks)), config_(config), runtime_(tasks_.size()) {
    PPC_REQUIRE(!tasks_.empty(), "scheduler needs at least one task");
    PPC_REQUIRE(config_.max_attempts >= 1, "max_attempts must be >= 1");
    PPC_REQUIRE(config_.speculative_slowdown > 1.0, "speculative_slowdown must exceed 1");
  }

  std::optional<Assignment> next_task(minihdfs::NodeId node, Seconds now) {
    std::lock_guard lock(mu_);
    bool local = false;
    bool speculative = false;
    std::optional<std::size_t> picked = pick_pending_locked(node, &local);
    if (!picked) {
      picked = pick_straggler_locked(node, now);
      if (!picked) return std::nullopt;
      speculative = true;
      local = std::find(tasks_[*picked].preferred.begin(), tasks_[*picked].preferred.end(),
                        node) != tasks_[*picked].preferred.end();
    }

    TaskRuntime& rt = runtime_[*picked];
    Assignment a;
    a.task_id = static_cast<int>(*picked);
    a.attempt_id = rt.attempts_started++;
    a.node = node;
    a.data_local = local;
    a.speculative = speculative;

    rt.state = TaskState::kRunning;
    rt.live.push_back({a.attempt_id, node, now, speculative});

    if (speculative) {
      ++stats_.speculative_assignments;
    } else if (local) {
      ++stats_.local_assignments;
    } else {
      ++stats_.remote_assignments;
    }
    return a;
  }

  bool report_completed(const Assignment& a, Seconds now) {
    std::lock_guard lock(mu_);
    PPC_REQUIRE(a.task_id >= 0 && a.task_id < static_cast<int>(tasks_.size()),
                "unknown task id");
    TaskRuntime& rt = runtime_[static_cast<std::size_t>(a.task_id)];
    const auto it = std::find_if(rt.live.begin(), rt.live.end(), [&a](const RunningAttempt& r) {
      return r.attempt_id == a.attempt_id;
    });
    PPC_REQUIRE(it != rt.live.end(), "completion for an attempt that is not live");
    const Seconds duration = now - it->start;
    rt.live.erase(it);

    if (rt.state == TaskState::kCompleted) {
      ++stats_.wasted_attempts;
      return false;
    }
    rt.state = TaskState::kCompleted;
    ++stats_.completed_tasks;
    completed_durations_.push_back(duration);
    return true;
  }

  void report_failed(const Assignment& a, Seconds /*now*/) {
    std::lock_guard lock(mu_);
    PPC_REQUIRE(a.task_id >= 0 && a.task_id < static_cast<int>(tasks_.size()),
                "unknown task id");
    TaskRuntime& rt = runtime_[static_cast<std::size_t>(a.task_id)];
    const auto it = std::find_if(rt.live.begin(), rt.live.end(), [&a](const RunningAttempt& r) {
      return r.attempt_id == a.attempt_id;
    });
    PPC_REQUIRE(it != rt.live.end(), "failure for an attempt that is not live");
    rt.live.erase(it);
    ++stats_.failed_attempts;

    if (rt.state == TaskState::kCompleted) return;
    if (!rt.live.empty()) return;

    if (rt.attempts_started >= config_.max_attempts) {
      rt.state = TaskState::kFailed;
    } else {
      rt.state = TaskState::kPending;
    }
  }

  bool job_done() const {
    std::lock_guard lock(mu_);
    return std::all_of(runtime_.begin(), runtime_.end(), [](const TaskRuntime& rt) {
      return rt.state == TaskState::kCompleted || rt.state == TaskState::kFailed;
    });
  }

  bool job_succeeded() const {
    std::lock_guard lock(mu_);
    return std::all_of(runtime_.begin(), runtime_.end(), [](const TaskRuntime& rt) {
      return rt.state == TaskState::kCompleted;
    });
  }

  bool task_completed(int task_id) const {
    std::lock_guard lock(mu_);
    return runtime_[static_cast<std::size_t>(task_id)].state == TaskState::kCompleted;
  }

  bool attempt_useful(const Assignment& a) const {
    std::lock_guard lock(mu_);
    return runtime_[static_cast<std::size_t>(a.task_id)].state != TaskState::kCompleted;
  }

  Stats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }

 private:
  enum class TaskState { kPending, kRunning, kCompleted, kFailed };

  struct RunningAttempt {
    int attempt_id = 0;
    minihdfs::NodeId node = 0;
    Seconds start = 0.0;
    bool speculative = false;
  };

  struct TaskRuntime {
    TaskState state = TaskState::kPending;
    int attempts_started = 0;
    std::vector<RunningAttempt> live;
  };

  std::optional<std::size_t> pick_pending_locked(minihdfs::NodeId node, bool* local) const {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (runtime_[i].state != TaskState::kPending) continue;
      const auto& pref = tasks_[i].preferred;
      if (std::find(pref.begin(), pref.end(), node) != pref.end()) {
        *local = true;
        return i;
      }
    }
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (runtime_[i].state == TaskState::kPending) {
        *local = false;
        return i;
      }
    }
    return std::nullopt;
  }

  std::optional<std::size_t> pick_straggler_locked(minihdfs::NodeId node, Seconds now) const {
    if (!config_.speculative_execution) return std::nullopt;
    if (completed_durations_.size() < config_.min_completions_for_speculation) return std::nullopt;

    std::vector<Seconds> durations = completed_durations_;
    std::nth_element(durations.begin(), durations.begin() + durations.size() / 2,
                     durations.end());
    const Seconds median = durations[durations.size() / 2];
    const Seconds threshold = config_.speculative_slowdown * median;

    std::optional<std::size_t> best;
    Seconds best_elapsed = threshold;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const TaskRuntime& rt = runtime_[i];
      if (rt.state != TaskState::kRunning || rt.live.size() != 1) continue;
      if (rt.live.front().node == node) continue;
      const Seconds elapsed = now - rt.live.front().start;
      if (elapsed > best_elapsed) {
        best_elapsed = elapsed;
        best = i;
      }
    }
    return best;
  }

  std::vector<TaskInfo> tasks_;
  SchedulerConfig config_;

  mutable std::mutex mu_;
  std::vector<TaskRuntime> runtime_;
  std::vector<Seconds> completed_durations_;
  Stats stats_;
};

void expect_same(const std::optional<Assignment>& got, const std::optional<Assignment>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->task_id, want->task_id);
  EXPECT_EQ(got->attempt_id, want->attempt_id);
  EXPECT_EQ(got->node, want->node);
  EXPECT_EQ(got->data_local, want->data_local);
  EXPECT_EQ(got->speculative, want->speculative);
}

void expect_same(const TaskScheduler::Stats& got, const TaskScheduler::Stats& want) {
  EXPECT_EQ(got.local_assignments, want.local_assignments);
  EXPECT_EQ(got.remote_assignments, want.remote_assignments);
  EXPECT_EQ(got.speculative_assignments, want.speculative_assignments);
  EXPECT_EQ(got.failed_attempts, want.failed_attempts);
  EXPECT_EQ(got.wasted_attempts, want.wasted_attempts);
  EXPECT_EQ(got.completed_tasks, want.completed_tasks);
}

/// One seeded scenario: a random job shape and config, then random
/// heartbeats, completions and failures until both schedulers finish (or
/// the step budget runs out), comparing after every operation. Returns the
/// final stats and whether the job succeeded.
std::pair<TaskScheduler::Stats, bool> run_scenario(std::uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.uniform_int(1, 40));
  const int data_nodes = static_cast<int>(rng.uniform_int(1, 6));
  std::vector<TaskInfo> tasks;
  for (int i = 0; i < n; ++i) {
    TaskInfo t;
    t.task_id = i;
    t.name = "t" + std::to_string(i);
    // 0-3 preferences drawn with replacement, so duplicates occur.
    const auto prefs = rng.uniform_int(0, 3);
    for (int p = 0; p < prefs; ++p) {
      t.preferred.push_back(static_cast<minihdfs::NodeId>(rng.uniform_int(0, data_nodes - 1)));
    }
    tasks.push_back(t);
  }
  SchedulerConfig config;
  config.speculative_execution = rng.bernoulli(0.7);
  config.speculative_slowdown = 1.0 + rng.uniform(0.1, 2.0);
  config.min_completions_for_speculation = static_cast<std::size_t>(rng.uniform_int(1, 5));
  config.max_attempts = static_cast<int>(rng.uniform_int(1, 4));
  const double fail_prob = rng.uniform(0.0, 0.4);

  TaskScheduler sched(tasks, config);
  ReferenceScheduler ref(tasks, config);

  std::vector<Assignment> live;
  std::vector<Assignment> finished;  // for attempt_useful on retired attempts
  Seconds now = 0.0;
  for (int step = 0; step < 600; ++step) {
    if (sched.job_done() && ref.job_done() && live.empty()) break;
    // Integer times make elapsed-time ties (and so the tie-break) common;
    // occasional backwards steps mimic unsynchronized real-thread clocks.
    now += rng.bernoulli(0.1) ? -static_cast<double>(rng.uniform_int(0, 3))
                              : static_cast<double>(rng.uniform_int(0, 4));
    const double op = rng.uniform();
    if (live.empty() || op < 0.45) {
      // Nodes -1 and data_nodes..data_nodes+1 hold no local tasks.
      const auto node = static_cast<minihdfs::NodeId>(rng.uniform_int(-1, data_nodes + 1));
      const auto got = sched.next_task(node, now);
      const auto want = ref.next_task(node, now);
      expect_same(got, want);
      if (got) live.push_back(*got);
    } else {
      const std::size_t pick = rng.index(live.size());
      const Assignment a = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      finished.push_back(a);
      if (rng.bernoulli(fail_prob)) {
        sched.report_failed(a, now);
        ref.report_failed(a, now);
      } else {
        EXPECT_EQ(sched.report_completed(a, now), ref.report_completed(a, now));
      }
    }
    EXPECT_EQ(sched.job_done(), ref.job_done());
    EXPECT_EQ(sched.job_succeeded(), ref.job_succeeded());
    for (int i = 0; i < n; ++i) EXPECT_EQ(sched.task_completed(i), ref.task_completed(i));
    for (const auto* attempts : {&live, &finished}) {
      for (const Assignment& a : *attempts) {
        EXPECT_EQ(sched.attempt_useful(a), ref.attempt_useful(a));
      }
    }
    expect_same(sched.stats(), ref.stats());
    if (::testing::Test::HasFailure()) break;
  }
  return {sched.stats(), sched.job_succeeded()};
}

TEST(TaskSchedulerModel, MatchesScanningReferenceAcrossSeeds) {
  int speculative = 0, wasted = 0, succeeded = 0, failed_jobs = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto [stats, ok] = run_scenario(seed);
    if (HasFailure()) return;  // one reproducing seed is enough
    speculative += stats.speculative_assignments;
    wasted += stats.wasted_attempts;
    (ok ? succeeded : failed_jobs) += 1;
  }
  // The seeds must reach every decision path, not just the pending picks.
  EXPECT_GT(speculative, 100);
  EXPECT_GT(wasted, 10);
  EXPECT_GT(succeeded, 100);
  EXPECT_GT(failed_jobs, 100);
}

}  // namespace
}  // namespace ppc::mapreduce
