// The Hadoop-analog task scheduler, as a pure state machine.
//
// Reproduces the scheduling behaviour §2.2 credits for Hadoop's load
// balancing and fault tolerance:
//  * one global task queue, pulled dynamically by idle slots ("a global
//    queue for the task scheduling, achieving natural load balancing");
//  * data-locality preference — an idle node takes a task whose replicas it
//    holds before stealing a remote one;
//  * speculative execution — when no pending work remains, a slot may run a
//    duplicate attempt of the slowest in-flight task ("duplicate execution
//    of slower executing tasks");
//  * failure handling — failed attempts re-queue the task up to a retry
//    budget ("handles task failures by rerunning of the failed tasks").
//
// Being a plain state machine keeps it shared between the real-thread
// engine's one slot loop (mapreduce::detail::run_phase, every phase of
// LocalJobRunner and ShuffleJobRunner) and the discrete-event simulation
// driver (core::simulate's "hadoop"), so tests of this class cover both.
// All methods are thread-safe.
//
// Decisions (the exact contract; tests/mapreduce/test_scheduler_model.cpp
// pins it against a scan-everything reference):
//  * a fresh pick is the lowest-id pending task data-local to the asking
//    node, else the lowest-id pending task;
//  * with nothing pending, the speculative pick is the running task with
//    exactly one live attempt, not on the asking node, whose elapsed time
//    strictly exceeds `speculative_slowdown` x median and is largest; ties
//    go to the lowest id;
//  * the median is the completed-attempt duration of rank floor(n/2)
//    (0-based, ascending) among the n completions so far.
//
// Cost per call, with n tasks and s running single-attempt tasks (at most
// the number of slots): next_task is amortized O(log nodes + s) — pending
// picks advance per-node and global cursors that only move back when
// report_failed re-queues a task; report_completed is O(log n) for the
// median heaps; job_done/job_succeeded are O(1) counter reads. Every index
// is a flat vector, so memory stays linear in n.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/units.h"
#include "minihdfs/mini_hdfs.h"

namespace ppc::mapreduce {

struct SchedulerConfig {
  bool speculative_execution = true;
  /// An attempt is a straggler candidate when its elapsed time exceeds
  /// `speculative_slowdown` x (median completed-attempt duration).
  double speculative_slowdown = 1.5;
  /// Speculation waits for this many completions to estimate the median
  /// (must be >= 1).
  std::size_t min_completions_for_speculation = 5;
  /// Attempts per task before the task (and job) is declared failed.
  int max_attempts = 4;
};

struct TaskInfo {
  int task_id = 0;
  std::string path;                           // HDFS path (the map value)
  std::string name;                           // file name (the map key)
  Bytes size = 0.0;
  std::vector<minihdfs::NodeId> preferred;    // data-local nodes
};

struct Assignment {
  int task_id = 0;
  int attempt_id = 0;  // unique per task
  minihdfs::NodeId node = 0;
  bool data_local = false;
  bool speculative = false;
};

class TaskScheduler {
 public:
  struct Stats {
    int local_assignments = 0;
    int remote_assignments = 0;
    int speculative_assignments = 0;
    int failed_attempts = 0;
    /// Speculative attempts whose twin won the race.
    int wasted_attempts = 0;
    int completed_tasks = 0;
  };

  TaskScheduler(std::vector<TaskInfo> tasks, SchedulerConfig config = {});

  /// An idle slot on `node` asks for work at time `now`. Returns an
  /// assignment (fresh task, preferably data-local, else a speculative
  /// duplicate) or nullopt when nothing is runnable right now.
  std::optional<Assignment> next_task(minihdfs::NodeId node, Seconds now);

  /// Reports a finished attempt. Returns true when this attempt is the
  /// task's *first* completion (its output is the one that counts); false
  /// for late duplicates, which the engine should discard.
  bool report_completed(const Assignment& a, Seconds now);

  /// Reports a failed attempt; the task re-queues unless its retry budget
  /// is exhausted (which fails the job).
  void report_failed(const Assignment& a, Seconds now);

  /// True when a completed/failed verdict exists for every task.
  bool job_done() const;

  /// True when every task completed successfully.
  bool job_succeeded() const;

  bool task_completed(int task_id) const;

  /// True while the attempt's result would still be accepted (its task has
  /// not completed through another attempt). Engines may use this to kill
  /// obsolete speculative twins early.
  bool attempt_useful(const Assignment& a) const;

  std::size_t total_tasks() const { return tasks_.size(); }
  const TaskInfo& task(int task_id) const { return tasks_[static_cast<std::size_t>(task_id)]; }
  Stats stats() const;

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
    int solo_slot = -1;  // index in solo_, or -1 when not a speculation candidate
    std::vector<RunningAttempt> live;
  };

  std::optional<std::size_t> pick_pending_locked(minihdfs::NodeId node, bool* local);
  std::optional<std::size_t> pick_straggler_locked(minihdfs::NodeId node, Seconds now) const;
  std::optional<std::size_t> node_slot(minihdfs::NodeId node) const;
  void requeue_locked(std::size_t task);
  void sync_solo_locked(std::size_t task);
  void add_duration_locked(Seconds duration);

  std::vector<TaskInfo> tasks_;
  SchedulerConfig config_;

  mutable std::mutex mu_;
  std::vector<TaskRuntime> runtime_;
  Stats stats_;

  // Data-local pending index, CSR over the distinct preferred nodes:
  // node_tasks_[node_begin_[k] .. node_begin_[k+1]) lists, ascending, the
  // tasks that prefer nodes_[k]. Every task before node_cursor_[k] in that
  // range, and every task below pending_cursor_, is not pending.
  std::vector<minihdfs::NodeId> nodes_;
  std::vector<std::size_t> node_begin_;
  std::vector<int> node_tasks_;
  std::vector<std::size_t> node_cursor_;
  std::size_t pending_cursor_ = 0;

  std::size_t terminal_tasks_ = 0;  // completed + failed

  // Completed-attempt durations split at rank floor(n/2): lower_ (max-heap)
  // holds the floor(n/2) smallest, upper_ (min-heap) the rest, so the
  // median is upper_.top().
  std::priority_queue<Seconds> lower_;
  std::priority_queue<Seconds, std::vector<Seconds>, std::greater<>> upper_;

  // Running tasks with exactly one live attempt: the speculation candidates.
  std::vector<int> solo_;
};

}  // namespace ppc::mapreduce
