#include "mapreduce/scheduler.h"

#include <algorithm>

#include "common/error.h"

namespace ppc::mapreduce {

TaskScheduler::TaskScheduler(std::vector<TaskInfo> tasks, SchedulerConfig config)
    : tasks_(std::move(tasks)), config_(config), runtime_(tasks_.size()) {
  PPC_REQUIRE(!tasks_.empty(), "scheduler needs at least one task");
  PPC_REQUIRE(config_.max_attempts >= 1, "max_attempts must be >= 1");
  PPC_REQUIRE(config_.min_completions_for_speculation >= 1,
              "min_completions_for_speculation must be >= 1");
  PPC_REQUIRE(config_.speculative_slowdown > 1.0, "speculative_slowdown must exceed 1");
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    PPC_REQUIRE(tasks_[i].task_id == static_cast<int>(i),
                "task ids must be dense and in order");
  }

  // Build the per-node pending lists once, in task-id order so each list
  // is ascending. A node listed twice in one task's preferences lists the
  // task twice, which changes no pick.
  for (const TaskInfo& t : tasks_) {
    nodes_.insert(nodes_.end(), t.preferred.begin(), t.preferred.end());
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  node_begin_.assign(nodes_.size() + 1, 0);
  for (const TaskInfo& t : tasks_) {
    for (const minihdfs::NodeId node : t.preferred) ++node_begin_[*node_slot(node) + 1];
  }
  for (std::size_t k = 0; k < nodes_.size(); ++k) node_begin_[k + 1] += node_begin_[k];
  node_tasks_.resize(node_begin_.back());
  node_cursor_.assign(node_begin_.begin(), node_begin_.end() - 1);
  std::vector<std::size_t> fill = node_cursor_;
  for (const TaskInfo& t : tasks_) {
    for (const minihdfs::NodeId node : t.preferred) {
      node_tasks_[fill[*node_slot(node)]++] = t.task_id;
    }
  }
}

std::optional<std::size_t> TaskScheduler::node_slot(minihdfs::NodeId node) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  if (it == nodes_.end() || *it != node) return std::nullopt;
  return static_cast<std::size_t>(it - nodes_.begin());
}

std::optional<std::size_t> TaskScheduler::pick_pending_locked(minihdfs::NodeId node,
                                                              bool* local) {
  const auto pending = [this](std::size_t i) { return runtime_[i].state == TaskState::kPending; };
  // Pass 1: the lowest-id pending task that is data-local to `node`.
  if (const auto k = node_slot(node)) {
    std::size_t& cursor = node_cursor_[*k];
    const std::size_t end = node_begin_[*k + 1];
    while (cursor < end && !pending(static_cast<std::size_t>(node_tasks_[cursor]))) ++cursor;
    if (cursor < end) {
      *local = true;
      return static_cast<std::size_t>(node_tasks_[cursor]);
    }
  }
  // Pass 2: the lowest-id pending task (rack/off-switch in real Hadoop).
  while (pending_cursor_ < runtime_.size() && !pending(pending_cursor_)) ++pending_cursor_;
  if (pending_cursor_ < runtime_.size()) {
    *local = false;
    return pending_cursor_;
  }
  return std::nullopt;
}

void TaskScheduler::requeue_locked(std::size_t task) {
  runtime_[task].state = TaskState::kPending;
  pending_cursor_ = std::min(pending_cursor_, task);
  for (const minihdfs::NodeId node : tasks_[task].preferred) {
    const std::size_t k = *node_slot(node);
    const auto first = node_tasks_.begin() + static_cast<std::ptrdiff_t>(node_begin_[k]);
    const auto last = node_tasks_.begin() + static_cast<std::ptrdiff_t>(node_begin_[k + 1]);
    const auto at = static_cast<std::size_t>(
        std::lower_bound(first, last, static_cast<int>(task)) - node_tasks_.begin());
    node_cursor_[k] = std::min(node_cursor_[k], at);
  }
}

void TaskScheduler::sync_solo_locked(std::size_t task) {
  TaskRuntime& rt = runtime_[task];
  const bool candidate = rt.state == TaskState::kRunning && rt.live.size() == 1;
  if (candidate == (rt.solo_slot >= 0)) return;
  if (candidate) {
    rt.solo_slot = static_cast<int>(solo_.size());
    solo_.push_back(static_cast<int>(task));
    return;
  }
  const int moved = solo_.back();
  solo_[static_cast<std::size_t>(rt.solo_slot)] = moved;
  runtime_[static_cast<std::size_t>(moved)].solo_slot = rt.solo_slot;
  solo_.pop_back();
  rt.solo_slot = -1;
}

void TaskScheduler::add_duration_locked(Seconds duration) {
  if (!upper_.empty() && duration < upper_.top()) {
    lower_.push(duration);
  } else {
    upper_.push(duration);
  }
  // Rebalance so lower_ holds exactly floor(n/2) durations.
  const std::size_t want = (lower_.size() + upper_.size()) / 2;
  if (lower_.size() > want) {
    upper_.push(lower_.top());
    lower_.pop();
  } else if (lower_.size() < want) {
    lower_.push(upper_.top());
    upper_.pop();
  }
}

std::optional<std::size_t> TaskScheduler::pick_straggler_locked(minihdfs::NodeId node,
                                                                Seconds now) const {
  if (!config_.speculative_execution) return std::nullopt;
  if (lower_.size() + upper_.size() < config_.min_completions_for_speculation) {
    return std::nullopt;
  }
  const Seconds threshold = config_.speculative_slowdown * upper_.top();

  std::optional<std::size_t> best;
  Seconds best_elapsed = threshold;
  for (const int id : solo_) {
    const auto i = static_cast<std::size_t>(id);
    // Only tasks with exactly one live attempt get a speculative twin, and
    // never on the node already running it (that node is the suspect).
    const RunningAttempt& run = runtime_[i].live.front();
    if (run.node == node) continue;
    const Seconds elapsed = now - run.start;
    if (elapsed > best_elapsed || (best && elapsed == best_elapsed && i < *best)) {
      best_elapsed = elapsed;
      best = i;
    }
  }
  return best;
}

std::optional<Assignment> TaskScheduler::next_task(minihdfs::NodeId node, Seconds now) {
  std::lock_guard lock(mu_);
  bool local = false;
  bool speculative = false;
  std::optional<std::size_t> picked = pick_pending_locked(node, &local);
  if (!picked) {
    picked = pick_straggler_locked(node, now);
    if (!picked) return std::nullopt;
    speculative = true;
    local = std::find(tasks_[*picked].preferred.begin(), tasks_[*picked].preferred.end(), node) !=
            tasks_[*picked].preferred.end();
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
  sync_solo_locked(*picked);

  if (speculative) {
    ++stats_.speculative_assignments;
  } else if (local) {
    ++stats_.local_assignments;
  } else {
    ++stats_.remote_assignments;
  }
  return a;
}

bool TaskScheduler::report_completed(const Assignment& a, Seconds now) {
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
    // A speculative twin finished after the winner — its work is wasted.
    ++stats_.wasted_attempts;
    return false;
  }
  rt.state = TaskState::kCompleted;
  sync_solo_locked(static_cast<std::size_t>(a.task_id));
  ++stats_.completed_tasks;
  ++terminal_tasks_;
  add_duration_locked(duration);
  return true;
}

void TaskScheduler::report_failed(const Assignment& a, Seconds /*now*/) {
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

  if (rt.state == TaskState::kCompleted) return;  // twin already won; nothing to redo
  const auto task = static_cast<std::size_t>(a.task_id);
  if (rt.live.empty()) {
    if (rt.attempts_started >= config_.max_attempts) {
      rt.state = TaskState::kFailed;
      ++terminal_tasks_;
    } else {
      requeue_locked(task);  // "rerunning of the failed tasks"
    }
  }
  // The task left kRunning, or its surviving attempt now runs alone.
  sync_solo_locked(task);
}

bool TaskScheduler::job_done() const {
  std::lock_guard lock(mu_);
  return terminal_tasks_ == tasks_.size();
}

bool TaskScheduler::job_succeeded() const {
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(stats_.completed_tasks) == tasks_.size();
}

bool TaskScheduler::task_completed(int task_id) const {
  std::lock_guard lock(mu_);
  PPC_REQUIRE(task_id >= 0 && task_id < static_cast<int>(tasks_.size()), "unknown task id");
  return runtime_[static_cast<std::size_t>(task_id)].state == TaskState::kCompleted;
}

bool TaskScheduler::attempt_useful(const Assignment& a) const {
  std::lock_guard lock(mu_);
  PPC_REQUIRE(a.task_id >= 0 && a.task_id < static_cast<int>(tasks_.size()), "unknown task id");
  return runtime_[static_cast<std::size_t>(a.task_id)].state != TaskState::kCompleted;
}

TaskScheduler::Stats TaskScheduler::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace ppc::mapreduce
