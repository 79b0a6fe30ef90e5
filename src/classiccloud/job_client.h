// Client side of the Classic Cloud framework (§2.1.3, Figure 1):
// "The client populates the scheduling queue with tasks, while the
// worker-processes running in cloud instances pick tasks from the
// scheduling queue."
//
// JobClient uploads the input files to cloud storage, enqueues one task
// message per file, and tracks completion by draining the monitoring queue.
// WorkerPool manages a set of Worker threads — one per (instance x worker
// slot) in a real deployment; the paper's "interesting feature" of mixing
// cloud and local workers falls out for free, since any pool sharing the
// same queues joins the same computation.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "classiccloud/task.h"
#include "classiccloud/worker.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"
#include "storage/storage_backend.h"

namespace ppc::classiccloud {

class JobClient {
 public:
  /// Creates/attaches the job's bucket and its two queues
  /// ("<job_id>-tasks", "<job_id>-monitor").
  JobClient(storage::StorageBackend& store, cloudq::QueueService& queues, std::string job_id,
            std::string bucket = "job");

  const std::string& job_id() const { return job_id_; }
  const std::string& bucket() const { return bucket_; }
  std::shared_ptr<cloudq::MessageQueue> task_queue() const { return task_queue_; }
  std::shared_ptr<cloudq::MessageQueue> monitor_queue() const { return monitor_queue_; }

  /// Uploads each (name, data) input file as "input/<name>" and enqueues a
  /// task message per file. `shared_files` (e.g. the BLAST NR database) are
  /// uploaded once as "shared/<name>" and referenced from every task
  /// message, so workers fetch them through their block cache. Returns the
  /// task specs in submission order.
  std::vector<TaskSpec> submit(
      const std::vector<std::pair<std::string, std::string>>& files,
      const std::vector<std::pair<std::string, std::string>>& shared_files = {});

  /// Blocks until every submitted task has a "done" monitor record and a
  /// visible output blob, or until `timeout` real seconds pass. Duplicate
  /// completions (at-least-once) collapse by task id.
  bool wait_for_completion(Seconds timeout, Seconds poll_interval = 0.005);

  /// Monitor records seen so far, by task id (first completion wins).
  const std::map<std::string, MonitorRecord>& completions() const { return completions_; }

  /// Live progress estimate from the monitoring queue — what the paper's
  /// monitoring queue exists for (§2.1.3). Drains pending monitor messages
  /// first; the ETA extrapolates the observed completion rate.
  struct Progress {
    std::size_t completed = 0;
    std::size_t total = 0;
    Seconds elapsed = 0.0;        // since the first submit
    double tasks_per_second = 0.0;
    Seconds eta = 0.0;            // 0 when done or not yet estimable
    double fraction() const {
      return total == 0 ? 0.0 : static_cast<double>(completed) / static_cast<double>(total);
    }
  };
  Progress progress();

  /// Fetches the output blob of a task, if visible. The payload aliases the
  /// stored blob (zero-copy); null when not yet visible.
  std::shared_ptr<const std::string> fetch_output(const TaskSpec& task);

  const std::vector<TaskSpec>& tasks() const { return tasks_; }

 private:
  void drain_monitor_queue();

  storage::StorageBackend& store_;
  std::string job_id_;
  std::string bucket_;
  std::shared_ptr<cloudq::MessageQueue> task_queue_;
  std::shared_ptr<cloudq::MessageQueue> monitor_queue_;
  std::vector<TaskSpec> tasks_;
  std::map<std::string, MonitorRecord> completions_;
  /// Leading tasks with a completion record and a visible output.
  std::size_t confirmed_ = 0;
  ppc::SystemClock clock_;
  Seconds first_submit_time_ = -1.0;
};

/// A fleet of workers sharing one scheduling queue — the paper's pool of
/// "worker processes" across instances. Also usable as the *local* half of
/// a hybrid cloud+local deployment (just build two pools on the same
/// queues).
class WorkerPool {
 public:
  /// All workers in the pool publish into one runtime::MetricsRegistry
  /// (config.metrics when supplied, a fresh shared one otherwise), scoped
  /// by worker id.
  WorkerPool(storage::StorageBackend& store, std::shared_ptr<cloudq::MessageQueue> task_queue,
             std::shared_ptr<cloudq::MessageQueue> monitor_queue, TaskExecutor executor,
             WorkerConfig config, int num_workers, std::string id_prefix = "worker");

  void start_all();
  void stop_all();
  void join_all();

  std::size_t size() const { return workers_.size(); }
  Worker& worker(std::size_t i) { return *workers_.at(i); }

  /// Sum of the per-worker stats.
  WorkerStats aggregate_stats() const;

  /// The registry every worker in the pool publishes to.
  runtime::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  std::shared_ptr<runtime::MetricsRegistry> metrics_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace ppc::classiccloud
