// The Classic Cloud worker — the process that runs inside each EC2/Azure
// instance (§2.1.3, Figure 1).
//
// The poll loop itself (receive → handle → delete-after-completion, idle
// backoff, crash accounting) lives in runtime::TaskLifecycle; this adapter
// supplies the Classic Cloud task handler, exactly as the paper describes:
//
//  1. "retrieve the input files from the cloud storage through the web
//     service interface" (with the lifecycle's retry policy — the store is
//     eventually consistent);
//  2. process them with the configured executable (here: a C++ callable);
//  3. upload the result to cloud storage;
//  4. publish a status record to the monitoring queue.
//
// Fault injection goes through runtime::FaultInjector at the named sites
// below, so tests crash a worker at any step and assert the at-least-once /
// no-lost-task properties end to end. Stats are views over the lifecycle's
// MetricsRegistry — shared across a pool, scoped by worker id.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "classiccloud/task.h"
#include "cloudq/message_queue.h"
#include "runtime/task_lifecycle.h"
#include "storage/block_cache.h"
#include "storage/storage_backend.h"

namespace ppc::classiccloud {

/// The "executable program": input file bytes in, output file bytes out.
/// Must be idempotent and side-effect free — the framework's fault
/// tolerance depends on it (§2.1.3). Throwing fails the attempt; the task
/// message stays in the queue and reappears after its visibility timeout.
using TaskExecutor =
    std::function<std::string(const TaskSpec& task, const std::string& input)>;

/// Fault-injection sites fired by the worker, keyed by task id. Arm them on
/// a runtime::FaultInjector to crash a worker at the matching step.
namespace sites {
/// Got the message, did nothing yet.
inline const std::string kAfterReceive = "classiccloud.after_receive";
/// Computed the output, nothing uploaded.
inline const std::string kAfterExecute = "classiccloud.after_execute";
/// Output uploaded, message not deleted.
inline const std::string kAfterUpload = "classiccloud.after_upload";
}  // namespace sites

struct WorkerConfig {
  std::string bucket = "job";
  /// Tight polling interval and floor of the adaptive idle backoff (real
  /// seconds — keep small in tests).
  Seconds poll_interval = 0.005;
  /// Messages fetched per receive request (1..10, SQS ReceiveMessage
  /// MaxNumberOfMessages); the batch is worked through sequentially, so
  /// visibility_timeout must cover the whole batch.
  int receive_batch = 1;
  /// Completed-task acks buffered into one DeleteMessageBatch request; 1
  /// acks each task immediately. See LifecycleConfig::delete_batch.
  int delete_batch = 1;
  /// Visibility timeout requested on receive. Must exceed the worst-case
  /// task duration or tasks will be double-processed (the paper tunes this
  /// per application).
  Seconds visibility_timeout = 30.0;
  /// Stop after this many consecutive empty polls; <0 means run until
  /// request_stop().
  int max_idle_polls = -1;
  /// Visibility applied to deliveries this worker failed (prompt retry);
  /// < 0 leaves the original visibility window. See LifecycleConfig.
  Seconds abandon_visibility = -1.0;
  /// Fault injection (borrowed, not owned). Null = never.
  runtime::FaultInjector* faults = nullptr;
  /// Metrics registry shared across the pool; null = private registry.
  std::shared_ptr<runtime::MetricsRegistry> metrics;
  /// Tracer (borrowed, not owned). Null = no tracing. Adds fetch.input /
  /// compute / upload.output / monitor.report child spans to the lifecycle's
  /// task envelope, keyed by the task message id.
  runtime::Tracer* tracer = nullptr;
  /// When true each worker owns a storage::BlockCache and routes its
  /// shared-input fetches (TaskSpec::shared_keys) through it, so the BLAST
  /// NR database / GTM training matrix is downloaded once per worker
  /// instead of once per task. Counters land in the pool registry under
  /// "<worker-id>.blockcache.*". The cache takes BlockCacheConfig's
  /// defaults.
  bool enable_cache = false;
};

/// Snapshot view over the worker's counters in the MetricsRegistry.
struct WorkerStats {
  int messages_received = 0;
  int tasks_completed = 0;   // executed + uploaded + monitor sent
  int deletes_failed = 0;    // stale receipt: someone else re-ran the task
  int downloads_missed = 0;  // eventual-consistency retries
  int executions_failed = 0;
  bool crashed = false;
};

class Worker {
 public:
  Worker(std::string id, storage::StorageBackend& store,
         std::shared_ptr<cloudq::MessageQueue> task_queue,
         std::shared_ptr<cloudq::MessageQueue> monitor_queue, TaskExecutor executor,
         WorkerConfig config);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Starts the poll loop on its own thread.
  void start();

  /// Asks the loop to exit after the current task.
  void request_stop();

  /// Blocks until the loop has exited.
  void join();

  bool running() const { return lifecycle_->running(); }
  const std::string& id() const { return lifecycle_->id(); }
  bool crashed() const { return lifecycle_->crashed(); }
  WorkerStats stats() const;
  runtime::MetricsRegistry& metrics() const { return lifecycle_->metrics(); }

  /// The underlying poll loop — what a runtime::WorkerSupervisor watches.
  runtime::TaskLifecycle& lifecycle() { return *lifecycle_; }

  /// This worker's block cache; null when WorkerConfig::enable_cache is off.
  storage::BlockCache* cache() { return cache_.get(); }

 private:
  runtime::TaskOutcome process(runtime::TaskContext& ctx);
  std::shared_ptr<const std::string> fetch_shared(runtime::TaskContext& ctx,
                                                  const std::string& key);

  storage::StorageBackend& store_;
  std::shared_ptr<cloudq::MessageQueue> monitor_queue_;
  TaskExecutor executor_;
  WorkerConfig config_;
  std::unique_ptr<runtime::TaskLifecycle> lifecycle_;
  std::unique_ptr<storage::BlockCache> cache_;
};

}  // namespace ppc::classiccloud
