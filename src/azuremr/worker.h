// The azuremr worker role: an Azure worker-role instance that polls the
// shared task queue and executes map or reduce tasks. The poll loop
// (receive → handle → delete-after-completion) is runtime::TaskLifecycle;
// this adapter supplies the map/reduce handler. Inputs, map outputs and
// reduce outputs all flow through blob storage. Fault tolerance is inherited
// from the substrate: tasks are deleted only after completion, so crashes
// redeliver; map/reduce functions must be deterministic so re-execution
// overwrites blobs idempotently.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "azuremr/job.h"
#include "storage/storage_backend.h"
#include "cloudq/message_queue.h"
#include "runtime/task_lifecycle.h"

namespace ppc::azuremr {

/// Fault-injection sites fired right after a task's work is done — blobs
/// written, monitor record sent — but before the task message is deleted.
/// The task resurfaces via the visibility timeout. Keys: the map input name
/// / the reduce partition.
namespace sites {
inline const std::string kAfterMap = "azuremr.after_map";
inline const std::string kAfterReduce = "azuremr.after_reduce";
}  // namespace sites

struct MrWorkerConfig {
  Seconds poll_interval = 0.002;
  /// Messages fetched per receive request (1..10); the batch is worked
  /// through sequentially, so visibility_timeout must cover the whole batch.
  int receive_batch = 1;
  /// Completed-task acks buffered into one DeleteMessageBatch request; 1
  /// acks each task immediately. See LifecycleConfig::delete_batch.
  int delete_batch = 1;
  Seconds visibility_timeout = 30.0;
  /// Visibility applied to deliveries this worker failed (prompt retry);
  /// < 0 leaves the original visibility window. See LifecycleConfig.
  Seconds abandon_visibility = -1.0;
  /// > 0 makes AzureMapReduce attach a dead-letter queue to the job task
  /// queue with this redrive threshold (poison-message handling).
  int task_max_receive_count = 0;
  /// Fault injection (borrowed, not owned). Null = never.
  runtime::FaultInjector* faults = nullptr;
  /// Metrics registry shared across the pool; null = private registry.
  std::shared_ptr<runtime::MetricsRegistry> metrics;
  /// Tracer (borrowed, not owned). Null = no tracing. Adds fetch.input /
  /// compute / upload.output child spans (kind=map|reduce) to the task
  /// envelope.
  runtime::Tracer* tracer = nullptr;
};

class MrWorker {
 public:
  MrWorker(std::string id, storage::StorageBackend& store,
           std::shared_ptr<cloudq::MessageQueue> task_queue,
           std::shared_ptr<cloudq::MessageQueue> monitor_queue, MapFn map, ReduceFn reduce,
           int num_reduce_tasks, std::string bucket, MrWorkerConfig config = {});

  MrWorker(const MrWorker&) = delete;
  MrWorker& operator=(const MrWorker&) = delete;

  void start();
  const std::string& id() const { return lifecycle_->id(); }

  /// The underlying poll loop — what a runtime::WorkerSupervisor watches
  /// and stops.
  runtime::TaskLifecycle& lifecycle() { return *lifecycle_; }

 private:
  runtime::TaskOutcome process(runtime::TaskContext& ctx);
  void run_map(runtime::TaskContext& ctx, const std::map<std::string, std::string>& task);
  void run_reduce(runtime::TaskContext& ctx, const std::map<std::string, std::string>& task);
  /// Blocking blob download with the retry policy (eventual consistency).
  /// The payload aliases the stored blob (zero-copy).
  std::shared_ptr<const std::string> must_download(runtime::TaskContext& ctx,
                                                   const std::string& key);

  storage::StorageBackend& store_;
  std::shared_ptr<cloudq::MessageQueue> monitor_queue_;
  MapFn map_;
  ReduceFn reduce_;
  int num_reduce_tasks_;
  const std::string bucket_;
  std::unique_ptr<runtime::TaskLifecycle> lifecycle_;
};

}  // namespace ppc::azuremr
