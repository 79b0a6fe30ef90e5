// The shared worker poll loop of §2.1.3, extracted once for every
// queue-driven substrate:
//
//   1. receive a task message (visibility timeout hides it from twins);
//   2. hand it to the substrate's handler, which fetches inputs with the
//      retry policy, executes, uploads, and reports to its monitor queue;
//   3. delete the message only after completion — the heart of the paper's
//      fault-tolerance story: a crash before this point makes the task
//      reappear, and a stale delete after a redelivery simply fails.
//
// classiccloud::Worker and azuremr::MrWorker are thin adapters over this
// driver: they supply a TaskHandler and read their stats back out of the
// lifecycle's MetricsRegistry. Fault injection (crash/delay/error at named
// sites) and per-worker counters come for free.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include <vector>

#include "cloudq/message_queue.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/poll_policy.h"
#include "runtime/retry_policy.h"
#include "runtime/tracer.h"
#include "storage/storage_backend.h"

namespace ppc::runtime {

/// Canonical lifecycle counter names; each worker scopes them by its id
/// ("<id>.tasks_completed").
namespace counters {
inline constexpr std::string_view kMessagesReceived = "messages_received";
inline constexpr std::string_view kTasksCompleted = "tasks_completed";
inline constexpr std::string_view kDeletesFailed = "deletes_failed";
inline constexpr std::string_view kDownloadsMissed = "downloads_missed";
inline constexpr std::string_view kExecutionsFailed = "executions_failed";
inline constexpr std::string_view kCrashed = "crashed";
/// Deliveries of a message some worker had already received (receive_count
/// > 1): the at-least-once tax that idempotency absorbs.
inline constexpr std::string_view kRedeliveries = "redeliveries";
/// Permanently failing deliveries this worker routed to the dead-letter
/// queue instead of abandoning again.
inline constexpr std::string_view kPoisonTasks = "poison_tasks";
/// Deliveries rejected before execution because the payload failed its
/// body checksum (Message::intact() == false).
inline constexpr std::string_view kCorruptDeliveries = "corrupt_deliveries";
}  // namespace counters

struct LifecycleConfig {
  /// Tight polling interval: the sleep after an empty poll while deliveries
  /// are flowing, and the floor of the idle backoff (real seconds — keep
  /// small in tests). Consecutive empty polls double the sleep (with
  /// PollPolicy's default +-20% jitter, decorrelating a fleet's empty
  /// polls) up to 8x this; the next delivery collapses it
  /// back to poll_interval.
  Seconds poll_interval = 0.005;
  /// Messages fetched per receive request, 1..MessageQueue::kBatchLimit
  /// (SQS ReceiveMessage MaxNumberOfMessages). The batch is processed
  /// sequentially by this worker, so visibility_timeout must cover the
  /// whole batch, not one task.
  int receive_batch = 1;
  /// Completed-task acks buffered into one DeleteMessageBatch request.
  /// 1 (the default) acks immediately after each task — the strict
  /// delete-after-completion of §2.1.3. Larger values trade slightly later
  /// acks (buffered acks flush when the buffer fills, on an empty poll, and
  /// at loop exit — but are lost if the worker crashes, which redelivery +
  /// idempotency absorb) for a ~10x cut in delete requests.
  int delete_batch = 1;
  /// Visibility timeout requested on receive. Must exceed the worst-case
  /// task duration or tasks get double-processed.
  Seconds visibility_timeout = 30.0;
  /// Stop after this many consecutive empty polls; < 0 = run until
  /// request_stop().
  int max_idle_polls = -1;
  /// Backoff schedule for eventually-consistent blob fetches.
  RetryPolicy fetch_retry = RetryPolicy::eventual_consistency();
  /// Visibility applied to a delivery this worker failed (abandoned /
  /// corrupt): the worker knows the attempt is over, so shrinking the
  /// window makes the retry prompt instead of waiting out the full
  /// visibility_timeout. < 0 keeps the original window (legacy behavior,
  /// and what a worker that simply *dies* gets regardless).
  Seconds abandon_visibility = -1.0;
  /// Borrowed, not owned; null (the default) disables tracing. When set,
  /// the poll loop records queue-wait / dequeue / task / ack spans and
  /// redelivery / DLQ instants, all keyed by the message id as trace id.
  Tracer* tracer = nullptr;
};

/// Verdict of one handled delivery.
enum class TaskOutcome {
  /// Success: the lifecycle deletes the message (delete-after-completion).
  kCompleted,
  /// Transient failure: leave the message to time out and be redelivered.
  kAbandoned,
  /// Fault injection killed the worker mid-task; the loop exits without
  /// deleting, so the message resurfaces for another worker.
  kCrashed,
};

class TaskLifecycle;

/// Handed to the handler for one delivery: the message, plus lifecycle
/// services (retrying fetches, fault sites, scoped metrics).
class TaskContext {
 public:
  const cloudq::Message& message() const { return *message_; }
  const std::string& worker_id() const;

  /// Fires the named fault site; true = the worker should crash (the
  /// handler returns TaskOutcome::kCrashed).
  bool crash_site(const std::string& site, const std::string& key = "");

  /// Blob download (from any storage backend) that rides out
  /// read-after-write lag with the lifecycle's retry policy, counting
  /// `downloads_missed` per miss. A download that fails the store's CRC32C
  /// checksum (corrupted in flight) is a miss too. The payload aliases the
  /// stored blob (zero-copy). Null when the retry budget is exhausted
  /// (abandon the delivery; the blob will be visible by the time the
  /// message reappears).
  std::shared_ptr<const std::string> fetch(storage::StorageBackend& store,
                                           const std::string& bucket, const std::string& key);

  /// Generic retry with the lifecycle's policy: `fn` returns an optional-
  /// like value; misses count as `downloads_missed`.
  template <typename Fn>
  auto retry(Fn&& fn) -> decltype(fn());

  /// Increments the worker-scoped counter "<id>.<name>".
  void count(std::string_view name, std::int64_t delta = 1);

  /// Records into the worker-scoped histogram "<id>.<name>".
  void observe(std::string_view name, double value);

  /// Opens a child span of this delivery ("fetch.input", "compute",
  /// "upload.output", ...) on the worker's track, keyed by the message id.
  /// Inactive no-op guard when tracing is off.
  Span span(std::string_view name);

  MetricsRegistry& metrics();

 private:
  friend class TaskLifecycle;
  TaskContext(TaskLifecycle& owner, const cloudq::Message& message)
      : owner_(owner), message_(&message) {}

  TaskLifecycle& owner_;
  const cloudq::Message* message_;
};

using TaskHandler = std::function<TaskOutcome(TaskContext&)>;

class TaskLifecycle {
 public:
  /// `metrics` may be shared across a pool (each lifecycle scopes its
  /// counters by id); null creates a private registry. `faults` is borrowed,
  /// not owned; null disables injection.
  TaskLifecycle(std::string id, std::shared_ptr<cloudq::MessageQueue> task_queue,
                TaskHandler handler, LifecycleConfig config = {},
                std::shared_ptr<MetricsRegistry> metrics = nullptr,
                FaultInjector* faults = nullptr);

  ~TaskLifecycle();

  TaskLifecycle(const TaskLifecycle&) = delete;
  TaskLifecycle& operator=(const TaskLifecycle&) = delete;

  /// Starts the poll loop on its own thread.
  void start();

  /// Asks the loop to exit after the current task.
  void request_stop();

  /// Blocks until the loop has exited.
  void join();

  bool running() const { return running_.load(); }
  const std::string& id() const { return id_; }
  const LifecycleConfig& config() const { return config_; }

  MetricsRegistry& metrics() const { return *metrics_; }
  std::shared_ptr<MetricsRegistry> metrics_ptr() const { return metrics_; }
  FaultInjector* faults() const { return faults_; }
  Tracer* tracer() const { return config_.tracer; }

  /// "<id>.<name>" — the scope used for this worker's metrics.
  std::string scoped(std::string_view name) const;

  /// Reads the worker-scoped counter "<id>.<name>".
  std::int64_t counter(std::string_view name) const;

  /// True once fault injection has killed this worker.
  bool crashed() const { return counter(counters::kCrashed) > 0; }

  /// monotonic_now() timestamp of this worker's last sign of life (loop
  /// iteration started / task finished). 0 until start(). A supervisor
  /// compares this against its own monotonic_now() to detect stalls.
  Seconds last_heartbeat() const { return last_heartbeat_.load(); }

  /// The lifecycle thread's RNG (jittered backoff). Only touch from the
  /// handler, which runs on that thread.
  Rng& rng() { return rng_; }

  /// The effective adaptive-poll policy this lifecycle runs (config knobs
  /// resolved: defaulted cap, clamped multiplier/jitter).
  PollPolicy poll_policy() const;

 private:
  void poll_loop();

  /// Runs one delivery through the handler and the ack path. Returns false
  /// when the worker died (fault-injected crash) and the loop must exit.
  bool handle_delivery(cloudq::Message& message, Tracer* tr, bool tracing, Seconds poll_start);

  /// Sends the buffered completed-task acks as one DeleteMessageBatch.
  void flush_pending_deletes();

  void die(const std::string& reason);

  /// Post-mortem of a delivery this worker gave up on: routes poison
  /// messages (receive_count at the queue's redrive threshold) to the DLQ
  /// immediately, otherwise shortens the leftover visibility window when
  /// abandon_visibility says so.
  void after_failed_delivery(const cloudq::Message& message);

  const std::string id_;
  std::shared_ptr<cloudq::MessageQueue> task_queue_;
  TaskHandler handler_;
  LifecycleConfig config_;
  std::shared_ptr<MetricsRegistry> metrics_;
  FaultInjector* faults_;
  Rng rng_;

  std::vector<std::string> pending_deletes_;  // buffered acks (loop thread only)

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<double> last_heartbeat_{0.0};
};

template <typename Fn>
auto TaskContext::retry(Fn&& fn) -> decltype(fn()) {
  return with_retry(owner_.config().fetch_retry, owner_.rng(), std::forward<Fn>(fn),
                    [this](int attempt) {
                      count(counters::kDownloadsMissed);
                      if (Tracer* tr = owner_.tracer(); tr != nullptr && tr->enabled()) {
                        tr->instant("retry", "task", owner_.id(), message_->id,
                                    {{"attempt", std::to_string(attempt)}});
                      }
                    });
}

}  // namespace ppc::runtime
