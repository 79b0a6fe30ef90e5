#include "classiccloud/worker.h"

#include <utility>

#include "common/clock.h"
#include "common/error.h"
#include "common/log.h"

namespace ppc::classiccloud {

namespace {
runtime::LifecycleConfig lifecycle_config(const WorkerConfig& config) {
  runtime::LifecycleConfig lc;
  lc.poll_interval = config.poll_interval;
  lc.receive_batch = config.receive_batch;
  lc.delete_batch = config.delete_batch;
  lc.visibility_timeout = config.visibility_timeout;
  lc.max_idle_polls = config.max_idle_polls;
  lc.abandon_visibility = config.abandon_visibility;
  lc.tracer = config.tracer;
  return lc;
}
}  // namespace

Worker::Worker(std::string id, storage::StorageBackend& store,
               std::shared_ptr<cloudq::MessageQueue> task_queue,
               std::shared_ptr<cloudq::MessageQueue> monitor_queue, TaskExecutor executor,
               WorkerConfig config)
    : store_(store),
      monitor_queue_(std::move(monitor_queue)),
      executor_(std::move(executor)),
      config_(std::move(config)) {
  PPC_REQUIRE(monitor_queue_ != nullptr, "worker needs a monitor queue");
  PPC_REQUIRE(executor_ != nullptr, "worker needs an executor");
  lifecycle_ = std::make_unique<runtime::TaskLifecycle>(
      std::move(id), std::move(task_queue),
      [this](runtime::TaskContext& ctx) { return process(ctx); }, lifecycle_config(config_),
      config_.metrics, config_.faults);
  if (config_.enable_cache) {
    storage::BlockCacheConfig cc;
    cc.name = lifecycle_->id() + ".blockcache";
    cache_ = std::make_unique<storage::BlockCache>(cc, &lifecycle_->metrics());
    cache_->set_tracer(config_.tracer);
  }
}

void Worker::start() { lifecycle_->start(); }

void Worker::request_stop() { lifecycle_->request_stop(); }

void Worker::join() { lifecycle_->join(); }

WorkerStats Worker::stats() const {
  namespace c = runtime::counters;
  WorkerStats s;
  s.messages_received = static_cast<int>(lifecycle_->counter(c::kMessagesReceived));
  s.tasks_completed = static_cast<int>(lifecycle_->counter(c::kTasksCompleted));
  s.deletes_failed = static_cast<int>(lifecycle_->counter(c::kDeletesFailed));
  s.downloads_missed = static_cast<int>(lifecycle_->counter(c::kDownloadsMissed));
  s.executions_failed = static_cast<int>(lifecycle_->counter(c::kExecutionsFailed));
  s.crashed = lifecycle_->crashed();
  return s;
}

std::shared_ptr<const std::string> Worker::fetch_shared(runtime::TaskContext& ctx,
                                                        const std::string& key) {
  if (cache_ == nullptr) return ctx.fetch(store_, config_.bucket, key);
  // Fetch-through the block cache with the lifecycle's retry policy: a
  // cache hit never touches the store; a miss downloads, validates against
  // the store's CRC32C and caches. `found == false` (not visible yet /
  // corrupted in flight) counts as a miss and is retried like any other
  // fetch.
  return ctx.retry([&]() -> std::shared_ptr<const std::string> {
    const storage::BlockCache::FetchResult r = cache_->fetch(store_, config_.bucket, key);
    if (!r.found) return nullptr;
    return r.data != nullptr ? r.data : std::make_shared<const std::string>();
  });
}

runtime::TaskOutcome Worker::process(runtime::TaskContext& ctx) {
  using runtime::TaskOutcome;
  const TaskSpec task = decode_task(ctx.message().body());
  if (ctx.crash_site(sites::kAfterReceive, task.task_id)) return TaskOutcome::kCrashed;

  // Job-wide reference data first (NR database, training matrix): served
  // from this worker's block cache after the first task touches it.
  for (const std::string& shared_key : task.shared_keys) {
    runtime::Span shared_span = ctx.span("fetch.shared");
    shared_span.arg("key", shared_key);
    auto shared = fetch_shared(ctx, shared_key);
    shared_span.close();
    if (!shared) {
      PPC_WARN << "worker " << id() << ": shared blob not yet visible: " << shared_key;
      return TaskOutcome::kAbandoned;
    }
  }

  // Download the input, riding out read-after-write visibility lag.
  runtime::Span fetch_span = ctx.span("fetch.input");
  auto input = ctx.fetch(store_, config_.bucket, task.input_key);
  fetch_span.close();
  if (!input) {
    // Give up on this delivery; the message reappears after its timeout and
    // by then the blob will be visible (eventual availability).
    PPC_WARN << "worker " << id() << ": input blob not yet visible: " << task.input_key;
    return TaskOutcome::kAbandoned;
  }

  ppc::SystemClock timer;
  runtime::Span compute_span = ctx.span("compute");
  compute_span.arg("task_id", task.task_id);
  std::string output;
  try {
    output = executor_(task, *input);
  } catch (const std::exception& e) {
    ctx.count(runtime::counters::kExecutionsFailed);
    PPC_WARN << "worker " << id() << ": execution failed for " << task.task_id << ": "
             << e.what();
    return TaskOutcome::kAbandoned;  // leave the message to time out and be retried
  }
  compute_span.close();
  const Seconds duration = timer.now();
  if (ctx.crash_site(sites::kAfterExecute, task.task_id)) return TaskOutcome::kCrashed;

  runtime::Span upload_span = ctx.span("upload.output");
  store_.put(config_.bucket, task.output_key, std::move(output));
  upload_span.close();
  if (ctx.crash_site(sites::kAfterUpload, task.task_id)) return TaskOutcome::kCrashed;

  MonitorRecord record;
  record.task_id = task.task_id;
  record.worker_id = id();
  record.status = "done";
  record.duration = duration;
  runtime::Span report_span = ctx.span("monitor.report");
  monitor_queue_->send(encode_monitor(record));
  report_span.close();
  ctx.observe("task_seconds", duration);
  return TaskOutcome::kCompleted;
}

}  // namespace ppc::classiccloud
