#include "runtime/task_lifecycle.h"

#include <functional>

#include "common/clock.h"
#include "common/crc32c.h"
#include "common/log.h"

namespace ppc::runtime {

const std::string& TaskContext::worker_id() const { return owner_.id(); }

bool TaskContext::crash_site(const std::string& site, const std::string& key) {
  FaultInjector* faults = owner_.faults();
  return faults != nullptr && faults->fire(site, key);
}

std::shared_ptr<const std::string> TaskContext::fetch(storage::StorageBackend& store,
                                                      const std::string& bucket,
                                                      const std::string& key) {
  return retry([&]() -> std::shared_ptr<const std::string> {
    auto data = store.get(bucket, key);
    if (data == nullptr) return nullptr;
    // Validate the download against the upload-time CRC32C: a delivery
    // corrupted in flight counts as a miss and is re-fetched. Logical
    // objects have no bytes and no checksum.
    const auto expected = store.checksum(bucket, key);
    if (expected.has_value() && ppc::crc32c(*data) != *expected) return nullptr;
    return data;
  });
}

void TaskContext::count(std::string_view name, std::int64_t delta) {
  owner_.metrics().counter(owner_.scoped(name)).inc(delta);
}

void TaskContext::observe(std::string_view name, double value) {
  owner_.metrics().histogram(owner_.scoped(name)).record(value);
}

Span TaskContext::span(std::string_view name) {
  Tracer* tr = owner_.tracer();
  if (tr == nullptr) return Span{};
  return tr->span(name, "task", owner_.id(), message_->id);
}

MetricsRegistry& TaskContext::metrics() { return owner_.metrics(); }

TaskLifecycle::TaskLifecycle(std::string id, std::shared_ptr<cloudq::MessageQueue> task_queue,
                             TaskHandler handler, LifecycleConfig config,
                             std::shared_ptr<MetricsRegistry> metrics, FaultInjector* faults)
    : id_(std::move(id)),
      task_queue_(std::move(task_queue)),
      handler_(std::move(handler)),
      config_(config),
      metrics_(metrics ? std::move(metrics) : std::make_shared<MetricsRegistry>()),
      faults_(faults),
      rng_(std::hash<std::string>{}(id_)) {
  PPC_REQUIRE(task_queue_ != nullptr, "task lifecycle needs a task queue");
  PPC_REQUIRE(handler_ != nullptr, "task lifecycle needs a handler");
  PPC_REQUIRE(config_.visibility_timeout > 0.0, "visibility timeout must be positive");
  PPC_REQUIRE(config_.receive_batch >= 1 &&
                  config_.receive_batch <= static_cast<int>(cloudq::MessageQueue::kBatchLimit),
              "receive_batch must be in [1, MessageQueue::kBatchLimit]");
  PPC_REQUIRE(config_.delete_batch >= 1, "delete_batch must be >= 1");
}

namespace {
/// Idle backoff cap as a multiple of LifecycleConfig::poll_interval.
constexpr double kIdleBackoffCap = 8.0;
}  // namespace

PollPolicy TaskLifecycle::poll_policy() const {
  PollPolicy p;
  p.min_interval = config_.poll_interval;
  p.max_interval = kIdleBackoffCap * config_.poll_interval;
  return p;
}

TaskLifecycle::~TaskLifecycle() {
  request_stop();
  if (thread_.joinable()) thread_.join();
}

void TaskLifecycle::start() {
  PPC_REQUIRE(!thread_.joinable(), "task lifecycle already started");
  running_.store(true);
  thread_ = std::thread([this] { poll_loop(); });
}

void TaskLifecycle::request_stop() { stop_requested_.store(true); }

void TaskLifecycle::join() {
  if (thread_.joinable()) thread_.join();
}

std::string TaskLifecycle::scoped(std::string_view name) const {
  std::string out;
  out.reserve(id_.size() + 1 + name.size());
  out += id_;
  out += '.';
  out += name;
  return out;
}

std::int64_t TaskLifecycle::counter(std::string_view name) const {
  return metrics_->counter_value(scoped(name));
}

void TaskLifecycle::die(const std::string& reason) {
  metrics_->counter(scoped(counters::kCrashed)).inc();
  metrics_->emit({"worker.crashed", {{"worker", id_}, {"reason", reason}}});
}

void TaskLifecycle::after_failed_delivery(const cloudq::Message& message) {
  const int max_rc = task_queue_->max_receive_count();
  if (max_rc > 0 && message.receive_count >= max_rc) {
    // This delivery used up the message's last permitted receive: rather
    // than letting the redrive sweep find it later, park it in the DLQ now
    // so siblings never see it again (poison-message handling).
    if (task_queue_->move_to_dlq(message.receipt_handle)) {
      metrics_->counter(scoped(counters::kPoisonTasks)).inc();
      metrics_->set_gauge("cloudq." + task_queue_->name() + ".dlq_depth",
                          static_cast<double>(task_queue_->dlq_depth()));
      metrics_->emit({"task.poisoned", {{"worker", id_}, {"message", message.id}}});
      if (Tracer* tr = config_.tracer; tr != nullptr && tr->enabled()) {
        tr->instant("dlq.park", "lifecycle", id_, message.id,
                    {{"receive_count", std::to_string(message.receive_count)}});
      }
      return;
    }
  }
  if (config_.abandon_visibility >= 0.0) {
    // The attempt is over; no point making the retry wait out the rest of
    // the visibility window.
    task_queue_->change_visibility(message.receipt_handle, config_.abandon_visibility);
  }
}

void TaskLifecycle::poll_loop() {
  Tracer* tr = config_.tracer;
  if (tr != nullptr) Tracer::bind_thread(id_);
  int idle_polls = 0;
  Seconds idle_since = -1.0;  // tracer-clock time this worker went idle
  // Busy/idle level for the monitoring plane: "<id>.busy" is 1 while a
  // delivery is being handled, 0 otherwise. A Monitor scraping the registry
  // sums these into fleet utilization; only transitions write the gauge.
  bool busy_gauge = false;
  const std::string busy_name = scoped("busy");
  metrics_->set_gauge(busy_name, 0.0);
  AdaptivePoll poll(poll_policy());
  const std::size_t batch = static_cast<std::size_t>(config_.receive_batch);
  std::vector<cloudq::Message> deliveries;  // reused envelope buffer across polls
  deliveries.reserve(batch);
  bool died = false;
  while (!stop_requested_.load() && !died) {
    last_heartbeat_.store(ppc::monotonic_now());
    const bool tracing = tr != nullptr && tr->enabled();
    const Seconds poll_start = tracing ? tr->now() : 0.0;
    deliveries.clear();
    if (batch == 1) {
      if (auto message = task_queue_->receive(config_.visibility_timeout)) {
        deliveries.push_back(std::move(*message));
      }
    } else {
      task_queue_->receive_batch(batch, config_.visibility_timeout, deliveries);
    }
    if (deliveries.empty()) {
      ++idle_polls;
      // Idle is the natural flush point: no further completions are coming
      // to fill the ack buffer.
      flush_pending_deletes();
      if (tracing && idle_since < 0.0) idle_since = poll_start;
      if (busy_gauge) {
        metrics_->set_gauge(busy_name, 0.0);
        busy_gauge = false;
      }
      if (config_.max_idle_polls >= 0 && idle_polls >= config_.max_idle_polls) break;
      sleep_for(poll.next_idle_sleep(rng_));
      continue;
    }
    idle_polls = 0;
    poll.on_delivery();  // collapse the idle backoff to tight polling
    if (!busy_gauge) {
      metrics_->set_gauge(busy_name, 1.0);
      busy_gauge = true;
    }
    if (tracing && idle_since >= 0.0) {
      // One span covering the whole idle stretch, closed now that a
      // message is in hand.
      tr->span_from(idle_since, "queue.wait", "lifecycle", id_).close();
      idle_since = -1.0;
    }
    for (cloudq::Message& message : deliveries) {
      if (!handle_delivery(message, tr, tracing, poll_start)) {
        died = true;  // crashed workers drop the rest of the batch (it stays hidden)
        break;
      }
      if (stop_requested_.load()) break;  // unhandled messages resurface on timeout
    }
  }
  // A crashed worker cannot flush its buffered acks — those messages get
  // redelivered and idempotency absorbs them. A clean exit acks what it owes.
  if (!died) flush_pending_deletes();
  running_.store(false);
  metrics_->set_gauge(busy_name, 0.0);  // covers crash/stop exits mid-task
  if (tr != nullptr) Tracer::clear_thread();
}

bool TaskLifecycle::handle_delivery(cloudq::Message& message, Tracer* tr, bool tracing,
                                    Seconds poll_start) {
  if (tracing) {
    tr->span_from(poll_start, "dequeue", "lifecycle", id_, message.id).close();
    Tracer::bind_thread_task(message.id);
  }
  metrics_->counter(scoped(counters::kMessagesReceived)).inc();
  if (message.receive_count > 1) {
    metrics_->counter(scoped(counters::kRedeliveries)).inc();
    if (tracing) {
      tr->instant("redelivery", "lifecycle", id_, message.id,
                  {{"receive_count", std::to_string(message.receive_count)}});
    }
  }
  if (!message.intact()) {
    // The payload failed its body checksum: this delivery was corrupted in
    // flight. The stored message is fine — abandon and let a clean
    // redelivery carry the real bytes.
    metrics_->counter(scoped(counters::kCorruptDeliveries)).inc();
    if (tracing) tr->instant("corrupt_delivery", "lifecycle", id_, message.id);
    after_failed_delivery(message);
    if (tracing) Tracer::bind_thread_task({});
    return true;
  }

  // Envelope span for this delivery: everything the handler does (child
  // spans, service ops) nests inside it on this worker's track.
  Span task_span = tracing ? tr->span("task", "lifecycle", id_, message.id) : Span{};
  TaskContext ctx(*this, message);
  TaskOutcome outcome;
  try {
    outcome = handler_(ctx);
  } catch (const std::exception& e) {
    // Leave the message; it reappears after its visibility timeout.
    metrics_->counter(scoped(counters::kExecutionsFailed)).inc();
    PPC_WARN << "worker " << id_ << ": task failed: " << e.what();
    outcome = TaskOutcome::kAbandoned;
  }
  last_heartbeat_.store(ppc::monotonic_now());

  if (outcome == TaskOutcome::kCrashed) {
    // The worker dies mid-task. The message it held stays invisible until
    // its timeout lapses, then another worker picks it up. The envelope
    // span is detached, not closed: a dead process cannot close its spans,
    // so it stays open until the supervisor reaps it (abandoned=true).
    task_span.arg("outcome", "crashed");
    task_span.detach();
    die("fault injection");
    return false;
  }
  if (outcome == TaskOutcome::kCompleted) {
    // Delete only after completion — a stale receipt (someone else re-ran
    // the task after a visibility timeout) just fails, and idempotent
    // tasks make either outcome correct.
    if (config_.delete_batch <= 1) {
      Span ack = tracing ? tr->span("ack.delete", "lifecycle", id_, message.id) : Span{};
      const bool deleted = task_queue_->delete_message(message.receipt_handle);
      ack.close();
      if (!deleted) metrics_->counter(scoped(counters::kDeletesFailed)).inc();
    } else {
      pending_deletes_.push_back(message.receipt_handle);
      if (pending_deletes_.size() >= static_cast<std::size_t>(config_.delete_batch)) {
        flush_pending_deletes();
      }
    }
    metrics_->counter(scoped(counters::kTasksCompleted)).inc();
    metrics_->emit({"task.completed", {{"worker", id_}, {"message", message.id}}});
    task_span.arg("outcome", "completed");
  } else if (outcome == TaskOutcome::kAbandoned) {
    task_span.arg("outcome", "abandoned");
    after_failed_delivery(message);
  }
  task_span.close();
  if (tracing) Tracer::bind_thread_task({});
  return true;
}

void TaskLifecycle::flush_pending_deletes() {
  if (pending_deletes_.empty()) return;
  Tracer* tr = config_.tracer;
  const bool tracing = tr != nullptr && tr->enabled();
  Span ack = tracing ? tr->span("ack.delete", "lifecycle", id_) : Span{};
  const std::size_t deleted = task_queue_->delete_batch(pending_deletes_);
  ack.close();
  if (deleted < pending_deletes_.size()) {
    metrics_->counter(scoped(counters::kDeletesFailed))
        .inc(static_cast<std::int64_t>(pending_deletes_.size() - deleted));
  }
  pending_deletes_.clear();
}

}  // namespace ppc::runtime
