#include "classiccloud/job_client.h"

#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/error.h"

namespace ppc::classiccloud {

JobClient::JobClient(storage::StorageBackend& store, cloudq::QueueService& queues,
                     std::string job_id, std::string bucket)
    : store_(store), job_id_(std::move(job_id)), bucket_(std::move(bucket)) {
  PPC_REQUIRE(!job_id_.empty(), "job id must be non-empty");
  store_.create_bucket(bucket_);
  task_queue_ = queues.create_queue(job_id_ + "-tasks");
  monitor_queue_ = queues.create_queue(job_id_ + "-monitor");
}

std::vector<TaskSpec> JobClient::submit(
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::vector<std::pair<std::string, std::string>>& shared_files) {
  PPC_REQUIRE(!files.empty(), "submit needs at least one file");
  if (first_submit_time_ < 0.0) first_submit_time_ = clock_.now();
  // Job-wide reference data goes up once; every task message points at it.
  std::vector<std::string> shared_keys;
  shared_keys.reserve(shared_files.size());
  for (const auto& [name, data] : shared_files) {
    const std::string key = "shared/" + name;
    store_.put(bucket_, key, data);
    shared_keys.push_back(key);
  }
  std::vector<TaskSpec> submitted;
  std::vector<std::string> messages;
  submitted.reserve(files.size());
  messages.reserve(files.size());
  for (const auto& [name, data] : files) {
    TaskSpec task;
    task.task_id = job_id_ + "/" + name;
    task.input_key = "input/" + name;
    task.output_key = "output/" + name;
    task.shared_keys = shared_keys;
    store_.put(bucket_, task.input_key, data);
    messages.push_back(encode_task(task));
    tasks_.push_back(task);
    submitted.push_back(task);
  }
  // Batched send: one API request per 10 tasks (SQS SendMessageBatch).
  task_queue_->send_batch(messages);
  return submitted;
}

void JobClient::drain_monitor_queue() {
  // Batched drain: 10 records per receive request and 10 acks per delete
  // request, so tracking an N-task job costs ~N/5 monitor-queue requests
  // instead of 2N.
  std::vector<cloudq::Message> records;
  std::vector<std::string> receipts;
  while (true) {
    records.clear();
    receipts.clear();
    if (monitor_queue_->receive_batch(cloudq::MessageQueue::kBatchLimit, 5.0, records) == 0) {
      return;
    }
    for (const cloudq::Message& message : records) {
      const MonitorRecord record = decode_monitor(message.body());
      completions_.emplace(record.task_id, record);  // first completion wins
      receipts.push_back(message.receipt_handle);
    }
    monitor_queue_->delete_batch(receipts);
  }
}

bool JobClient::wait_for_completion(Seconds timeout, Seconds poll_interval) {
  PPC_REQUIRE(timeout > 0.0, "timeout must be positive");
  ppc::SystemClock clock;
  while (clock.now() < timeout) {
    drain_monitor_queue();
    // Tasks [0, confirmed_) are known done; a HEAD (billed) is spent only on
    // the next task in line, once its completion record has arrived, and an
    // output stays visible once seen.
    while (confirmed_ < tasks_.size()) {
      const TaskSpec& task = tasks_[confirmed_];
      if (!completions_.contains(task.task_id) || !store_.exists(bucket_, task.output_key)) {
        break;
      }
      ++confirmed_;
    }
    if (confirmed_ == tasks_.size()) return true;
    std::this_thread::sleep_for(std::chrono::duration<double>(poll_interval));
  }
  return false;
}

std::shared_ptr<const std::string> JobClient::fetch_output(const TaskSpec& task) {
  return store_.get(bucket_, task.output_key);
}

JobClient::Progress JobClient::progress() {
  drain_monitor_queue();
  Progress p;
  p.total = tasks_.size();
  p.completed = completions_.size();
  if (first_submit_time_ >= 0.0) p.elapsed = clock_.now() - first_submit_time_;
  if (p.completed > 0 && p.elapsed > 0.0) {
    p.tasks_per_second = static_cast<double>(p.completed) / p.elapsed;
    const std::size_t remaining = p.total - std::min(p.total, p.completed);
    p.eta = remaining == 0 ? 0.0 : static_cast<double>(remaining) / p.tasks_per_second;
  }
  return p;
}

WorkerPool::WorkerPool(storage::StorageBackend& store,
                       std::shared_ptr<cloudq::MessageQueue> task_queue,
                       std::shared_ptr<cloudq::MessageQueue> monitor_queue, TaskExecutor executor,
                       WorkerConfig config, int num_workers, std::string id_prefix) {
  PPC_REQUIRE(num_workers >= 1, "need at least one worker");
  if (!config.metrics) config.metrics = std::make_shared<runtime::MetricsRegistry>();
  metrics_ = config.metrics;
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(id_prefix + "-" + std::to_string(i), store,
                                                task_queue, monitor_queue, executor, config));
  }
}

void WorkerPool::start_all() {
  for (auto& w : workers_) w->start();
}

void WorkerPool::stop_all() {
  for (auto& w : workers_) w->request_stop();
}

void WorkerPool::join_all() {
  for (auto& w : workers_) w->join();
}

WorkerStats WorkerPool::aggregate_stats() const {
  WorkerStats total;
  for (const auto& w : workers_) {
    const WorkerStats s = w->stats();
    total.messages_received += s.messages_received;
    total.tasks_completed += s.tasks_completed;
    total.deletes_failed += s.deletes_failed;
    total.downloads_missed += s.downloads_missed;
    total.executions_failed += s.executions_failed;
    total.crashed = total.crashed || s.crashed;
  }
  return total;
}

}  // namespace ppc::classiccloud
