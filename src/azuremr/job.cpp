#include "azuremr/runtime.h"

#include <chrono>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/error.h"
#include "common/string_util.h"
#include "mapreduce/shuffle.h"

namespace ppc::azuremr {

AzureMapReduce::AzureMapReduce(storage::StorageBackend& store, cloudq::QueueService& queues,
                               int num_workers, MrWorkerConfig worker_config)
    : store_(store), queues_(queues), num_workers_(num_workers), worker_config_(worker_config) {
  PPC_REQUIRE(num_workers >= 1, "need at least one worker");
  // One registry for every worker role this runtime provisions; callers may
  // pre-seed worker_config.metrics to share it even wider.
  if (!worker_config_.metrics) worker_config_.metrics = std::make_shared<runtime::MetricsRegistry>();
  metrics_ = worker_config_.metrics;
}

AzureMapReduce::~AzureMapReduce() = default;

namespace {

/// Drains the monitor queue into `done` until the expected task ids are all
/// present or the timeout lapses. Duplicate completions collapse.
bool wait_for_tasks(cloudq::MessageQueue& monitor, const std::set<std::string>& expected,
                    std::set<std::string>& done, Seconds timeout) {
  ppc::SystemClock clock;
  std::vector<cloudq::Message> records;
  std::vector<std::string> receipts;
  while (clock.now() < timeout) {
    // Batched drain: 10 records per receive and 10 acks per delete request.
    records.clear();
    while (monitor.receive_batch(cloudq::MessageQueue::kBatchLimit, 5.0, records) > 0) {
      receipts.clear();
      for (const cloudq::Message& message : records) {
        const auto record = ppc::decode_kv(message.body());
        if (record.contains("task")) done.insert(record.at("task"));
        receipts.push_back(message.receipt_handle);
      }
      monitor.delete_batch(receipts);
      records.clear();
    }
    bool all = true;
    for (const auto& id : expected) {
      if (!done.contains(id)) {
        all = false;
        break;
      }
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace

JobResult AzureMapReduce::run(const JobSpec& spec) {
  PPC_REQUIRE(!spec.inputs.empty(), "job has no inputs");
  PPC_REQUIRE(spec.map != nullptr && spec.reduce != nullptr, "job needs map and reduce");
  PPC_REQUIRE(spec.num_reduce_tasks >= 1, "need at least one reduce task");
  for (const auto& [name, _] : spec.inputs) {
    PPC_REQUIRE(!name.empty() && name.find('/') == std::string::npos &&
                    name.find('=') == std::string::npos && name.find(';') == std::string::npos,
                "input names must be flat identifiers: " + name);
  }

  const std::string bucket = spec.job_id;
  store_.create_bucket(bucket);
  auto task_queue =
      worker_config_.task_max_receive_count > 0
          ? queues_.create_queue_with_dlq(spec.job_id + "-mr-tasks",
                                          worker_config_.task_max_receive_count)
          : queues_.create_queue(spec.job_id + "-mr-tasks");
  auto monitor_queue = queues_.create_queue(spec.job_id + "-mr-monitor");

  // Provision the worker pool (the Azure role instances) under a supervisor:
  // a worker that dies mid-run is detected and replaced with a fresh
  // incarnation, the way the Azure fabric controller re-provisions a dead
  // role instance.
  runtime::SupervisorConfig sup_config = supervisor_config;
  sup_config.num_workers = num_workers_;
  sup_config.id_prefix = spec.job_id + "-w";
  sup_config.metrics = metrics_;
  runtime::WorkerSupervisor supervisor(
      [&](const std::string& worker_id, int /*incarnation*/) {
        auto worker = std::make_shared<MrWorker>(worker_id, store_, task_queue, monitor_queue,
                                                 spec.map, spec.reduce, spec.num_reduce_tasks,
                                                 bucket, worker_config_);
        worker->start();
        return runtime::SupervisedWorker{worker, &worker->lifecycle()};
      },
      sup_config);
  supervisor.start();

  for (const auto& [name, data] : spec.inputs) {
    store_.put(bucket, "input/" + name, data);
  }

  // Map stage, then reduce stage; a stage that outlives its budget fails
  // the job.
  JobResult result;
  std::set<std::string> expected, done;
  for (const auto& [name, _] : spec.inputs) {
    task_queue->send(ppc::encode_kv({{"op", "map"}, {"input", name}}));
    expected.insert("map-" + name);
  }
  result.succeeded = wait_for_tasks(*monitor_queue, expected, done, spec.stage_timeout);
  if (result.succeeded) {
    expected.clear();
    for (int r = 0; r < spec.num_reduce_tasks; ++r) {
      task_queue->send(ppc::encode_kv({{"op", "reduce"},
                                       {"part", std::to_string(r)},
                                       {"maps", std::to_string(spec.inputs.size())}}));
      expected.insert("reduce-" + std::to_string(r));
    }
    result.succeeded = wait_for_tasks(*monitor_queue, expected, done, spec.stage_timeout);
  }

  // Collect reduce outputs, riding out read-after-write visibility lag.
  for (int r = 0; result.succeeded && r < spec.num_reduce_tasks; ++r) {
    const std::string key = "rout/" + std::to_string(r);
    std::shared_ptr<const std::string> blob;
    for (int attempt = 0; attempt < 2000 && !blob; ++attempt) {
      blob = store_.get(bucket, key);
      if (!blob) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    PPC_CHECK(blob != nullptr, "reduce output never became visible: " + key);
    for (auto& [k, v] : mapreduce::decode_pairs(*blob)) {
      result.outputs[std::move(k)] = std::move(v);
    }
  }

  supervisor.stop();
  return result;
}

}  // namespace ppc::azuremr
