#include "azuremr/runtime.h"

#include <chrono>
#include <set>
#include <string_view>
#include <thread>

#include "common/clock.h"
#include "common/error.h"
#include "common/string_util.h"

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

/// Sum of registry counters named "<some worker id>.<suffix>" for worker ids
/// starting with `prefix` — aggregates a run's workers across every
/// incarnation the supervisor provisioned ("job-w0", "job-w0#1", ...).
std::int64_t sum_worker_counters(const runtime::MetricsRegistry& metrics,
                                 const std::string& prefix, std::string_view suffix) {
  std::int64_t total = 0;
  for (const auto& [name, value] : metrics.counters()) {
    const std::string_view sv(name);
    if (sv.starts_with(prefix) && sv.ends_with(suffix)) total += value;
  }
  return total;
}

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
  PPC_REQUIRE(spec.max_iterations >= 1, "need at least one iteration");
  const bool iterative = spec.merge != nullptr;
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

  // Per-run stats are registry deltas (workers of every incarnation write to
  // the shared registry; the supervisor may add incarnations mid-run).
  const std::string worker_prefix = spec.job_id + "-w";
  const std::int64_t base_maps = sum_worker_counters(*metrics_, worker_prefix, ".map_tasks");
  const std::int64_t base_reduces =
      sum_worker_counters(*metrics_, worker_prefix, ".reduce_tasks");
  const std::int64_t base_hits = sum_worker_counters(*metrics_, worker_prefix, ".cache_hits");
  const std::int64_t base_misses =
      sum_worker_counters(*metrics_, worker_prefix, ".cache_misses");
  const std::int64_t base_crashes = sum_worker_counters(*metrics_, worker_prefix, ".crashed");

  // Provision the worker pool (the Azure role instances) under a supervisor:
  // a worker that dies mid-run is detected and replaced with a fresh
  // incarnation, the way the Azure fabric controller re-provisions a dead
  // role instance.
  runtime::SupervisorConfig sup_config = supervisor_config;
  sup_config.num_workers = num_workers_;
  sup_config.id_prefix = worker_prefix;
  sup_config.metrics = metrics_;
  runtime::WorkerSupervisor supervisor(
      [&](const std::string& worker_id, int /*incarnation*/) {
        auto worker = std::make_shared<MrWorker>(worker_id, store_, task_queue, monitor_queue,
                                                 spec.map, spec.reduce, spec.combine,
                                                 spec.num_reduce_tasks, bucket, worker_config_);
        worker->start();
        return runtime::SupervisedWorker{worker, &worker->lifecycle()};
      },
      sup_config);
  supervisor.start();

  // Upload the static inputs once; workers cache them across iterations.
  for (const auto& [name, data] : spec.inputs) {
    store_.put(bucket, "input/" + name, data);
  }

  JobResult result;
  std::string broadcast = spec.initial_broadcast;
  ppc::SystemClock clock;

  for (int iter = 0; iter < spec.max_iterations; ++iter) {
    const Seconds iter_start = clock.now();
    const std::string iter_str = std::to_string(iter);
    store_.put(bucket, "broadcast/" + iter_str, broadcast);

    // Map stage.
    std::set<std::string> expected, done;
    for (const auto& [name, _] : spec.inputs) {
      task_queue->send(ppc::encode_kv({{"op", "map"}, {"iter", iter_str}, {"input", name}}));
      expected.insert("map-" + iter_str + "-" + name);
    }
    if (!wait_for_tasks(*monitor_queue, expected, done, spec.stage_timeout)) {
      result.succeeded = false;
      supervisor.stop();
      return result;
    }

    // Reduce stage.
    expected.clear();
    for (int r = 0; r < spec.num_reduce_tasks; ++r) {
      task_queue->send(ppc::encode_kv({{"op", "reduce"},
                                       {"iter", iter_str},
                                       {"part", std::to_string(r)},
                                       {"maps", std::to_string(spec.inputs.size())}}));
      expected.insert("reduce-" + iter_str + "-" + std::to_string(r));
    }
    if (!wait_for_tasks(*monitor_queue, expected, done, spec.stage_timeout)) {
      result.succeeded = false;
      supervisor.stop();
      return result;
    }

    // Collect reduce outputs, riding out read-after-write visibility lag.
    result.outputs.clear();
    for (int r = 0; r < spec.num_reduce_tasks; ++r) {
      const std::string key = "rout/" + iter_str + "/" + std::to_string(r);
      std::shared_ptr<const std::string> blob;
      for (int attempt = 0; attempt < 2000 && !blob; ++attempt) {
        blob = store_.get(bucket, key);
        if (!blob) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      PPC_CHECK(blob != nullptr, "reduce output never became visible: " + key);
      for (const KeyValue& kv : decode_records(*blob)) {
        result.outputs[kv.key] = kv.value;
      }
    }

    IterationStats stats;
    stats.iteration = iter;
    stats.map_tasks = static_cast<int>(spec.inputs.size());
    stats.reduce_tasks = spec.num_reduce_tasks;
    stats.elapsed = clock.now() - iter_start;
    result.per_iteration.push_back(stats);
    result.iterations_run = iter + 1;

    if (!iterative) break;
    const std::string next = spec.merge(result.outputs, broadcast);
    if (spec.converged && spec.converged(broadcast, next, iter)) {
      result.converged = true;
      broadcast = next;
      break;
    }
    broadcast = next;
  }

  result.final_broadcast = broadcast;
  result.succeeded = true;

  supervisor.stop();
  MrWorkerStats total;
  total.map_tasks = static_cast<int>(
      sum_worker_counters(*metrics_, worker_prefix, ".map_tasks") - base_maps);
  total.reduce_tasks = static_cast<int>(
      sum_worker_counters(*metrics_, worker_prefix, ".reduce_tasks") - base_reduces);
  total.cache_hits = static_cast<int>(
      sum_worker_counters(*metrics_, worker_prefix, ".cache_hits") - base_hits);
  total.cache_misses = static_cast<int>(
      sum_worker_counters(*metrics_, worker_prefix, ".cache_misses") - base_misses);
  total.crashed =
      sum_worker_counters(*metrics_, worker_prefix, ".crashed") - base_crashes > 0;
  last_stats_ = total;
  return result;
}

}  // namespace ppc::azuremr
