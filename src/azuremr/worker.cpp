#include "azuremr/worker.h"

#include <utility>

#include "common/error.h"
#include "common/string_util.h"
#include "mapreduce/shuffle.h"

namespace ppc::azuremr {

namespace {
/// Backoff schedule for eventually-consistent blob reads and shuffle
/// listings.
const runtime::RetryPolicy kDownloadRetry =
    runtime::RetryPolicy::exponential(40, 0.0005, 2.0, 0.05);

runtime::LifecycleConfig lifecycle_config(const MrWorkerConfig& config) {
  runtime::LifecycleConfig lc;
  lc.poll_interval = config.poll_interval;
  lc.receive_batch = config.receive_batch;
  lc.delete_batch = config.delete_batch;
  lc.visibility_timeout = config.visibility_timeout;
  lc.fetch_retry = kDownloadRetry;
  lc.abandon_visibility = config.abandon_visibility;
  lc.tracer = config.tracer;
  return lc;
}
}  // namespace

MrWorker::MrWorker(std::string id, storage::StorageBackend& store,
                   std::shared_ptr<cloudq::MessageQueue> task_queue,
                   std::shared_ptr<cloudq::MessageQueue> monitor_queue, MapFn map,
                   ReduceFn reduce, int num_reduce_tasks, std::string bucket,
                   MrWorkerConfig config)
    : store_(store),
      monitor_queue_(std::move(monitor_queue)),
      map_(std::move(map)),
      reduce_(std::move(reduce)),
      num_reduce_tasks_(num_reduce_tasks),
      bucket_(std::move(bucket)) {
  PPC_REQUIRE(monitor_queue_ != nullptr, "worker needs both queues");
  PPC_REQUIRE(map_ != nullptr && reduce_ != nullptr, "worker needs map and reduce functions");
  PPC_REQUIRE(num_reduce_tasks_ >= 1, "need at least one reduce task");
  lifecycle_ = std::make_unique<runtime::TaskLifecycle>(
      std::move(id), std::move(task_queue),
      [this](runtime::TaskContext& ctx) { return process(ctx); }, lifecycle_config(config),
      config.metrics, config.faults);
}

void MrWorker::start() { lifecycle_->start(); }

runtime::TaskOutcome MrWorker::process(runtime::TaskContext& ctx) {
  using runtime::TaskOutcome;
  const auto task = ppc::decode_kv(ctx.message().body());
  const std::string& op = task.at("op");
  if (op == "map") {
    run_map(ctx, task);
    if (ctx.crash_site(sites::kAfterMap, task.at("input"))) return TaskOutcome::kCrashed;
  } else if (op == "reduce") {
    run_reduce(ctx, task);
    if (ctx.crash_site(sites::kAfterReduce, task.at("part"))) return TaskOutcome::kCrashed;
  } else {
    throw ppc::InvalidArgument("unknown op: " + op);
  }
  return TaskOutcome::kCompleted;
}

std::shared_ptr<const std::string> MrWorker::must_download(runtime::TaskContext& ctx,
                                                           const std::string& key) {
  auto data = ctx.fetch(store_, bucket_, key);
  if (!data) throw ppc::InternalError("blob never became visible: " + key);
  return data;
}

void MrWorker::run_map(runtime::TaskContext& ctx,
                       const std::map<std::string, std::string>& task) {
  const std::string& input = task.at("input");
  runtime::Span fetch_span = ctx.span("fetch.input");
  const auto data = must_download(ctx, "input/" + input);
  fetch_span.close();

  runtime::Span compute_span = ctx.span("compute");
  compute_span.arg("kind", "map");
  compute_span.arg("input", input);
  const std::vector<KeyValue> records = map_(input, *data, "");
  compute_span.close();

  // Shuffle: hash-partition the records into one blob per reducer.
  runtime::Span upload_span = ctx.span("upload.output");
  std::vector<std::vector<KeyValue>> partitions(static_cast<std::size_t>(num_reduce_tasks_));
  for (const KeyValue& kv : records) {
    partitions[static_cast<std::size_t>(mapreduce::partition_of(kv.first, num_reduce_tasks_))]
        .push_back(kv);
  }
  for (std::size_t r = 0; r < partitions.size(); ++r) {
    store_.put(bucket_, "mout/" + input + "/" + std::to_string(r),
               mapreduce::encode_pairs(partitions[r]));
  }
  upload_span.close();

  runtime::Span report_span = ctx.span("monitor.report");
  monitor_queue_->send(
      ppc::encode_kv({{"task", "map-" + input}, {"status", "done"}, {"worker", id()}}));
  report_span.close();
}

void MrWorker::run_reduce(runtime::TaskContext& ctx,
                          const std::map<std::string, std::string>& task) {
  const std::string& part = task.at("part");
  const int expected_maps = std::stoi(task.at("maps"));

  // Collect every map task's partition blob for this reducer. The listing
  // may lag under eventual consistency, so insist on the full set.
  const std::string suffix = "/" + part;
  auto list_partitions = [&]() -> std::optional<std::vector<std::string>> {
    std::vector<std::string> found;
    for (const std::string& key : store_.list(bucket_, "mout/")) {
      if (key.ends_with(suffix)) found.push_back(key);
    }
    if (static_cast<int>(found.size()) < expected_maps) return std::nullopt;
    return found;
  };
  runtime::Span fetch_span = ctx.span("fetch.input");
  auto keys = ctx.retry(list_partitions);
  PPC_CHECK(keys.has_value(), "reduce input blobs missing for partition " + part);

  // Group by key; each key's values keep their arrival order (listing order,
  // then emission order within a blob).
  std::map<std::string, std::vector<std::string>> grouped;
  for (const std::string& key : *keys) {
    for (auto& [k, v] : mapreduce::decode_pairs(*must_download(ctx, key))) {
      grouped[std::move(k)].push_back(std::move(v));
    }
  }
  fetch_span.close();

  runtime::Span compute_span = ctx.span("compute");
  compute_span.arg("kind", "reduce");
  compute_span.arg("part", part);
  std::vector<KeyValue> outputs;
  for (const auto& [key, values] : grouped) outputs.emplace_back(key, reduce_(key, values));
  compute_span.close();

  runtime::Span upload_span = ctx.span("upload.output");
  store_.put(bucket_, "rout/" + part, mapreduce::encode_pairs(outputs));
  upload_span.close();

  runtime::Span report_span = ctx.span("monitor.report");
  monitor_queue_->send(
      ppc::encode_kv({{"task", "reduce-" + part}, {"status", "done"}, {"worker", id()}}));
  report_span.close();
}

}  // namespace ppc::azuremr
