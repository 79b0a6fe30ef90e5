#include "azuremr/worker.h"

#include <utility>

#include "common/error.h"
#include "common/string_util.h"

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
                   ReduceFn reduce, CombineFn combine, int num_reduce_tasks, std::string bucket,
                   MrWorkerConfig config)
    : store_(store),
      monitor_queue_(std::move(monitor_queue)),
      map_(std::move(map)),
      reduce_(std::move(reduce)),
      combine_(std::move(combine)),
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

void MrWorker::request_stop() { lifecycle_->request_stop(); }

void MrWorker::join() { lifecycle_->join(); }

MrWorkerStats MrWorker::stats() const {
  MrWorkerStats s;
  s.map_tasks = static_cast<int>(lifecycle_->counter("map_tasks"));
  s.reduce_tasks = static_cast<int>(lifecycle_->counter("reduce_tasks"));
  s.cache_hits = static_cast<int>(lifecycle_->counter("cache_hits"));
  s.cache_misses = static_cast<int>(lifecycle_->counter("cache_misses"));
  s.crashed = lifecycle_->crashed();
  return s;
}

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

std::shared_ptr<const std::string> MrWorker::cached_input(runtime::TaskContext& ctx,
                                                          const std::string& name) {
  {
    std::lock_guard lock(cache_mu_);
    auto it = input_cache_.find(name);
    if (it != input_cache_.end()) {
      ctx.count("cache_hits");
      return it->second;
    }
  }
  auto data = must_download(ctx, "input/" + name);
  std::lock_guard lock(cache_mu_);
  ctx.count("cache_misses");
  return input_cache_.emplace(name, std::move(data)).first->second;
}

void MrWorker::run_map(runtime::TaskContext& ctx,
                       const std::map<std::string, std::string>& task) {
  const std::string& iter = task.at("iter");
  const std::string& input = task.at("input");
  runtime::Span fetch_span = ctx.span("fetch.input");
  const auto data = cached_input(ctx, input);
  const auto broadcast = must_download(ctx, "broadcast/" + iter);
  fetch_span.close();

  runtime::Span compute_span = ctx.span("compute");
  compute_span.arg("kind", "map");
  compute_span.arg("input", input);
  std::vector<KeyValue> records = map_(input, *data, *broadcast);

  // Combiner: fold this map task's records per key before they cross the
  // network, exactly like Hadoop's combiner.
  if (combine_ != nullptr) {
    std::vector<KeyValue> combined;
    for (const auto& [key, values] : group_by_key(records)) {
      combined.push_back({key, values.size() == 1 ? values.front() : combine_(key, values)});
    }
    records = std::move(combined);
  }
  compute_span.close();

  // Shuffle: hash-partition the records into one blob per reducer.
  runtime::Span upload_span = ctx.span("upload.output");
  std::vector<std::vector<KeyValue>> partitions(static_cast<std::size_t>(num_reduce_tasks_));
  for (const KeyValue& kv : records) {
    partitions[partition_of(kv.key, partitions.size())].push_back(kv);
  }
  for (std::size_t r = 0; r < partitions.size(); ++r) {
    store_.put(bucket_, "mout/" + iter + "/" + input + "/" + std::to_string(r),
               encode_records(partitions[r]));
  }
  upload_span.close();

  runtime::Span report_span = ctx.span("monitor.report");
  monitor_queue_->send(ppc::encode_kv(
      {{"task", "map-" + iter + "-" + input}, {"status", "done"}, {"worker", id()}}));
  report_span.close();
  ctx.count("map_tasks");
}

void MrWorker::run_reduce(runtime::TaskContext& ctx,
                          const std::map<std::string, std::string>& task) {
  const std::string& iter = task.at("iter");
  const std::string& part = task.at("part");
  const int expected_maps = std::stoi(task.at("maps"));

  // Collect every map task's partition blob for this reducer. The listing
  // may lag under eventual consistency, so insist on the full set.
  const std::string suffix = "/" + part;
  auto list_partitions = [&]() -> std::optional<std::vector<std::string>> {
    std::vector<std::string> found;
    for (const std::string& key : store_.list(bucket_, "mout/" + iter + "/")) {
      if (key.size() >= suffix.size() &&
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
        found.push_back(key);
      }
    }
    if (static_cast<int>(found.size()) < expected_maps) return std::nullopt;
    return found;
  };
  runtime::Span fetch_span = ctx.span("fetch.input");
  auto keys = ctx.retry(list_partitions);
  PPC_CHECK(keys.has_value(), "reduce input blobs missing for partition " + part);

  std::vector<KeyValue> all;
  for (const std::string& key : *keys) {
    const auto records = decode_records(*must_download(ctx, key));
    all.insert(all.end(), records.begin(), records.end());
  }
  fetch_span.close();

  runtime::Span compute_span = ctx.span("compute");
  compute_span.arg("kind", "reduce");
  compute_span.arg("part", part);
  std::vector<KeyValue> outputs;
  for (const auto& [key, values] : group_by_key(all)) {
    outputs.push_back({key, reduce_(key, values)});
  }
  compute_span.close();

  runtime::Span upload_span = ctx.span("upload.output");
  store_.put(bucket_, "rout/" + iter + "/" + part, encode_records(outputs));
  upload_span.close();

  runtime::Span report_span = ctx.span("monitor.report");
  monitor_queue_->send(ppc::encode_kv(
      {{"task", "reduce-" + iter + "-" + part}, {"status", "done"}, {"worker", id()}}));
  report_span.close();
  ctx.count("reduce_tasks");
}

}  // namespace ppc::azuremr
