#include "sim/engine_run.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "azuremr/runtime.h"
#include "classiccloud/job_client.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "dryad/file_share.h"
#include "dryad/partitioned_table.h"
#include "dryad/runtime.h"
#include "mapreduce/job.h"
#include "minihdfs/mini_hdfs.h"
#include "runtime/fault_injector.h"
#include "runtime/monitor.h"
#include "runtime/worker_supervisor.h"
#include "storage/fs_backends.h"

namespace ppc::sim {

namespace {

/// Wall-clock budget per run; a run fails rather than hangs.
constexpr Seconds kRunTimeout = 60.0;
/// How long a fault run waits for the poison sentinel to be dead-lettered.
constexpr Seconds kDlqTimeout = 20.0;
/// Fault runs' queue visibility timeout: short, so crash redeliveries
/// resolve quickly. Fault-free runs keep the workers' default.
constexpr Seconds kFaultVisibilityTimeout = 1.5;

/// The spec plus what the harness owns for the run: the injector `plan` is
/// armed on (null for a fault-free run), the tracer (null unless `trace`)
/// and the registry every layer publishes into.
struct Harness : EngineRunSpec {
  runtime::FaultInjector* faults = nullptr;
  runtime::Tracer* tracer = nullptr;
  std::shared_ptr<runtime::MetricsRegistry> metrics;
};

bool wait_until(const std::function<bool()>& pred, Seconds timeout) {
  ppc::SystemClock clock;
  while (clock.now() < timeout) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Snapshots the injector's totals into the tally, then disarms it so the
/// harness's own reads of the outputs run fault-free.
void disarm(const Harness& spec, RunReport& run) {
  if (spec.faults == nullptr) return;
  run.crashes = spec.faults->total_crashes();
  run.delays = spec.faults->total_delays();
  run.errors = spec.faults->total_errors();
  run.corruptions = spec.faults->total_corruptions();
  run.spot_revocations = spec.faults->total_revocations();
  spec.faults->reset();
}

/// Folds a queue substrate's lifecycle counters, supervisor recovery
/// metrics and task-queue meter into the tally.
void tally_queue_run(const Harness& spec, const cloudq::MessageQueue& task_queue,
                     RunReport& t) {
  const runtime::MetricsRegistry& m = *spec.metrics;
  t.redeliveries = m.sum_counters(".redeliveries");
  t.deletes_failed = m.sum_counters(".deletes_failed");
  t.corrupt_deliveries = m.sum_counters(".corrupt_deliveries");
  t.poison_tasks = m.sum_counters(".poison_tasks");
  t.supervisor_restarts = m.counter_value("supervisor.restarts");
  const auto recovery = spec.metrics->histogram("supervisor.recovery_seconds").snapshot();
  if (recovery.count() > 0) {
    t.recovery_p50 = recovery.percentile(50.0);
    t.recovery_max = recovery.max();
  }
  const auto meter = task_queue.meter();
  t.stale_deletes = static_cast<std::int64_t>(meter.stale_deletes);
  t.dlq_entries = static_cast<std::int64_t>(meter.dlq_moves);
}

/// The blob store and queue service of a queue substrate, with the run's
/// tracer and fault hooks installed.
struct CloudServices {
  std::shared_ptr<ppc::SystemClock> clock = std::make_shared<ppc::SystemClock>();
  std::unique_ptr<storage::StorageBackend> store;
  cloudq::QueueService queues{clock};

  explicit CloudServices(const Harness& spec)
      : store(storage::make_backend(storage::parse_storage_kind(spec.storage), clock,
                                    ppc::Rng(0x5EED))) {
    store->set_tracer(spec.tracer);
    queues.set_tracer(spec.tracer);
    store->set_fault_hook(spec.faults);
    queues.set_fault_hook(spec.faults);
  }
};

void run_classiccloud(const Harness& spec, const AppJob& app, RunReport& run) {
  const bool chaos = spec.faults != nullptr;
  CloudServices cloud(spec);
  const std::string job = spec.job + "-cc";
  // The client adopts a fault run's dead-lettering task queue created here.
  if (chaos) cloud.queues.create_queue_with_dlq(job + "-tasks", spec.max_receive_count);
  classiccloud::JobClient client(*cloud.store, cloud.queues, job);
  client.submit(app.files, app.shared_files);
  const auto task_queue = client.task_queue();
  if (chaos) {
    // Poison sentinel: an undecodable task body. Every delivery fails, so
    // the lifecycle must dead-letter it after max_receive_count deliveries.
    task_queue->send("poison-task: not a decodable task spec");
    spec.faults->arm_plan(*spec.plan);
  }

  classiccloud::TaskExecutor executor = [&app](const classiccloud::TaskSpec& task,
                                               const std::string& input) {
    return app.fn(task.task_id, input);
  };
  classiccloud::WorkerConfig wc;
  wc.poll_interval = 0.001;
  if (chaos) wc.visibility_timeout = kFaultVisibilityTimeout;
  wc.abandon_visibility = 0.02;
  wc.faults = spec.faults;
  wc.metrics = spec.metrics;
  wc.tracer = spec.tracer;
  wc.enable_cache = spec.enable_cache;
  runtime::SupervisorConfig sc;
  sc.num_workers = spec.num_workers;
  sc.id_prefix = job + "-w";
  sc.metrics = spec.metrics;
  sc.tracer = spec.tracer;
  sc.max_restarts_per_slot = 8;
  sc.initial_backoff = 0.01;
  sc.watch_interval = 0.002;
  runtime::WorkerSupervisor supervisor(
      [&](const std::string& worker_id, int /*incarnation*/) {
        auto worker = std::make_shared<classiccloud::Worker>(
            worker_id, *cloud.store, task_queue, client.monitor_queue(), executor, wc);
        worker->start();
        return runtime::SupervisedWorker{worker, &worker->lifecycle()};
      },
      sc);
  supervisor.start();

  if (!client.wait_for_completion(kRunTimeout)) {
    run.failures.push_back("classiccloud job did not complete within " +
                           ppc::format_fixed(kRunTimeout, 0) + "s");
  }
  if (chaos && !wait_until([&] { return task_queue->dlq_depth() >= 1; }, kDlqTimeout)) {
    run.failures.push_back("poison task never reached the dead-letter queue");
  }
  supervisor.stop();
  disarm(spec, run);

  for (const auto& task : client.tasks()) {
    if (const auto out = client.fetch_output(task)) {
      run.outputs[task.input_key.substr(std::string("input/").size())] = *out;
    }
  }
  if (chaos) tally_queue_run(spec, *task_queue, run);
}

void run_azuremr(const Harness& spec, const AppJob& app, RunReport& run) {
  const bool chaos = spec.faults != nullptr;
  CloudServices cloud(spec);
  const std::string job = spec.job + "-az";
  std::shared_ptr<cloudq::MessageQueue> task_queue;
  if (chaos) {
    task_queue = cloud.queues.create_queue_with_dlq(job + "-mr-tasks", spec.max_receive_count);
    // Poison sentinel: a task with an op no worker implements.
    task_queue->send(ppc::encode_kv({{"op", "poison"}, {"input", "none"}}));
    spec.faults->arm_plan(*spec.plan);
  }

  azuremr::MrWorkerConfig wc;
  wc.poll_interval = 0.001;
  if (chaos) wc.visibility_timeout = kFaultVisibilityTimeout;
  wc.abandon_visibility = 0.02;
  wc.task_max_receive_count = chaos ? spec.max_receive_count : 0;
  wc.faults = spec.faults;
  wc.metrics = spec.metrics;
  wc.tracer = spec.tracer;
  azuremr::AzureMapReduce mr(*cloud.store, cloud.queues, spec.num_workers, wc);
  mr.supervisor_config.tracer = spec.tracer;
  mr.supervisor_config.max_restarts_per_slot = 8;
  mr.supervisor_config.initial_backoff = 0.01;
  mr.supervisor_config.watch_interval = 0.002;

  azuremr::JobSpec job_spec;
  job_spec.job_id = job;
  job_spec.inputs = app.files;
  job_spec.num_reduce_tasks = 2;
  job_spec.stage_timeout = kRunTimeout;
  job_spec.map = [fn = app.fn](const std::string& name, const std::string& data,
                               const std::string&) {
    return std::vector<azuremr::KeyValue>{{name, fn(name, data)}};
  };
  job_spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return values.front();
  };
  const auto result = mr.run(job_spec);
  if (!result.succeeded) run.failures.push_back("azuremr job failed");
  if (chaos && task_queue->dlq_depth() < 1) {
    // Small jobs can finish before the poison burns through its redrive
    // budget, and run() stops the pool on completion. Keep one drain worker
    // polling — it abandons everything it sees, so leftover messages (the
    // poison, plus any completed-but-undeleted stragglers) hit their
    // receive limit and land in the DLQ.
    runtime::LifecycleConfig lc;
    lc.poll_interval = 0.001;
    lc.visibility_timeout = kFaultVisibilityTimeout;
    lc.abandon_visibility = 0.0;
    runtime::TaskLifecycle drain(
        job + "-drain", task_queue,
        [](runtime::TaskContext&) { return runtime::TaskOutcome::kAbandoned; }, lc,
        spec.metrics, nullptr);
    drain.start();
    const bool drained =
        wait_until([&] { return task_queue->dlq_depth() >= 1; }, kDlqTimeout);
    drain.request_stop();
    drain.join();
    if (!drained) run.failures.push_back("poison task never reached the dead-letter queue");
  }
  disarm(spec, run);
  if (chaos) tally_queue_run(spec, *task_queue, run);
  run.outputs = result.outputs;
}

/// Stages the inputs under /in/ on a MiniHdfs of the spec's nodes, then
/// arms the fault plan; returns the input paths.
std::vector<std::string> stage(const Harness& spec, minihdfs::MiniHdfs& hdfs,
                               const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<std::string> paths;
  for (const auto& [name, data] : files) {
    paths.push_back("/in/" + name);
    hdfs.write(paths.back(), data);
  }
  if (spec.faults != nullptr) spec.faults->arm_plan(*spec.plan);
  return paths;
}

void configure(const Harness& spec, mapreduce::JobConfig& jc) {
  jc.num_nodes = spec.num_workers;
  jc.slots_per_node = spec.slots_per_node;
  jc.scheduler.max_attempts = spec.max_attempts;
  jc.faults = spec.faults;
  jc.metrics = spec.metrics;
  jc.tracer = spec.tracer;
}

/// A MapReduce or Dryad run's "redeliveries": its failed attempts.
template <typename Attempts>
std::int64_t failed_attempts(const Attempts& attempts) {
  return std::count_if(attempts.begin(), attempts.end(),
                       [](const auto& a) { return !a.succeeded; });
}

void run_mapreduce(const Harness& spec, const AppJob& app, RunReport& run) {
  minihdfs::MiniHdfs hdfs(spec.num_workers);
  const std::vector<std::string> paths = stage(spec, hdfs, app.files);
  mapreduce::JobConfig jc;
  configure(spec, jc);
  mapreduce::LocalJobRunner runner(hdfs);
  const auto result = runner.run(
      paths,
      [fn = app.fn](const mapreduce::FileRecord& record, const std::string& contents) {
        return fn(record.name, contents);
      },
      jc);
  if (!result.succeeded) run.failures.push_back("mapreduce job failed");
  disarm(spec, run);
  run.redeliveries = failed_attempts(result.attempts);
  for (const auto& [name, out_path] : result.outputs) {
    run.outputs[name] = hdfs.read(out_path).value_or("");
  }
}

/// Full pipeline: partition → spill → fetch → external sort → reduce.
void run_shuffle(const Harness& spec, const AppJob& app, RunReport& run) {
  minihdfs::MiniHdfs hdfs(spec.num_workers);
  const std::vector<std::string> paths = stage(spec, hdfs, app.files);
  mapreduce::ShuffleJobConfig jc;
  configure(spec, jc);
  jc.reduce_scheduler.max_attempts = spec.max_attempts;
  jc.num_reducers = spec.num_reducers;
  jc.job_name = spec.job;
  jc.map_spill_budget = spec.map_spill_budget;
  jc.sort_memory_budget = spec.sort_memory_budget;
  mapreduce::ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, app.map, app.reduce, jc);
  if (!result.succeeded) run.failures.push_back("mapreduce shuffle job failed");
  disarm(spec, run);
  run.redeliveries =
      failed_attempts(result.map_attempts) + failed_attempts(result.reduce_attempts);
  run.corrupt_deliveries = result.shuffle.corrupt_fetches;
  run.shuffle = result.shuffle;
  run.map_stats = result.map_stats;
  run.reduce_stats = result.reduce_stats;
  run.outputs = mapreduce::canonical_reduced_output(result, hdfs);
}

void run_dryad(const Harness& spec, const AppJob& app, RunReport& run) {
  dryad::FileShare share(spec.num_workers);
  const std::map<std::string, std::string> files(app.files.begin(), app.files.end());
  std::vector<std::string> names;
  for (const auto& [name, _] : app.files) names.push_back(name);
  // Round-robin static partitioning — the layout the paper's partition tool
  // produces without size information, and the one §4.2 blames for the
  // imbalance on inhomogeneous data.
  const auto table = dryad::PartitionedTable::round_robin(names, spec.num_workers);
  table.distribute(share, [&](const std::string& name) { return files.at(name); });
  dryad::RuntimeConfig rc;
  rc.num_nodes = spec.num_workers;
  rc.slots_per_node = spec.slots_per_node;
  rc.faults = spec.faults;
  rc.tracer = spec.tracer;
  rc.metrics = spec.metrics;
  if (spec.faults != nullptr) spec.faults->arm_plan(*spec.plan);
  dryad::DryadRuntime rt(rc);
  const auto result = dryad_select(rt, share, table, app.fn);
  if (!result.report.succeeded) run.failures.push_back("dryad job failed");
  disarm(spec, run);
  run.redeliveries = failed_attempts(result.report.attempts);
  run.outputs = result.outputs;
}

}  // namespace

RunReport run_engine(const EngineRunSpec& spec, const AppJob& app) {
  const std::string& s = spec.substrate;
  const bool shuffle = app.map != nullptr;
  const auto body = shuffle              ? (s == "mapreduce" ? run_shuffle : nullptr)
                    : s == "classiccloud" ? run_classiccloud
                    : s == "azuremr"      ? run_azuremr
                    : s == "mapreduce"    ? run_mapreduce
                    : s == "dryad"        ? run_dryad
                                          : nullptr;
  if (body == nullptr) {
    throw ppc::InvalidArgument(shuffle ? "shuffle jobs run on the mapreduce substrate only"
                                       : "unknown substrate: " + s);
  }
  RunReport run;
  run.metrics = std::make_shared<runtime::MetricsRegistry>();
  runtime::FaultInjector faults;
  runtime::Tracer tracer;
  if (spec.trace) tracer.enable();
  const Harness harness{spec, spec.plan ? &faults : nullptr, spec.trace ? &tracer : nullptr,
                        run.metrics};
  std::optional<runtime::Monitor> monitor;
  if (spec.monitor_period > 0.0) {
    monitor.emplace(*run.metrics, runtime::MonitorConfig{.period = spec.monitor_period});
    monitor->start();
  }
  const auto t0 = std::chrono::steady_clock::now();
  body(harness, app, run);
  run.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (monitor) {
    monitor->stop();
    run.record(*monitor);
  }
  if (spec.trace) {
    tracer.disable();
    run.chrome_json = tracer.to_chrome_json();
    run.spans = tracer.completed_spans();
    run.summary_table = tracer.summary_table();
    run.load = tracer.load_report();
  }
  if (!shuffle && run.outputs.size() != app.files.size()) {
    run.failures.push_back(s + " produced " + std::to_string(run.outputs.size()) + " of " +
                           std::to_string(app.files.size()) + " outputs");
  }
  run.succeeded = run.failures.empty();
  return run;
}

}  // namespace ppc::sim
