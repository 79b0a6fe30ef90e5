#include "engines.h"

#include <memory>
#include <utility>

#include "azuremr/runtime.h"
#include "classiccloud/job_client.h"
#include "cloud/instance_types.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/string_util.h"
#include "dryad/file_share.h"
#include "dryad/partitioned_table.h"
#include "dryad/runtime.h"
#include "mapreduce/job.h"
#include "minihdfs/mini_hdfs.h"
#include "stats.h"
#include "storage/fs_backends.h"

namespace perfbench {

namespace {

using ppc::storage::TransferMeter;

constexpr double kJobTimeout = 60.0;

TransferMeter meter_delta(const TransferMeter& after, const TransferMeter& before) {
  TransferMeter d;
  d.bytes_in = after.bytes_in - before.bytes_in;
  d.bytes_out = after.bytes_out - before.bytes_out;
  d.puts = after.puts - before.puts;
  d.gets = after.gets - before.gets;
  d.heads = after.heads - before.heads;
  d.lists = after.lists - before.lists;
  d.deletes = after.deletes - before.deletes;
  return d;
}

std::unique_ptr<ppc::storage::StorageBackend> make_store(Probe* probe) {
  auto store = ppc::storage::make_backend(ppc::storage::StorageKind::kObject,
                                          std::make_shared<ppc::SystemClock>(), ppc::Rng(0x57));
  if (probe != nullptr) store->set_tracer(probe);
  return store;
}

std::string run_fn(const FileJob& job, Probe* probe, std::size_t file, const std::string& data) {
  Timed timed(probe, job.kind.at(file));
  return job.fn(file, data);
}

void run_classic(const FileJob& job, const EngineOptions& opt, JobRun& run) {
  auto store = make_store(opt.probe);
  ppc::cloudq::QueueService queues(std::make_shared<ppc::SystemClock>());
  if (opt.probe != nullptr) queues.set_tracer(opt.probe);

  ppc::classiccloud::JobClient client(*store, queues, "bench-cc");
  ppc::classiccloud::TaskExecutor executor = [&job, probe = opt.probe](
                                                 const ppc::classiccloud::TaskSpec& task,
                                                 const std::string& input) {
    // input_key is "input/<file name>".
    return run_fn(job, probe, job.index_of(task.input_key.substr(6)), input);
  };
  ppc::classiccloud::WorkerConfig wc;
  wc.poll_interval = 0.001;
  wc.enable_cache = opt.block_cache;
  ppc::classiccloud::WorkerPool pool(*store, client.task_queue(), client.monitor_queue(),
                                     executor, wc, kWorkers, "bench-cc-w");
  if (opt.probe != nullptr) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (auto* cache = pool.worker(i).cache(); cache != nullptr) cache->set_tracer(opt.probe);
    }
  }

  const double s0 = now_s();
  client.submit(job.files, job.shared_files);
  const TransferMeter m0 = store->meter();
  const double cost0 = store->transfer_and_request_cost() + queues.total_request_cost();
  run.t0 = now_s();
  run.stage_s = run.t0 - s0;
  pool.start_all();
  const bool done = client.wait_for_completion(kJobTimeout, 0.001);
  run.t1 = now_s();
  run.meter = meter_delta(store->meter(), m0);
  run.service_cost =
      store->transfer_and_request_cost() + queues.total_request_cost() - cost0;
  pool.stop_all();
  pool.join_all();

  run.redeliveries = pool.metrics().sum_counters(".redeliveries");
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (auto* cache = pool.worker(i).cache(); cache != nullptr) {
      run.cache_hits += cache->hits();
      run.cache_misses += cache->misses();
    }
  }
  run.payload_bytes = run.meter.bytes_in + run.meter.bytes_out;
  run.succeeded = done;
  if (!done) return;
  for (const auto& task : client.tasks()) {
    if (auto out = client.fetch_output(task); out != nullptr) {
      run.outputs.emplace(task.input_key.substr(6), *out);
    }
  }
}

void run_azure(const FileJob& job, const EngineOptions& opt, JobRun& run) {
  auto store = make_store(opt.probe);
  ppc::cloudq::QueueService queues(std::make_shared<ppc::SystemClock>());
  if (opt.probe != nullptr) queues.set_tracer(opt.probe);

  ppc::azuremr::JobSpec spec;
  spec.job_id = "bench-az";
  spec.inputs = job.files;
  spec.num_reduce_tasks = kWorkers;
  spec.stage_timeout = kJobTimeout;
  // azuremr has no shared-file channel, so the map wrapper fetches every
  // shared file per task and checks it against its etag, as classiccloud's
  // TaskLifecycle does on each fetch.
  auto* backend = store.get();
  spec.map = [&job, backend, probe = opt.probe, bucket = spec.job_id](
                 const std::string& name, const std::string& data, const std::string&) {
    for (const auto& [shared, _] : job.shared_files) {
      const std::string key = "shared/" + shared;
      const auto blob = backend->get(bucket, key);
      const auto tag = backend->etag(bucket, key);
      if (blob == nullptr || !tag.has_value() || ppc::fnv1a64(*blob) != *tag) {
        throw ppc::InternalError("shared blob failed its etag check: " + key);
      }
    }
    return std::vector<ppc::azuremr::KeyValue>{
        {name, run_fn(job, probe, job.index_of(name), data)}};
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return values.front();
  };

  ppc::azuremr::MrWorkerConfig wc;
  wc.poll_interval = 0.001;
  ppc::azuremr::AzureMapReduce mr(*store, queues, kWorkers, wc);

  const double s0 = now_s();
  for (const auto& [name, data] : job.shared_files) store->put(spec.job_id, "shared/" + name, data);
  const TransferMeter m0 = store->meter();
  const double cost0 = store->transfer_and_request_cost() + queues.total_request_cost();
  run.t0 = now_s();
  run.stage_s = run.t0 - s0;
  const auto result = mr.run(spec);  // uploads the inputs inside the window
  run.t1 = now_s();
  run.meter = meter_delta(store->meter(), m0);
  run.service_cost =
      store->transfer_and_request_cost() + queues.total_request_cost() - cost0;
  run.redeliveries = mr.metrics().sum_counters(".redeliveries");
  run.payload_bytes = run.meter.bytes_in + run.meter.bytes_out;
  run.succeeded = result.succeeded;
  run.outputs = result.outputs;
}

void run_mapreduce(const FileJob& job, const EngineOptions& opt, JobRun& run) {
  const double s0 = now_s();
  ppc::minihdfs::MiniHdfs hdfs(kWorkers);
  std::vector<std::string> paths;
  for (const auto& [name, data] : job.files) {
    paths.push_back("/in/" + name);
    hdfs.write(paths.back(), data);
  }
  ppc::mapreduce::JobConfig jc;
  jc.num_nodes = kWorkers;
  jc.slots_per_node = 1;
  ppc::mapreduce::LocalJobRunner runner(hdfs);
  run.t0 = now_s();
  run.stage_s = run.t0 - s0;
  const auto result = runner.run(
      paths,
      [&job, probe = opt.probe](const ppc::mapreduce::FileRecord& record,
                                const std::string& contents) {
        return run_fn(job, probe, job.index_of(record.name), contents);
      },
      jc);
  run.t1 = now_s();
  run.succeeded = result.succeeded;
  for (const auto& [name, path] : result.outputs) {
    if (auto out = hdfs.read(path)) run.outputs.emplace(name, std::move(*out));
  }
}

void run_dryad(const FileJob& job, const EngineOptions& opt, JobRun& run) {
  const double s0 = now_s();
  ppc::dryad::FileShare share(kWorkers);
  std::vector<std::string> names;
  for (const auto& [name, _] : job.files) names.push_back(name);
  // Round-robin static partitions: the paper's layout, and the one §4.2
  // blames for the idle tail on inhomogeneous data.
  const auto table = ppc::dryad::PartitionedTable::round_robin(names, kWorkers);
  table.distribute(share, [&job](const std::string& name) {
    return job.files.at(job.index_of(name)).second;
  });
  ppc::dryad::RuntimeConfig rc;
  rc.num_nodes = kWorkers;
  rc.slots_per_node = 1;
  ppc::dryad::DryadRuntime runtime(rc);
  run.t0 = now_s();
  run.stage_s = run.t0 - s0;
  auto result = ppc::dryad::dryad_select(
      runtime, share, table,
      [&job, probe = opt.probe](const std::string& name, const std::string& contents) {
        return run_fn(job, probe, job.index_of(name), contents);
      });
  run.t1 = now_s();
  run.succeeded = result.report.succeeded;
  run.outputs = std::move(result.outputs);
}

}  // namespace

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kClassic: return "classiccloud";
    case Engine::kAzure: return "azuremr";
    case Engine::kMapReduce: return "mapreduce";
    case Engine::kDryad: return "dryad";
  }
  return "?";
}

JobRun run_file_job(Engine engine, const FileJob& job, const EngineOptions& options) {
  JobRun run;
  run.engine = engine;
  switch (engine) {
    case Engine::kClassic: run_classic(job, options, run); break;
    case Engine::kAzure: run_azure(job, options, run); break;
    case Engine::kMapReduce: run_mapreduce(job, options, run); break;
    case Engine::kDryad: run_dryad(job, options, run); break;
  }
  if (engine == Engine::kMapReduce || engine == Engine::kDryad) {
    // HDFS / node shares: every input read once, every output written once.
    run.payload_bytes = job.input_bytes();
    for (const auto& [name, out] : run.outputs) run.payload_bytes += static_cast<double>(out.size());
  }
  return run;
}

int count_mismatches(const FileJob& job, const JobRun& run,
                     const std::vector<std::string>& reference) {
  int bad = 0;
  for (std::size_t i = 0; i < job.files.size(); ++i) {
    const auto it = run.outputs.find(job.files[i].first);
    if (it == run.outputs.end() || it->second != reference[i]) ++bad;
  }
  return bad;
}

double core_seconds_cost(int workers, double seconds) {
  const auto& hcxl = ppc::cloud::ec2_hcxl();
  return hcxl.cost_per_hour / hcxl.cpu_cores * workers * seconds / 3600.0;
}

}  // namespace perfbench
