#include "mapreduce/shuffle_job.h"

#include <mutex>

#include "blobstore/blob_store.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/log.h"

namespace ppc::mapreduce {

namespace {

std::string part_name(int partition) {
  std::string digits = std::to_string(partition);
  while (digits.size() < 5) digits.insert(digits.begin(), '0');
  return "part-" + digits;
}

}  // namespace

void ShuffleJobControl::lose_map_output(int map_id) {
  const auto out = registry_.lookup(map_id);
  registry_.drop(map_id);
  if (out) {
    for (const auto& partition : out->partitions) {
      for (const auto& spill : partition) store_.remove(bucket_, spill.store_key);
    }
  }
}

ShuffleJobRunner::ShuffleJobRunner(minihdfs::MiniHdfs& hdfs) : hdfs_(hdfs) {}

ShuffleJobResult ShuffleJobRunner::run(const std::vector<std::string>& input_paths,
                                       const MapKvFn& map_fn, const ReduceFn& reduce_fn,
                                       const ShuffleJobConfig& config) {
  PPC_REQUIRE(map_fn != nullptr, "job has no map function");
  PPC_REQUIRE(reduce_fn != nullptr, "job has no reduce function");
  PPC_REQUIRE(config.num_reducers >= 1, "num_reducers must be >= 1");
  TaskScheduler map_scheduler(detail::map_tasks(hdfs_, input_paths, config), config.scheduler);
  const int num_maps = static_cast<int>(map_scheduler.total_tasks());

  // Shuffle store: borrowed when the caller supplies one (its hooks are the
  // caller's business), otherwise a private zero-latency BlobStore with the
  // job's fault/trace hooks installed so "blobstore.shuffle.*" sites fire.
  std::unique_ptr<blobstore::BlobStore> owned_store;
  storage::StorageBackend* store = config.spill_store;
  if (store == nullptr) {
    owned_store = std::make_unique<blobstore::BlobStore>(std::make_shared<ppc::SystemClock>());
    if (config.faults != nullptr) owned_store->set_fault_hook(config.faults);
    if (config.tracer != nullptr) owned_store->set_tracer(config.tracer);
    store = owned_store.get();
  }
  const std::string bucket = "shuffle";
  if (!store->bucket_exists(bucket)) store->create_bucket(bucket);
  const std::string job_prefix = "shuffle/" + config.job_name;
  const Dollars store_cost0 = store->transfer_and_request_cost();

  auto metrics = config.metrics ? config.metrics
                                : std::make_shared<runtime::MetricsRegistry>();
  const std::int64_t corrupt0 = metrics->counter_value("mapreduce.shuffle.corrupt_fetches");
  ppc::SystemClock clock;
  auto hooks_for = [&](const detail::Slot& slot) {
    ShuffleHooks hooks;
    hooks.faults = config.faults;
    hooks.metrics = metrics.get();
    hooks.tracer = config.tracer;
    hooks.track = slot.track;
    return hooks;
  };

  PartitionMapRegistry registry;
  ShuffleJobResult result;
  std::mutex result_mu;  // result.shuffle, written from executor threads

  // ---------------------------------------------------------------- map ---
  struct MapAttempt {
    MapOutput out;
    std::string prefix;  // this attempt's spill objects
    int spills = 0;
    Bytes spill_bytes = 0.0;
  };
  // One map attempt's work, shared by the map phase and reducer-side
  // redrives: read the input, run the user function into a spilling writer.
  auto run_map = [&](const TaskInfo& task, int attempt_id, const detail::Slot& slot) {
    const std::string contents = detail::read_input(hdfs_, task, slot);
    MapAttempt attempt;
    attempt.prefix =
        job_prefix + "/m" + std::to_string(task.task_id) + ".a" + std::to_string(attempt_id);
    MapOutputWriter writer(*store, bucket, attempt.prefix, task.task_id, attempt_id,
                           config.num_reducers, config.map_spill_budget, hooks_for(slot));
    runtime::Span compute_span = slot.span("compute", "task", task.name);
    map_fn(FileRecord{task.name, task.path}, contents,
           [&writer](const std::string& key, std::string value) {
             writer.emit(key, std::move(value));
           });
    compute_span.close();
    attempt.out = writer.finish();
    attempt.spills = writer.spills();
    attempt.spill_bytes = static_cast<Bytes>(writer.spilled_bytes());
    return attempt;
  };

  const auto map_attempt = [&](const Assignment& a, const TaskInfo& task,
                               const detail::Slot& slot) {
    auto attempt = std::make_shared<MapAttempt>(run_map(task, a.attempt_id, slot));
    // The commit window: spills are durable, the registration is not. A
    // crash here is the map-output-loss shape the reduce phase survives.
    if (config.faults != nullptr &&
        config.faults->fire(sites::kMapRegister, std::to_string(a.task_id) + ":" +
                                                     std::to_string(a.attempt_id))) {
      throw runtime::InjectedFault("injected crash at " + sites::kMapRegister);
    }
    return detail::Completion{
        [&, attempt, task_id = a.task_id] {
          registry.register_output(task_id, std::move(attempt->out));
          std::lock_guard lock(result_mu);
          result.shuffle.map_spills += attempt->spills;
          result.shuffle.map_spill_bytes += attempt->spill_bytes;
          result.shuffle.map_output_bytes += attempt->spill_bytes;
        },
        // A twin already committed: this attempt's spills are orphans.
        [&, attempt] { MapOutputWriter::discard(*store, bucket, attempt->prefix); }};
  };

  const Seconds t0 = clock.now();
  result.map_attempts =
      detail::run_phase(map_scheduler, detail::kMapPhase, map_attempt, config, *metrics, clock);
  result.map_stats = map_scheduler.stats();
  if (!map_scheduler.job_succeeded()) {
    result.elapsed = clock.now() - t0;
    metrics->emit({"mapreduce.job_finished", {{"succeeded", "false"}, {"phase", "map"}}});
    return result;
  }

  ShuffleJobControl control(registry, *store, bucket);
  if (config.between_phases) config.between_phases(control);

  // ------------------------------------------------------------- reduce ---
  // Redrive bookkeeping: per-map redrive counts double as generation
  // counters, so concurrent reducers that both lost m's output agree on
  // who re-executes it.
  std::mutex redrive_mu;
  std::vector<int> redrive_gen(static_cast<std::size_t>(num_maps), 0);

  auto read_gen = [&](int m) {
    std::lock_guard lock(redrive_mu);
    return redrive_gen[static_cast<std::size_t>(m)];
  };

  // Synchronously re-executes map task m on the calling (reducer) slot.
  // Returns true when m's output is registered again (by us or a racing
  // redrive), false when the redrive budget is exhausted.
  auto redrive_map = [&](int m, int gen_seen, const detail::Slot& slot) {
    std::lock_guard lock(redrive_mu);
    auto& gen = redrive_gen[static_cast<std::size_t>(m)];
    if (gen != gen_seen) return true;  // a racing reducer already redrove m
    if (gen >= config.max_map_redrives) return false;
    ++gen;
    // Stale spills (e.g. corrupt-beyond-retries) are garbage once the
    // redrive commits; collect them so the meter doesn't drift.
    control.lose_map_output(m);
    const TaskInfo& task = map_scheduler.task(m);
    runtime::Span span = slot.span("map.redrive", "shuffle", task.name);
    span.arg("map", std::to_string(m));
    // Redrive attempt ids live far above the scheduler's so spill prefixes
    // never collide with scheduled attempts.
    MapAttempt attempt = run_map(task, 10000 + gen, slot);
    registry.register_output(m, std::move(attempt.out));
    span.close();
    metrics->counter("mapreduce.map_redrives").inc();
    {
      std::lock_guard rlock(result_mu);
      result.shuffle.map_redrives += 1;
      result.shuffle.map_spills += attempt.spills;
      result.shuffle.map_spill_bytes += attempt.spill_bytes;
    }
    return true;
  };

  std::vector<TaskInfo> reduce_tasks(static_cast<std::size_t>(config.num_reducers));
  for (int r = 0; r < config.num_reducers; ++r) {
    TaskInfo& t = reduce_tasks[static_cast<std::size_t>(r)];
    t.task_id = r;
    t.name = part_name(r);
    t.path = config.output_dir + "/" + t.name;
  }
  TaskScheduler reduce_scheduler(std::move(reduce_tasks), config.reduce_scheduler);

  const auto reduce_attempt = [&](const Assignment& a, const TaskInfo& task,
                                  const detail::Slot& slot) {
    const int r = a.task_id;
    const ShuffleHooks hooks = hooks_for(slot);
    ExternalSorter sorter(*store, bucket,
                          job_prefix + "/r" + std::to_string(r) + ".a" +
                              std::to_string(a.attempt_id),
                          config.sort_memory_budget, hooks);
    Bytes fetched = 0.0;
    std::int64_t fetch_count = 0;
    std::vector<std::pair<std::string, std::string>> reduced;
    try {
      for (int m = 0; m < num_maps; ++m) {
        const int gen_seen = read_gen(m);
        try {
          const auto out = registry.lookup(m);
          if (!out) throw MapOutputLost(m, "partition map not registered");
          sorter.add(fetch_partition(*store, bucket, *out, m, r, hooks));
          for (const auto& spill : out->partitions[static_cast<std::size_t>(r)]) {
            fetched += spill.bytes;
            ++fetch_count;
          }
        } catch (const MapOutputLost& lost) {
          // The contract the shuffle pins: redrive the map task, then fail
          // (and re-queue) this reduce attempt — never hang, never drop the
          // group.
          const bool recovered = redrive_map(lost.map_id(), gen_seen, slot);
          if (slot.tracer != nullptr) {
            slot.tracer->instant("shuffle.map_output_lost", "shuffle", slot.track);
          }
          if (!recovered) {
            PPC_WARN << "map output m" << lost.map_id()
                     << " unrecoverable (redrive budget exhausted)";
          }
          throw;
        }
      }
      runtime::Span reduce_span = slot.span("shuffle.reduce", "shuffle", task.name);
      // The public ReduceFn takes owning strings: convert each group once,
      // reusing one value vector across groups.
      std::vector<std::string> group;
      sorter.for_each_group(
          [&](std::string_view key, const std::vector<std::string_view>& values) {
            group.resize(values.size());
            for (std::size_t i = 0; i < values.size(); ++i) group[i].assign(values[i]);
            std::string k(key);
            std::string v = reduce_fn(k, group);
            reduced.emplace_back(std::move(k), std::move(v));
          });
    } catch (...) {
      sorter.cleanup();
      throw;
    }
    sorter.cleanup();
    {
      std::lock_guard lock(result_mu);
      result.shuffle.sort_runs_spilled += sorter.runs_spilled();
      result.shuffle.sort_run_bytes += sorter.spilled_bytes();
    }
    return detail::Completion{[&, fetched, fetch_count, reduced = std::move(reduced)] {
      runtime::Span upload_span = slot.span("upload.output", "task", task.name);
      hdfs_.write(task.path, encode_pairs(reduced), slot.node);
      upload_span.close();
      std::lock_guard lock(result_mu);
      result.outputs[task.name] = task.path;
      result.shuffle.fetches += fetch_count;
      result.shuffle.fetched_bytes += fetched;
    }};
  };

  static const detail::PhaseSpec kReducePhase{
      "reduce", sites::kReduceAttempt, "mapreduce.reduce_attempts",
      "mapreduce.reduces_completed", "mapreduce.reduce_attempt_seconds"};
  result.reduce_attempts =
      detail::run_phase(reduce_scheduler, kReducePhase, reduce_attempt, config, *metrics, clock);
  result.elapsed = clock.now() - t0;
  result.succeeded = reduce_scheduler.job_succeeded();
  result.reduce_stats = reduce_scheduler.stats();
  result.shuffle.corrupt_fetches =
      metrics->counter_value("mapreduce.shuffle.corrupt_fetches") - corrupt0;
  result.shuffle.shuffle_storage_cost = store->transfer_and_request_cost() - store_cost0;
  metrics->set_gauge("mapreduce.elapsed_seconds", result.elapsed);
  metrics->set_gauge("mapreduce.shuffle.bytes",
                     static_cast<double>(result.shuffle.fetched_bytes));
  metrics->emit({"mapreduce.job_finished",
                 {{"succeeded", result.succeeded ? "true" : "false"},
                  {"maps", std::to_string(num_maps)},
                  {"reduces", std::to_string(config.num_reducers)}}});
  return result;
}

std::map<std::string, std::string> canonical_reduced_output(const ShuffleJobResult& result,
                                                            minihdfs::MiniHdfs& hdfs) {
  std::map<std::string, std::string> canonical;
  for (const auto& [name, path] : result.outputs) {
    const auto data = hdfs.read(path);
    PPC_CHECK(data.has_value(), "committed reduce output missing from HDFS: " + path);
    for (auto& [key, value] : decode_pairs(*data)) {
      canonical[key] = std::move(value);
    }
  }
  return canonical;
}

std::string encode_canonical(const std::map<std::string, std::string>& canonical) {
  std::vector<std::pair<std::string, std::string>> pairs(canonical.begin(), canonical.end());
  return encode_pairs(pairs);
}

}  // namespace ppc::mapreduce
