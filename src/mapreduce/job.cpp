#include "mapreduce/job.h"

#include <chrono>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "common/log.h"
#include "common/thread_pool.h"

namespace ppc::mapreduce {

namespace detail {

runtime::Span Slot::span(std::string_view name, std::string_view category,
                         std::string_view task) const {
  return tracer != nullptr ? tracer->span(name, category, track, task) : runtime::Span{};
}

std::vector<AttemptRecord> run_phase(TaskScheduler& scheduler, const PhaseSpec& phase,
                                     const AttemptBody& body, const JobConfig& config,
                                     runtime::MetricsRegistry& metrics, const ppc::Clock& clock) {
  std::vector<AttemptRecord> attempts;
  std::mutex attempts_mu;

  runtime::Tracer* tracer = config.tracer;
  auto slot_loop = [&](minihdfs::NodeId node, int s) {
    Slot slot;
    slot.node = node;
    slot.track = "mr.n" + std::to_string(node) + ".s" + std::to_string(s);
    if (tracer != nullptr) runtime::Tracer::bind_thread(slot.track);
    Seconds idle_since = -1.0;  // tracer-clock time this slot went idle
    while (!scheduler.job_done()) {
      const bool tracing = tracer != nullptr && tracer->enabled();
      if (tracing && idle_since < 0.0) idle_since = tracer->now();
      const auto assignment = scheduler.next_task(node, clock.now());
      if (!assignment) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      AttemptRecord record;
      record.assignment = *assignment;
      record.start = clock.now();
      const TaskInfo& task = scheduler.task(assignment->task_id);
      slot.tracer = tracing ? tracer : nullptr;
      runtime::Span task_span;
      if (tracing) {
        if (idle_since >= 0.0) {
          tracer->span_from(idle_since, "queue.wait", "mapreduce", slot.track).close();
          idle_since = -1.0;
        }
        runtime::Tracer::bind_thread_task(task.name);
        task_span = tracer->span("task", "mapreduce", slot.track, task.name);
        task_span.arg("attempt", std::to_string(assignment->attempt_id));
        task_span.arg("node", std::to_string(node));
        task_span.arg("phase", phase.label);
      }
      try {
        if (config.faults != nullptr &&
            config.faults->fire(phase.fault_site, std::to_string(assignment->task_id) + ":" +
                                                      std::to_string(assignment->attempt_id))) {
          throw runtime::InjectedFault("injected crash at " + phase.fault_site);
        }
        const Completion done = body(*assignment, task, slot);
        record.end = clock.now();
        record.succeeded = true;
        const bool first = scheduler.report_completed(*assignment, record.end);
        metrics.histogram(phase.seconds_metric).record(record.end - record.start);
        if (first) {
          done.commit();
          record.output_committed = true;
          metrics.counter(phase.completed_metric).inc();
          task_span.arg("outcome", "completed");
        } else {
          if (done.discard) done.discard();
          metrics.counter("mapreduce.wasted_attempts").inc();
          task_span.arg("outcome", "superseded");
        }
      } catch (const std::exception& e) {
        record.end = clock.now();
        record.error = e.what();
        scheduler.report_failed(*assignment, record.end);
        metrics.counter("mapreduce.failed_attempts").inc();
        task_span.arg("outcome", "failed");
        PPC_DEBUG << phase.label << " attempt failed on node " << node << ": " << e.what();
      }
      task_span.close();
      if (tracing) runtime::Tracer::bind_thread_task({});
      metrics.counter(phase.attempts_metric).inc();
      {
        std::lock_guard lock(attempts_mu);
        attempts.push_back(record);
      }
    }
    if (tracer != nullptr) runtime::Tracer::clear_thread();
  };

  {
    // Executor slots run on the shared pool; try_submit degrades gracefully
    // if a slot races pool shutdown (it simply contributes no slot).
    ppc::ThreadPool pool(static_cast<std::size_t>(config.num_nodes * config.slots_per_node));
    std::vector<std::future<void>> slots;
    slots.reserve(pool.size());
    for (int node = 0; node < config.num_nodes; ++node) {
      for (int s = 0; s < config.slots_per_node; ++s) {
        if (auto slot = pool.try_submit([&slot_loop, node, s] { slot_loop(node, s); })) {
          slots.push_back(std::move(*slot));
        }
      }
    }
    for (auto& slot : slots) slot.get();
  }
  return attempts;
}

std::vector<TaskInfo> map_tasks(const minihdfs::MiniHdfs& hdfs,
                                const std::vector<std::string>& input_paths,
                                const JobConfig& config) {
  PPC_REQUIRE(!input_paths.empty(), "job has no input files");
  PPC_REQUIRE(config.num_nodes >= 1 && config.num_nodes <= hdfs.num_nodes(),
              "num_nodes must be within the HDFS cluster size");
  PPC_REQUIRE(config.slots_per_node >= 1, "slots_per_node must be >= 1");
  const auto splits = FilePathInputFormat::splits(hdfs, input_paths);
  std::vector<TaskInfo> tasks(splits.size());
  for (std::size_t i = 0; i < splits.size(); ++i) {
    tasks[i].task_id = static_cast<int>(i);
    tasks[i].path = splits[i].record.path;
    tasks[i].name = splits[i].record.name;
    tasks[i].size = splits[i].size;
    tasks[i].preferred = splits[i].locations;
  }
  return tasks;
}

std::string read_input(minihdfs::MiniHdfs& hdfs, const TaskInfo& task, const Slot& slot) {
  runtime::Span fetch_span = slot.span("fetch.input", "task", task.name);
  auto contents = hdfs.read_from(task.path, slot.node);
  fetch_span.close();
  PPC_CHECK(contents.has_value(), "input vanished from HDFS: " + task.path);
  return std::move(*contents);
}

}  // namespace detail

LocalJobRunner::LocalJobRunner(minihdfs::MiniHdfs& hdfs) : hdfs_(hdfs) {}

JobResult LocalJobRunner::run(const std::vector<std::string>& input_paths, const MapFn& map_fn,
                              const JobConfig& config) {
  PPC_REQUIRE(map_fn != nullptr, "job has no map function");
  TaskScheduler scheduler(detail::map_tasks(hdfs_, input_paths, config), config.scheduler);
  auto metrics = config.metrics ? config.metrics
                                : std::make_shared<runtime::MetricsRegistry>();
  ppc::SystemClock clock;

  JobResult result;
  std::mutex result_mu;
  const auto map_attempt = [&](const Assignment&, const TaskInfo& task,
                               const detail::Slot& slot) {
    const std::string contents = detail::read_input(hdfs_, task, slot);
    runtime::Span compute_span = slot.span("compute", "task", task.name);
    std::string output = map_fn(FileRecord{task.name, task.path}, contents);
    compute_span.close();
    // Commit: write the output to HDFS pinned to this node (the map task
    // "uploads the result file to the HDFS").
    return detail::Completion{[&, output = std::move(output)]() mutable {
      runtime::Span upload_span = slot.span("upload.output", "task", task.name);
      const std::string out_path = config.output_dir + "/" + task.name;
      hdfs_.write(out_path, std::move(output), slot.node);
      upload_span.close();
      std::lock_guard lock(result_mu);
      result.outputs[task.name] = out_path;
    }};
  };

  const Seconds t0 = clock.now();
  result.attempts =
      detail::run_phase(scheduler, detail::kMapPhase, map_attempt, config, *metrics, clock);
  result.elapsed = clock.now() - t0;
  result.succeeded = scheduler.job_succeeded();
  result.scheduler_stats = scheduler.stats();
  metrics->set_gauge("mapreduce.elapsed_seconds", result.elapsed);
  metrics->emit({"mapreduce.job_finished",
                 {{"succeeded", result.succeeded ? "true" : "false"},
                  {"tasks", std::to_string(result.outputs.size())}}});
  return result;
}

}  // namespace ppc::mapreduce
