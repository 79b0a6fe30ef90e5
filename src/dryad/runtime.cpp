#include "dryad/runtime.h"

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>

#include "common/clock.h"
#include "common/error.h"
#include "common/thread_pool.h"

namespace ppc::dryad {

DryadRuntime::DryadRuntime(RuntimeConfig config) : config_(std::move(config)) {
  PPC_REQUIRE(config_.num_nodes >= 1, "need at least one node");
  PPC_REQUIRE(config_.slots_per_node >= 1, "need at least one slot per node");
  PPC_REQUIRE(config_.max_attempts >= 1, "max_attempts must be >= 1");
}

RunReport DryadRuntime::run(const std::vector<Vertex>& vertices) {
  const std::size_t n = vertices.size();
  RunReport report;
  if (n == 0) {
    report.succeeded = true;
    return report;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> attempts_used(n, 0);
  std::vector<std::deque<int>> ready(static_cast<std::size_t>(config_.num_nodes));
  std::size_t finished = 0;
  bool job_failed = false;

  for (std::size_t v = 0; v < n; ++v) {
    const Vertex& vertex = vertices[v];
    PPC_REQUIRE(vertex.fn != nullptr, "vertex function must be callable");
    PPC_REQUIRE(vertex.node >= 0 && vertex.node < config_.num_nodes,
                "vertex pinned outside the cluster");
    ready[static_cast<std::size_t>(vertex.node)].push_back(static_cast<int>(v));
  }

  ppc::SystemClock clock;
  const Seconds t0 = clock.now();

  runtime::Tracer* tracer = config_.tracer;
  auto slot_loop = [&](NodeId node, int slot) {
    const std::string track =
        "dryad.n" + std::to_string(node) + ".s" + std::to_string(slot);
    if (tracer != nullptr) runtime::Tracer::bind_thread(track);
    Seconds idle_since = -1.0;  // tracer-clock time this slot went idle
    std::unique_lock lock(mu);
    while (true) {
      auto& queue = ready[static_cast<std::size_t>(node)];
      if (queue.empty()) {
        if (finished == n || job_failed) break;
        if (tracer != nullptr && tracer->enabled() && idle_since < 0.0) {
          idle_since = tracer->now();
        }
        cv.wait(lock, [&] { return !queue.empty() || finished == n || job_failed; });
        continue;
      }
      const int v = queue.front();
      queue.pop_front();
      const int attempt = attempts_used[static_cast<std::size_t>(v)]++;

      VertexAttempt record;
      record.vertex_id = v;
      record.attempt = attempt;
      record.node = node;

      lock.unlock();
      const bool tracing = tracer != nullptr && tracer->enabled();
      const Vertex& vertex = vertices[static_cast<std::size_t>(v)];
      runtime::Span task_span;
      if (tracing) {
        if (idle_since >= 0.0) {
          tracer->span_from(idle_since, "queue.wait", "dryad", track).close();
          idle_since = -1.0;
        }
        runtime::Tracer::bind_thread_task(vertex.name);
        task_span = tracer->span("task", "dryad", track, vertex.name);
        task_span.arg("attempt", std::to_string(attempt));
        task_span.arg("node", std::to_string(node));
      }
      try {
        if (config_.faults != nullptr &&
            config_.faults->fire(sites::kVertexAttempt,
                                 std::to_string(v) + ":" + std::to_string(attempt))) {
          throw runtime::InjectedFault("injected crash at " + sites::kVertexAttempt);
        }
        vertex.fn();
        record.succeeded = true;
      } catch (const std::exception& e) {
        record.error = e.what();
      }
      if (tracing) {
        task_span.arg("outcome", record.succeeded ? "completed" : "failed");
        task_span.close();
        runtime::Tracer::bind_thread_task({});
      }
      lock.lock();

      report.attempts.push_back(record);
      if (record.succeeded) {
        ++finished;
      } else if (attempts_used[static_cast<std::size_t>(v)] < config_.max_attempts) {
        queue.push_back(v);  // re-execution of the failed vertex, same node
      } else {
        job_failed = true;  // a vertex out of retries fails the job
      }
      cv.notify_all();
      if (job_failed) break;  // every slot stops after its in-flight attempt
    }
    if (tracer != nullptr) runtime::Tracer::clear_thread();
  };

  {
    // Vertex slots run on the shared pool; try_submit degrades gracefully
    // if a slot races pool shutdown (it simply contributes no slot).
    ppc::ThreadPool pool(static_cast<std::size_t>(config_.num_nodes * config_.slots_per_node));
    std::vector<std::future<void>> slots;
    slots.reserve(pool.size());
    for (int node = 0; node < config_.num_nodes; ++node) {
      for (int s = 0; s < config_.slots_per_node; ++s) {
        if (auto slot = pool.try_submit([&slot_loop, node, s] { slot_loop(node, s); })) {
          slots.push_back(std::move(*slot));
        }
      }
    }
    for (auto& slot : slots) slot.get();
  }

  report.elapsed = clock.now() - t0;
  report.succeeded = (finished == n);
  if (config_.metrics) {
    std::int64_t failed = 0;
    for (const VertexAttempt& a : report.attempts) {
      if (!a.succeeded) ++failed;
    }
    config_.metrics->counter("dryad.vertex_attempts").inc(
        static_cast<std::int64_t>(report.attempts.size()));
    config_.metrics->counter("dryad.failed_attempts").inc(failed);
    config_.metrics->counter("dryad.vertices_completed").inc(static_cast<std::int64_t>(finished));
    config_.metrics->set_gauge("dryad.elapsed_seconds", report.elapsed);
  }
  return report;
}

SelectResult dryad_select(
    DryadRuntime& runtime, FileShare& share, const PartitionedTable& table,
    const std::function<std::string(const std::string&, const std::string&)>& fn) {
  PPC_REQUIRE(fn != nullptr, "select needs a function");
  SelectResult result;
  std::mutex outputs_mu;

  std::vector<Vertex> vertices;
  vertices.reserve(table.partitions().size());
  runtime::Tracer* tracer = runtime.config().tracer;
  for (const Partition& p : table.partitions()) {
    vertices.push_back({"select-part-" + std::to_string(p.index), p.node, [&, part = p] {
      // span_here: the executor slot bound its track + the vertex name as
      // thread context before invoking us.
      const bool tracing = tracer != nullptr && tracer->enabled();
      for (const std::string& file : part.files) {
        // Vertex runs on the partition's node, so this read is local —
        // exactly why Dryad pre-distributes the data.
        runtime::Span fetch_span =
            tracing ? tracer->span_here("fetch.input", "task") : runtime::Span{};
        const auto contents = share.read(part.node, file, part.node);
        fetch_span.close();
        PPC_CHECK(contents.has_value(), "partition file missing from share: " + file);
        runtime::Span compute_span =
            tracing ? tracer->span_here("compute", "task") : runtime::Span{};
        compute_span.arg("file", file);
        std::string out = fn(file, *contents);
        compute_span.close();
        runtime::Span upload_span =
            tracing ? tracer->span_here("upload.output", "task") : runtime::Span{};
        share.write(part.node, file + ".out", out);
        upload_span.close();
        std::lock_guard lock(outputs_mu);
        result.outputs[file] = std::move(out);
      }
    }});
  }
  result.report = runtime.run(vertices);
  return result;
}

}  // namespace ppc::dryad
