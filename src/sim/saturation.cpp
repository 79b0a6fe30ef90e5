#include "sim/saturation.h"

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "cloudq/message_queue.h"
#include "common/clock.h"
#include "common/error.h"
#include "billing/cost_model.h"

namespace ppc::sim {

namespace {

/// Messages per receive/delete request in the batched cells. The sweep also
/// emits one unbatched (batch=1) reference row per shard count at the widest
/// worker count, so the batching win is visible in the same artifact.
constexpr int kBatch = static_cast<int>(cloudq::MessageQueue::kBatchLimit);
constexpr unsigned kSeed = 42;

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// One sweep cell: pre-fill the queue, then `workers` threads drain it
/// through the batch APIs as fast as they can.
SaturationCell run_cell(int workers, int shards, int batch, int tasks) {
  PPC_REQUIRE(workers >= 1 && tasks >= 1, "cell needs workers and tasks");
  auto clock = std::make_shared<SystemClock>();
  cloudq::QueueConfig qc;
  qc.shards = shards;
  cloudq::MessageQueue queue("sat", clock, qc, ppc::Rng(kSeed));

  {
    std::vector<std::string> bodies;
    bodies.reserve(cloudq::MessageQueue::kBatchLimit);
    for (int i = 0; i < tasks;) {
      bodies.clear();
      for (std::size_t j = 0; j < cloudq::MessageQueue::kBatchLimit && i < tasks; ++j, ++i) {
        bodies.push_back("t" + std::to_string(i));
      }
      queue.send_batch(bodies);
    }
  }

  std::atomic<std::int64_t> deleted{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      std::vector<cloudq::Message> buf;
      std::vector<std::string> receipts;
      buf.reserve(static_cast<std::size_t>(batch));
      receipts.reserve(static_cast<std::size_t>(batch));
      while (deleted.load(std::memory_order_relaxed) < tasks) {
        buf.clear();
        if (queue.receive_batch(static_cast<std::size_t>(batch), 60.0, buf) == 0) {
          // An empty receive swept every shard and found nothing visible.
          // The queue was pre-filled and nothing times out within 60 s, so
          // no message can become visible again: the rest is in flight on
          // other threads, which delete it. Stop polling rather than bill
          // a stream of empty receives while they finish.
          break;
        }
        receipts.clear();
        for (cloudq::Message& m : buf) receipts.push_back(std::move(m.receipt_handle));
        deleted.fetch_add(static_cast<std::int64_t>(queue.delete_batch(receipts)),
                          std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : pool) t.join();
  const double secs = wall_seconds_since(t0);
  PPC_CHECK(queue.undeleted() == 0, "saturation cell must drain its queue");

  SaturationCell cell;
  cell.workers = workers;
  cell.shards = shards;
  cell.batch = batch;
  cell.tasks = tasks;
  cell.seconds = secs;
  cell.tasks_per_second = secs > 0.0 ? tasks / secs : 0.0;
  const auto meter = queue.meter();
  cell.api_requests = meter.total();
  cell.unbatched_requests = meter.unbatched_total();
  cell.batch_occupancy = meter.batch_occupancy();
  return cell;
}

}  // namespace

std::string SaturationCell::name() const {
  return "w" + std::to_string(workers) + "_s" + std::to_string(shards) + "_b" +
         std::to_string(batch);
}

SaturationReport run_saturation_sweep(const SaturationConfig& config) {
  PPC_REQUIRE(!config.workers.empty() && !config.shards.empty(), "empty sweep grid");
  SaturationReport report;
  for (const int shards : config.shards) {
    for (const int workers : config.workers) {
      report.cells.push_back(run_cell(workers, shards, kBatch, config.tasks));
    }
    // Unbatched reference at the widest worker count: same traffic, one
    // message per request — the row the batching win is measured against.
    report.cells.push_back(run_cell(config.workers.back(), shards, 1, config.tasks));
  }
  for (const auto& cell : report.cells) {
    report.peak_tasks_per_second = std::max(report.peak_tasks_per_second, cell.tasks_per_second);
  }
  return report;
}

std::string SaturationReport::to_text() const {
  std::ostringstream os;
  os << "== queue saturation sweep (tasks/s vs workers vs shards) ==\n";
  char line[192];
  std::snprintf(line, sizeof(line), "%-12s %8s %7s %6s %12s %13s %11s %10s\n", "cell", "workers",
                "shards", "batch", "tasks/s", "api-requests", "unbatched", "occupancy");
  os << line;
  for (const auto& c : cells) {
    std::snprintf(line, sizeof(line), "%-12s %8d %7d %6d %12.0f %13llu %11llu %10.2f\n",
                  c.name().c_str(), c.workers, c.shards, c.batch, c.tasks_per_second,
                  static_cast<unsigned long long>(c.api_requests),
                  static_cast<unsigned long long>(c.unbatched_requests), c.batch_occupancy);
    os << line;
  }
  std::snprintf(line, sizeof(line), "peak: %.0f tasks/s\n", peak_tasks_per_second);
  os << line;
  return os.str();
}

std::string SaturationReport::to_json(const std::string& git_sha,
                                      const SaturationConfig& config) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os << "{\n  \"meta\": {\"git_sha\": \"" << git_sha
     << "\", \"tasks_per_cell\": " << config.tasks << ", \"batch\": " << kBatch
     << ", \"seed\": " << kSeed << "},\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    os.precision(6);
    os << "    {\"name\": \"" << c.name() << "\", \"workers\": " << c.workers
       << ", \"shards\": " << c.shards << ", \"batch\": " << c.batch
       << ", \"tasks\": " << c.tasks << ", \"seconds\": " << c.seconds;
    os.precision(1);
    os << ", \"tasks_per_second\": " << c.tasks_per_second
       << ", \"api_requests\": " << c.api_requests
       << ", \"unbatched_requests\": " << c.unbatched_requests;
    os.precision(2);
    os << ", \"batch_occupancy\": " << c.batch_occupancy << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os.precision(1);
  os << "  ],\n  \"peak_tasks_per_second\": " << peak_tasks_per_second << "\n}\n";
  return os.str();
}

DesRunSpec campaign_spec() {
  DesRunSpec spec;
  spec.params.seed = 42;
  spec.params.receive_batch = 10;
  spec.params.queue.shards = 8;
  spec.monitor = DesMonitor{.period = 600.0, .capacity = 8192};
  spec.rerun = true;
  return spec;
}

void check_campaign(RunReport& report, Seconds wall_budget) {
  std::vector<std::string>& failures = report.failures;
  if (report.result.queue_undeleted_end != 0) {
    failures.push_back("task queue did not drain: " +
                       std::to_string(report.result.queue_undeleted_end) + " undeleted messages");
  }
  if (report.alarmed()) failures.push_back("monitor alarm fired");
  if (!report.deterministic) failures.push_back("monitor time-series differed across reruns");
  if (report.wall_seconds > wall_budget) {
    failures.push_back("wall budget exceeded: " + std::to_string(report.wall_seconds) + "s > " +
                       std::to_string(wall_budget) + "s");
  }
  report.succeeded = failures.empty();
}

std::string campaign_text(const RunReport& report) {
  const core::RunResult& r = report.result;
  const auto savings =
      billing::queue_batching_savings(r.queue_api_requests, r.queue_unbatched_requests);
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "=== campaign: %d Cap3 tasks — %d completed, makespan %.0f sim-s "
                "(%.1f tasks/sim-s), wall %.1fs ===\n",
                r.tasks, r.completed, r.makespan, r.makespan > 0.0 ? r.completed / r.makespan : 0.0,
                report.wall_seconds);
  os << line;
  std::snprintf(line, sizeof(line),
                "queue: %llu API requests (%llu unbatched equivalent, occupancy %.2f), "
                "$%.2f vs $%.2f unbatched, %llu undeleted at end\n",
                static_cast<unsigned long long>(r.queue_api_requests),
                static_cast<unsigned long long>(r.queue_unbatched_requests),
                r.queue_batch_occupancy, savings.cost, savings.unbatched_cost,
                static_cast<unsigned long long>(r.queue_undeleted_end));
  os << line;
  std::snprintf(line, sizeof(line), "monitor: %llu samples, alarms %s, rerun %s\n",
                static_cast<unsigned long long>(report.samples),
                report.alarmed() ? "FIRED" : "quiet",
                report.deterministic ? "byte-identical" : "DIVERGED");
  os << line;
  os << (report.succeeded ? "verdict: PASS\n" : "verdict: FAIL\n");
  for (const auto& f : report.failures) os << "  - " << f << "\n";
  return os.str();
}

}  // namespace ppc::sim
