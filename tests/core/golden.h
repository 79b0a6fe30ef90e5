// Shared machinery of the DES golden oracles (test_classic_golden.cpp,
// test_des_golden.cpp): a RunResult serialised to canonical
// `<case>.<field> = <value>` text, and the line-by-line comparison with a
// checked-in expectation that PPC_UPDATE_GOLDEN=1 rewrites instead.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/drivers.h"

namespace ppc::core::golden {

/// `<case>.<field> = <value>` lines; doubles round-trip exactly (%.17g).
class Canon {
 public:
  explicit Canon(std::string prefix) : prefix_(std::move(prefix)) {}

  void put(const std::string& key, const std::string& v) {
    out_ += prefix_ + "." + key + " = " + v + "\n";
  }
  void put(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    put(key, std::string(buf));
  }
  void put(const std::string& key, std::int64_t v) { put(key, std::to_string(v)); }
  void put(const std::string& key, std::uint64_t v) { put(key, std::to_string(v)); }
  void put(const std::string& key, int v) { put(key, std::to_string(v)); }
  void put(const std::string& key, bool v) { put(key, std::string(v ? "true" : "false")); }

  const std::string& text() const { return out_; }

 private:
  std::string prefix_;
  std::string out_;
};

inline void put_result(Canon& c, const RunResult& r) {
  c.put("framework", r.framework);
  c.put("deployment_label", r.deployment_label);
  c.put("makespan", r.makespan);
  c.put("tasks", r.tasks);
  c.put("completed", r.completed);
  c.put("duplicate_executions", r.duplicate_executions);
  const std::vector<double>& xs = r.exec_times.samples();
  c.put("exec_times.count", static_cast<std::uint64_t>(xs.size()));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    c.put("exec_times[" + std::to_string(i) + "]", xs[i]);
  }
  c.put("compute_cost_hour_units", r.compute_cost_hour_units);
  c.put("compute_cost_amortized", r.compute_cost_amortized);
  c.put("queue_request_cost", r.queue_request_cost);
  c.put("queue_api_requests", r.queue_api_requests);
  c.put("queue_unbatched_requests", r.queue_unbatched_requests);
  c.put("queue_batch_occupancy", r.queue_batch_occupancy);
  c.put("queue_undeleted_end", r.queue_undeleted_end);
  c.put("bytes_in", r.bytes_in);
  c.put("bytes_out", r.bytes_out);
  c.put("storage_backend", r.storage_backend);
  c.put("storage_service_cost", r.storage_service_cost);
  c.put("storage_heads", r.storage_heads);
  c.put("cache_hits", r.cache_hits);
  c.put("cache_misses", r.cache_misses);
  c.put("cache_bytes_saved", r.cache_bytes_saved);
  const mapreduce::TaskScheduler::Stats& s = r.scheduler_stats;
  c.put("scheduler_stats.local_assignments", s.local_assignments);
  c.put("scheduler_stats.remote_assignments", s.remote_assignments);
  c.put("scheduler_stats.speculative_assignments", s.speculative_assignments);
  c.put("scheduler_stats.failed_attempts", s.failed_attempts);
  c.put("scheduler_stats.wasted_attempts", s.wasted_attempts);
  c.put("scheduler_stats.completed_tasks", s.completed_tasks);
  c.put("local_reads", r.local_reads);
  c.put("remote_reads", r.remote_reads);
  c.put("t1_seconds", r.t1_seconds);
  c.put("parallel_efficiency", r.parallel_efficiency);
  c.put("per_core_task_seconds", r.per_core_task_seconds);
  c.put("trace.count", static_cast<std::uint64_t>(r.trace.size()));
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const TaskTraceEntry& e = r.trace[i];
    const std::string key = "trace[" + std::to_string(i) + "]";
    c.put(key + ".task_id", e.task_id);
    c.put(key + ".worker", e.worker);
    c.put(key + ".exec_start", e.exec_start);
    c.put(key + ".exec_end", e.exec_end);
    c.put(key + ".counted", e.counted);
  }
}

inline void put_monitor(Canon& c, const std::string& json) {
  std::istringstream in(json);
  std::string line;
  for (int i = 0; std::getline(in, line); ++i) {
    c.put("monitor[" + std::to_string(i) + "]", line);
  }
}

inline std::string golden_path(const std::string& file) {
  return std::string(PPC_GOLDEN_DIR) + "/" + file;
}

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Compares `actual` with the checked-in file and reports the first line
/// (= field) that differs. PPC_UPDATE_GOLDEN=1 rewrites the file instead.
inline void expect_golden(const std::string& file, const std::string& actual) {
  const std::string path = golden_path(file);
  if (const char* update = std::getenv("PPC_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream(path, std::ios::binary) << actual;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::vector<std::string> want = split_lines(buf.str());
  const std::vector<std::string> got = split_lines(actual);
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (want[i] != got[i]) {
      FAIL() << file << ": first difference at line " << (i + 1) << "\n  expected: "
             << want[i] << "\n  actual:   " << got[i];
    }
  }
  ASSERT_EQ(want.size(), got.size())
      << file << ": line count differs; first extra line: "
      << (want.size() > got.size() ? want[got.size()] : got[want.size()]);
}

}  // namespace ppc::core::golden
