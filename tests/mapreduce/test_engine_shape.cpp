// Engine-shape oracle for the two real-thread MapReduce runners: a map-only
// LocalJobRunner job and a ShuffleJobRunner job, each under the same seeded
// FaultPlan that crashes one map attempt, one map commit (between durable
// spills and registration) and one reduce attempt. Speculation is off, so
// every count below is exact regardless of thread interleaving: attempt
// records and their outcomes, TaskScheduler::Stats, every engine counter,
// histogram, gauge and job event of the "mapreduce." namespace, and which
// fault sites each job shape fires. A map-only job never reaches the
// register or reduce sites and never touches the shuffle store.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "mapreduce/job.h"
#include "mapreduce/shuffle_job.h"
#include "minihdfs/mini_hdfs.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"
#include "runtime/metrics.h"

namespace ppc::mapreduce {
namespace {

constexpr int kNodes = 3;  // == HDFS replication: every input is local everywhere
constexpr int kFiles = 6;
constexpr int kReducers = 3;

const std::vector<std::string> kBlobSites = {"blobstore.shuffle.put", "blobstore.shuffle.get",
                                             "blobstore.shuffle.list"};

std::vector<std::string> stage(minihdfs::MiniHdfs& hdfs) {
  std::vector<std::string> paths;
  for (int f = 0; f < kFiles; ++f) {
    std::string text;
    for (int w = 0; w <= f; ++w) text += "w" + std::to_string((f * 7 + w) % 5) + " ";
    paths.push_back("/in/f" + std::to_string(f) + ".txt");
    hdfs.write(paths.back(), text);
  }
  return paths;
}

runtime::FaultPlan crash_each_site_once() {
  runtime::FaultPlan plan;
  plan.seed = 16;
  plan.crash(sites::kMapAttempt, /*budget=*/1)
      .crash(sites::kMapRegister, /*budget=*/1)
      .crash(sites::kReduceAttempt, /*budget=*/1);
  return plan;
}

SchedulerConfig no_speculation() {
  SchedulerConfig s;
  s.speculative_execution = false;
  return s;
}

/// Everything the registry holds under "mapreduce." except the shuffle
/// data-plane counters (their values depend on which map attempt crashed).
struct EngineMetrics {
  std::map<std::string, std::int64_t> counters;
  std::set<std::string> shuffle_counter_names;
  std::map<std::string, std::size_t> histograms;  // name -> sample count
  std::set<std::string> gauges;
  std::vector<runtime::MetricEvent> events;
};

EngineMetrics collect(runtime::MetricsRegistry& m, std::vector<runtime::MetricEvent> events) {
  EngineMetrics out;
  const auto engine = [](const std::string& name) { return name.rfind("mapreduce.", 0) == 0; };
  for (const auto& [name, value] : m.counters()) {
    if (name.rfind("mapreduce.shuffle.", 0) == 0) {
      out.shuffle_counter_names.insert(name);
    } else if (engine(name)) {
      out.counters[name] = value;
    }
  }
  for (const auto& name : m.histogram_names()) {
    if (engine(name)) out.histograms[name] = m.histogram(name).count();
  }
  for (const auto& [name, _] : m.gauges()) {
    if (engine(name)) out.gauges.insert(name);
  }
  out.events = std::move(events);
  return out;
}

/// Collects the registry's events (emitted from executor threads).
struct EventLog {
  std::mutex mu;
  std::vector<runtime::MetricEvent> events;
  void attach(runtime::MetricsRegistry& m) {
    m.set_event_sink([this](const runtime::MetricEvent& e) {
      std::lock_guard lock(mu);
      events.push_back(e);
    });
  }
};

void expect_stats(const TaskScheduler::Stats& s, int local, int remote, int failed,
                  int completed) {
  EXPECT_EQ(s.local_assignments, local);
  EXPECT_EQ(s.remote_assignments, remote);
  EXPECT_EQ(s.speculative_assignments, 0);
  EXPECT_EQ(s.failed_attempts, failed);
  EXPECT_EQ(s.wasted_attempts, 0);
  EXPECT_EQ(s.completed_tasks, completed);
}

/// Attempt records: every task committed exactly once, and the failed
/// attempts' errors, sorted.
std::vector<std::string> expect_records(const std::vector<AttemptRecord>& records,
                                        int num_tasks, int nodes) {
  std::map<int, int> committed;
  std::vector<std::string> errors;
  for (const auto& r : records) {
    EXPECT_LE(r.start, r.end);
    EXPECT_GE(r.assignment.node, 0);
    EXPECT_LT(r.assignment.node, nodes);
    EXPECT_FALSE(r.assignment.speculative);
    EXPECT_EQ(r.succeeded, r.error.empty());
    EXPECT_EQ(r.succeeded, r.output_committed);  // no speculative twins
    if (r.output_committed) ++committed[r.assignment.task_id];
    if (!r.succeeded) errors.push_back(r.error);
  }
  EXPECT_EQ(static_cast<int>(committed.size()), num_tasks);
  for (const auto& [task, n] : committed) EXPECT_EQ(n, 1) << "task " << task;
  std::sort(errors.begin(), errors.end());
  return errors;
}

TEST(LocalJobRunnerEngineShape, MapOnlyJobUnderTheThreeSiteCrashPlan) {
  minihdfs::MiniHdfs hdfs(kNodes);
  const auto paths = stage(hdfs);
  runtime::FaultInjector faults;
  faults.arm_plan(crash_each_site_once());
  auto metrics = std::make_shared<runtime::MetricsRegistry>();
  EventLog log;
  log.attach(*metrics);

  JobConfig config;
  config.num_nodes = kNodes;
  config.slots_per_node = 2;
  config.scheduler = no_speculation();
  config.faults = &faults;
  config.metrics = metrics;
  LocalJobRunner runner(hdfs);
  const auto result = runner.run(
      paths, [](const FileRecord& rec, const std::string& in) { return rec.name + "|" + in; },
      config);

  ASSERT_TRUE(result.succeeded);
  ASSERT_EQ(result.outputs.size(), static_cast<std::size_t>(kFiles));
  for (const auto& [name, path] : result.outputs) {
    EXPECT_EQ(path, "/out/" + name);
    const auto data = hdfs.read(path);
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ(data->rfind(name + "|", 0), 0u);
  }
  ASSERT_EQ(result.attempts.size(), static_cast<std::size_t>(kFiles + 1));
  EXPECT_EQ(expect_records(result.attempts, kFiles, kNodes),
            std::vector<std::string>{"injected crash at mapreduce.map_attempt"});
  expect_stats(result.scheduler_stats, kFiles + 1, 0, 1, kFiles);

  // Fault sites: only the map attempt site exists for a map-only job.
  EXPECT_EQ(faults.hits(sites::kMapAttempt), kFiles + 1);
  EXPECT_EQ(faults.crashes(sites::kMapAttempt), 1);
  EXPECT_EQ(faults.hits(sites::kMapRegister), 0);
  EXPECT_EQ(faults.hits(sites::kReduceAttempt), 0);
  for (const auto& site : kBlobSites) EXPECT_EQ(faults.hits(site), 0) << site;
  EXPECT_EQ(faults.total_crashes(), 1);

  const EngineMetrics m = collect(*metrics, log.events);
  const std::map<std::string, std::int64_t> want_counters = {
      {"mapreduce.attempts", kFiles + 1},
      {"mapreduce.tasks_completed", kFiles},
      {"mapreduce.failed_attempts", 1},
  };
  EXPECT_EQ(m.counters, want_counters);
  for (const char* absent : {"mapreduce.wasted_attempts", "mapreduce.reduce_attempts",
                             "mapreduce.reduces_completed", "mapreduce.map_redrives"}) {
    EXPECT_EQ(metrics->counter_value(absent), 0) << absent;
  }
  EXPECT_TRUE(m.shuffle_counter_names.empty());  // no shuffle store, no spills
  const std::map<std::string, std::size_t> want_histograms = {
      {"mapreduce.attempt_seconds", kFiles}};
  EXPECT_EQ(m.histograms, want_histograms);
  EXPECT_EQ(m.gauges, std::set<std::string>{"mapreduce.elapsed_seconds"});
  ASSERT_EQ(m.events.size(), 1u);
  EXPECT_EQ(m.events[0].name, "mapreduce.job_finished");
  const std::vector<std::pair<std::string, std::string>> want_fields = {
      {"succeeded", "true"}, {"tasks", std::to_string(kFiles)}};
  EXPECT_EQ(m.events[0].fields, want_fields);
}

void word_map(const FileRecord&, const std::string& contents, const EmitFn& emit) {
  std::string word;
  int seq = 0;
  for (const char c : contents + " ") {
    if (c != ' ') {
      word += c;
    } else if (!word.empty()) {
      emit(word, std::to_string(seq++));
      word.clear();
    }
  }
}

std::string join_reduce(const std::string&, const std::vector<std::string>& values) {
  std::string out;
  for (const auto& v : values) out += v + ",";
  return out;
}

ShuffleJobConfig shuffle_config(const std::string& name) {
  ShuffleJobConfig config;
  config.num_nodes = kNodes;
  config.slots_per_node = 2;
  config.num_reducers = kReducers;
  config.map_spill_budget = 16.0;
  config.sort_memory_budget = 32.0;
  config.job_name = name;
  config.output_dir = "/out/" + name;
  config.scheduler = no_speculation();
  config.reduce_scheduler = no_speculation();
  return config;
}

TEST(ShuffleJobEngineShape, ShuffleJobUnderTheThreeSiteCrashPlan) {
  minihdfs::MiniHdfs hdfs(kNodes);
  const auto paths = stage(hdfs);
  ShuffleJobRunner baseline_runner(hdfs);
  const auto baseline =
      baseline_runner.run(paths, word_map, join_reduce, shuffle_config("shape-base"));
  ASSERT_TRUE(baseline.succeeded);
  const std::string want = encode_canonical(canonical_reduced_output(baseline, hdfs));

  runtime::FaultInjector faults;
  faults.arm_plan(crash_each_site_once());
  auto metrics = std::make_shared<runtime::MetricsRegistry>();
  EventLog log;
  log.attach(*metrics);
  auto config = shuffle_config("shape");
  config.faults = &faults;
  config.metrics = metrics;
  ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, word_map, join_reduce, config);

  ASSERT_TRUE(result.succeeded);
  EXPECT_EQ(encode_canonical(canonical_reduced_output(result, hdfs)), want);
  ASSERT_EQ(result.outputs.size(), static_cast<std::size_t>(kReducers));
  for (int r = 0; r < kReducers; ++r) {
    const std::string part = "part-0000" + std::to_string(r);
    EXPECT_EQ(result.outputs.at(part), "/out/shape/" + part);
  }
  ASSERT_EQ(result.map_attempts.size(), static_cast<std::size_t>(kFiles + 2));
  const std::vector<std::string> want_map_errors = {"injected crash at mapreduce.map_attempt",
                                                    "injected crash at mapreduce.map_register"};
  EXPECT_EQ(expect_records(result.map_attempts, kFiles, kNodes), want_map_errors);
  ASSERT_EQ(result.reduce_attempts.size(), static_cast<std::size_t>(kReducers + 1));
  EXPECT_EQ(expect_records(result.reduce_attempts, kReducers, kNodes),
            std::vector<std::string>{"injected crash at mapreduce.reduce_attempt"});
  expect_stats(result.map_stats, kFiles + 2, 0, 2, kFiles);
  expect_stats(result.reduce_stats, 0, kReducers + 1, 1, kReducers);
  EXPECT_EQ(result.shuffle.map_redrives, 0);

  // Fault sites: the register window is reached by every attempt that got
  // past the attempt site; the reduce site by every reduce attempt.
  EXPECT_EQ(faults.hits(sites::kMapAttempt), kFiles + 2);
  EXPECT_EQ(faults.hits(sites::kMapRegister), kFiles + 1);
  EXPECT_EQ(faults.hits(sites::kReduceAttempt), kReducers + 1);
  EXPECT_EQ(faults.crashes(sites::kMapAttempt), 1);
  EXPECT_EQ(faults.crashes(sites::kMapRegister), 1);
  EXPECT_EQ(faults.crashes(sites::kReduceAttempt), 1);
  EXPECT_EQ(faults.total_crashes(), 3);
  EXPECT_GT(faults.hits("blobstore.shuffle.put"), 0);  // the owned spill store
  EXPECT_GT(faults.hits("blobstore.shuffle.get"), 0);

  const EngineMetrics m = collect(*metrics, log.events);
  const std::map<std::string, std::int64_t> want_counters = {
      {"mapreduce.attempts", kFiles + 2},
      {"mapreduce.tasks_completed", kFiles},
      {"mapreduce.failed_attempts", 3},  // map and reduce failures share it
      {"mapreduce.reduce_attempts", kReducers + 1},
      {"mapreduce.reduces_completed", kReducers},
  };
  EXPECT_EQ(m.counters, want_counters);
  EXPECT_EQ(metrics->counter_value("mapreduce.wasted_attempts"), 0);
  EXPECT_FALSE(m.shuffle_counter_names.empty());
  const std::map<std::string, std::size_t> want_histograms = {
      {"mapreduce.attempt_seconds", kFiles},
      {"mapreduce.reduce_attempt_seconds", kReducers}};
  EXPECT_EQ(m.histograms, want_histograms);
  const std::set<std::string> want_gauges = {"mapreduce.elapsed_seconds",
                                             "mapreduce.shuffle.bytes"};
  EXPECT_EQ(m.gauges, want_gauges);
  ASSERT_EQ(m.events.size(), 1u);
  EXPECT_EQ(m.events[0].name, "mapreduce.job_finished");
  const std::vector<std::pair<std::string, std::string>> want_fields = {
      {"succeeded", "true"},
      {"maps", std::to_string(kFiles)},
      {"reduces", std::to_string(kReducers)}};
  EXPECT_EQ(m.events[0].fields, want_fields);
}

}  // namespace
}  // namespace ppc::mapreduce
