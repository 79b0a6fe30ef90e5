// End-to-end ShuffleJobRunner tests: the full map → shuffle → reduce engine
// on live executor threads, including satellite 4 — a reducer that cannot
// fetch a map's output (mapper died after spilling but before registering,
// or its spills were lost after commit) redrives the map task instead of
// hanging or dropping groups.
#include "mapreduce/shuffle_job.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "minihdfs/mini_hdfs.h"
#include "runtime/fault_plan.h"
#include "runtime/tracer.h"

namespace ppc::mapreduce {
namespace {

void word_map(const FileRecord& /*record*/, const std::string& contents, const EmitFn& emit) {
  std::istringstream in(contents);
  std::string word;
  std::uint32_t seq = 0;
  while (in >> word) emit(word, "p" + std::to_string(seq++));
}

std::string count_reduce(const std::string& /*key*/, const std::vector<std::string>& values) {
  std::string out = "n=" + std::to_string(values.size());
  for (const auto& v : values) out += "," + v;
  return out;
}

std::vector<std::string> stage_inputs(minihdfs::MiniHdfs& hdfs, int num_files,
                                      std::uint64_t seed) {
  ppc::Rng rng(seed);
  std::vector<std::string> paths;
  for (int f = 0; f < num_files; ++f) {
    std::ostringstream text;
    const int words = static_cast<int>(rng.uniform_int(10, 40));
    for (int w = 0; w < words; ++w) text << "tok" << rng.uniform_int(0, 11) << " ";
    const std::string path = "/in/f" + std::to_string(f) + ".txt";
    hdfs.write(path, text.str());
    paths.push_back(path);
  }
  return paths;
}

ShuffleJobConfig small_cluster(const std::string& name) {
  ShuffleJobConfig config;
  config.num_nodes = 3;
  config.slots_per_node = 2;
  config.num_reducers = 3;
  config.map_spill_budget = 512.0;   // force multi-spill map outputs
  config.sort_memory_budget = 768.0; // force external-sort runs
  config.job_name = name;
  config.output_dir = "/out/" + name;
  return config;
}

TEST(ShuffleJob, EndToEndProducesCommittedPartsAndStats) {
  minihdfs::MiniHdfs hdfs(3);
  const auto paths = stage_inputs(hdfs, 5, 1);
  ShuffleJobRunner runner(hdfs);
  auto config = small_cluster("e2e");
  config.metrics = std::make_shared<runtime::MetricsRegistry>();
  const auto result = runner.run(paths, word_map, count_reduce, config);
  ASSERT_TRUE(result.succeeded);
  ASSERT_EQ(result.outputs.size(), 3u);
  for (const auto& [name, path] : result.outputs) {
    EXPECT_TRUE(hdfs.read(path).has_value()) << name;
  }
  const auto canonical = canonical_reduced_output(result, hdfs);
  EXPECT_FALSE(canonical.empty());
  // Shuffle accounting: spills happened (tiny budget), every reducer
  // fetched, and the sort spilled runs.
  EXPECT_GT(result.shuffle.map_spills, static_cast<int>(paths.size()));
  EXPECT_GT(result.shuffle.map_spill_bytes, 0.0);
  EXPECT_GT(result.shuffle.fetches, 0);
  EXPECT_GT(result.shuffle.fetched_bytes, 0.0);
  EXPECT_GT(result.shuffle.sort_runs_spilled, 0);
  EXPECT_EQ(result.shuffle.map_redrives, 0);
  EXPECT_EQ(result.map_stats.completed_tasks, static_cast<int>(paths.size()));
  EXPECT_EQ(result.reduce_stats.completed_tasks, 3);
  // The runner owns its spill store here, so shuffle traffic is metered.
  EXPECT_GT(result.shuffle.shuffle_storage_cost, 0.0);
  EXPECT_GT(config.metrics->counter_value("mapreduce.shuffle.spills"), 0);
  EXPECT_GT(config.metrics->counter_value("mapreduce.shuffle.fetches"), 0);
}

TEST(ShuffleJob, LostMapOutputAfterCommitIsRedriven) {
  // Satellite 4, post-commit flavor: the map registered, then its node (and
  // spills) vanished before any reducer fetched. Reducers must redrive.
  minihdfs::MiniHdfs hdfs(3);
  const auto paths = stage_inputs(hdfs, 4, 2);

  ShuffleJobRunner baseline_runner(hdfs);
  const auto baseline =
      baseline_runner.run(paths, word_map, count_reduce, small_cluster("lose-base"));
  ASSERT_TRUE(baseline.succeeded);
  const std::string want = encode_canonical(canonical_reduced_output(baseline, hdfs));

  auto config = small_cluster("lose");
  config.between_phases = [](ShuffleJobControl& control) {
    control.lose_map_output(1);
    EXPECT_FALSE(control.registry().lookup(1).has_value());
  };
  ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, word_map, count_reduce, config);
  ASSERT_TRUE(result.succeeded);
  EXPECT_GE(result.shuffle.map_redrives, 1);
  // Zero lost groups, byte-identical output.
  EXPECT_EQ(encode_canonical(canonical_reduced_output(result, hdfs)), want);
}

TEST(ShuffleJob, UnregisteredMapOutputIsRedrivenNotHung) {
  // Satellite 4, crashed-before-register flavor: spills are durable but the
  // partition map was never published — reducers see "not registered".
  minihdfs::MiniHdfs hdfs(3);
  const auto paths = stage_inputs(hdfs, 4, 3);

  ShuffleJobRunner baseline_runner(hdfs);
  const auto baseline =
      baseline_runner.run(paths, word_map, count_reduce, small_cluster("unreg-base"));
  ASSERT_TRUE(baseline.succeeded);
  const std::string want = encode_canonical(canonical_reduced_output(baseline, hdfs));

  auto config = small_cluster("unreg");
  config.between_phases = [](ShuffleJobControl& control) {
    control.unregister_map_output(0);
    control.unregister_map_output(2);
  };
  ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, word_map, count_reduce, config);
  ASSERT_TRUE(result.succeeded);
  EXPECT_GE(result.shuffle.map_redrives, 2);
  EXPECT_EQ(encode_canonical(canonical_reduced_output(result, hdfs)), want);
}

TEST(ShuffleJob, CrashInRegisterWindowRetriesViaScheduler) {
  // A map attempt that crashes between "spills durable" and "registered"
  // failed as far as the scheduler is concerned: the task re-queues and a
  // later attempt commits. Its orphan spills must not corrupt the output.
  minihdfs::MiniHdfs hdfs(3);
  const auto paths = stage_inputs(hdfs, 4, 4);

  ShuffleJobRunner baseline_runner(hdfs);
  const auto baseline =
      baseline_runner.run(paths, word_map, count_reduce, small_cluster("reg-base"));
  ASSERT_TRUE(baseline.succeeded);
  const std::string want = encode_canonical(canonical_reduced_output(baseline, hdfs));

  runtime::FaultInjector faults;
  runtime::FaultPlan plan;
  plan.seed = 5;
  plan.crash(sites::kMapRegister, /*budget=*/1).crash(sites::kMapAttempt, /*budget=*/1);
  faults.arm_plan(plan);

  auto config = small_cluster("reg");
  config.faults = &faults;
  ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, word_map, count_reduce, config);
  ASSERT_TRUE(result.succeeded);
  EXPECT_GE(faults.total_crashes(), 1);
  EXPECT_GE(result.map_stats.failed_attempts, 1);
  EXPECT_EQ(encode_canonical(canonical_reduced_output(result, hdfs)), want);
}

TEST(ShuffleJob, CorruptShuffleFetchesAreAbsorbed) {
  minihdfs::MiniHdfs hdfs(3);
  const auto paths = stage_inputs(hdfs, 4, 6);

  ShuffleJobRunner baseline_runner(hdfs);
  const auto baseline =
      baseline_runner.run(paths, word_map, count_reduce, small_cluster("corr-base"));
  ASSERT_TRUE(baseline.succeeded);
  const std::string want = encode_canonical(canonical_reduced_output(baseline, hdfs));

  runtime::FaultInjector faults;
  runtime::FaultPlan plan;
  plan.seed = 9;
  plan.corrupt("blobstore.shuffle.get", /*budget=*/3);
  faults.arm_plan(plan);

  auto config = small_cluster("corr");
  config.faults = &faults;
  ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, word_map, count_reduce, config);
  ASSERT_TRUE(result.succeeded);
  EXPECT_GE(faults.total_corruptions(), 1);
  EXPECT_GE(result.shuffle.corrupt_fetches, 1);
  EXPECT_EQ(encode_canonical(canonical_reduced_output(result, hdfs)), want);
}

TEST(ShuffleJob, ExhaustedRedriveBudgetFailsTheJobInsteadOfHanging) {
  minihdfs::MiniHdfs hdfs(2);
  const auto paths = stage_inputs(hdfs, 3, 7);
  auto config = small_cluster("exhaust");
  config.num_nodes = 2;
  config.max_map_redrives = 0;
  config.reduce_scheduler.max_attempts = 2;
  // Deleting the spills AND forbidding redrives makes partition data truly
  // unrecoverable; the job must fail cleanly within the attempt budget.
  config.between_phases = [](ShuffleJobControl& control) { control.lose_map_output(0); };
  ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, word_map, count_reduce, config);
  EXPECT_FALSE(result.succeeded);
  EXPECT_EQ(result.shuffle.map_redrives, 0);
  EXPECT_GE(result.reduce_stats.failed_attempts, 1);
}

TEST(ShuffleJob, TracerCapturesShuffleSpans) {
  minihdfs::MiniHdfs hdfs(2);
  const auto paths = stage_inputs(hdfs, 3, 8);
  runtime::Tracer tracer;
  tracer.enable();
  auto config = small_cluster("trace");
  config.num_nodes = 2;
  config.tracer = &tracer;
  ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, word_map, count_reduce, config);
  ASSERT_TRUE(result.succeeded);
  const auto spans = tracer.snapshot();
  auto count = [&](const std::string& name) {
    return std::count_if(spans.begin(), spans.end(),
                         [&](const auto& s) { return s.name == name; });
  };
  EXPECT_GT(count("shuffle.spill"), 0);
  EXPECT_GT(count("shuffle.fetch"), 0);
  EXPECT_GT(count("shuffle.merge"), 0);
  EXPECT_GT(count("shuffle.reduce"), 0);
}

TEST(ShuffleJob, SingleNodeSingleReducerDegeneratesToSortedWordCount) {
  minihdfs::MiniHdfs hdfs(1);
  hdfs.write("/in/a.txt", "b a c a");
  hdfs.write("/in/b.txt", "a d");
  ShuffleJobConfig config;
  config.num_nodes = 1;
  config.slots_per_node = 1;
  config.num_reducers = 1;
  config.job_name = "tiny";
  config.output_dir = "/out/tiny";
  ShuffleJobRunner runner(hdfs);
  const auto result = runner.run({"/in/a.txt", "/in/b.txt"}, word_map, count_reduce, config);
  ASSERT_TRUE(result.succeeded);
  const auto canonical = canonical_reduced_output(result, hdfs);
  ASSERT_EQ(canonical.size(), 4u);
  // "a" appears at positions 1,3 of file 0 (map 0) and 0 of file 1 (map 1);
  // merge order is (map_id, seq), so the reduction is fully pinned.
  EXPECT_EQ(canonical.at("a"), "n=3,p1,p3,p0");
  EXPECT_EQ(canonical.at("b"), "n=1,p0");
  EXPECT_EQ(canonical.at("c"), "n=1,p2");
  EXPECT_EQ(canonical.at("d"), "n=1,p1");
}

TEST(ShuffleJob, MapSpansCarryTheInputFileTraceId) {
  // Every map attempt's fetch.input / compute spans carry the input file
  // name as their trace id, so task_summaries() rolls them up per file —
  // scheduled attempts and the reducer-side redrive of a lost map alike.
  minihdfs::MiniHdfs hdfs(2);
  const auto paths = stage_inputs(hdfs, 4, 9);
  runtime::Tracer tracer;
  tracer.enable();
  auto config = small_cluster("trace-id");
  config.num_nodes = 2;
  config.tracer = &tracer;
  config.between_phases = [](ShuffleJobControl& control) { control.unregister_map_output(1); };
  ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, word_map, count_reduce, config);
  ASSERT_TRUE(result.succeeded);
  ASSERT_GE(result.shuffle.map_redrives, 1);

  std::vector<std::string> files;
  for (const auto& path : paths) files.push_back(FilePathInputFormat::base_name(path));
  const auto summaries = tracer.task_summaries();
  for (const auto& file : files) {
    const auto row = std::find_if(summaries.begin(), summaries.end(),
                                  [&](const auto& s) { return s.task == file; });
    ASSERT_NE(row, summaries.end()) << file;
    EXPECT_GT(row->fetch, 0.0) << file;
    EXPECT_GT(row->compute, 0.0) << file;
  }

  const auto spans = tracer.snapshot();
  int redrive_fetches = 0;
  for (const auto& s : spans) {
    if (s.name == "fetch.input" || s.name == "compute") {
      EXPECT_TRUE(std::find(files.begin(), files.end(), s.task) != files.end())
          << s.name << " span on " << s.track << " has trace id '" << s.task << "'";
    }
    if (s.name != "map.redrive") continue;
    EXPECT_EQ(s.task, files[1]);
    for (const auto& inner : spans) {
      if (inner.name == "fetch.input" && inner.track == s.track && inner.start >= s.start &&
          inner.end <= s.end) {
        EXPECT_EQ(inner.task, files[1]);
        ++redrive_fetches;
      }
    }
  }
  EXPECT_GE(redrive_fetches, 1);
}

}  // namespace
}  // namespace ppc::mapreduce
