#include "mapreduce/job.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "common/error.h"
#include "runtime/fault_injector.h"

namespace ppc::mapreduce {
namespace {

class LocalJobRunnerTest : public ::testing::Test {
 protected:
  minihdfs::MiniHdfs hdfs_{4};

  std::vector<std::string> write_inputs(int n) {
    std::vector<std::string> paths;
    for (int i = 0; i < n; ++i) {
      const std::string path = "/in/file" + std::to_string(i) + ".fa";
      hdfs_.write(path, "data-" + std::to_string(i));
      paths.push_back(path);
    }
    return paths;
  }
};

TEST_F(LocalJobRunnerTest, RunsMapOverEveryFile) {
  const auto paths = write_inputs(12);
  LocalJobRunner runner(hdfs_);
  JobConfig config;
  config.num_nodes = 4;
  config.slots_per_node = 2;
  const auto result = runner.run(
      paths,
      [](const FileRecord& rec, const std::string& contents) {
        return rec.name + ":" + contents;
      },
      config);
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(result.outputs.size(), 12u);
  // Outputs are committed to HDFS under the output dir.
  for (const auto& [name, out_path] : result.outputs) {
    const auto data = hdfs_.read(out_path);
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ(*data, name + ":data-" + name.substr(4, name.find('.') - 4));
  }
}

TEST_F(LocalJobRunnerTest, MapReceivesNameAndPathKeyValue) {
  // The paper's record contract: key = file name, value = HDFS path.
  const auto paths = write_inputs(1);
  LocalJobRunner runner(hdfs_);
  std::string seen_name, seen_path;
  std::mutex mu;
  const auto result = runner.run(
      paths,
      [&](const FileRecord& rec, const std::string&) {
        std::lock_guard lock(mu);
        seen_name = rec.name;
        seen_path = rec.path;
        return std::string("ok");
      },
      {});
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(seen_name, "file0.fa");
  EXPECT_EQ(seen_path, "/in/file0.fa");
}

TEST_F(LocalJobRunnerTest, RetriesFailedAttempts) {
  const auto paths = write_inputs(6);
  LocalJobRunner runner(hdfs_);
  runtime::FaultInjector faults;
  faults.arm_plan(runtime::FaultPlan{}.error(sites::kMapAttempt, "injected crash", /*budget=*/3));
  JobConfig config;
  config.faults = &faults;
  const auto result = runner.run(
      paths, [](const FileRecord&, const std::string&) { return std::string("out"); }, config);
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(result.outputs.size(), 6u);
  EXPECT_EQ(result.scheduler_stats.failed_attempts, 3);
}

TEST_F(LocalJobRunnerTest, PermanentFailureFailsJob) {
  const auto paths = write_inputs(2);
  LocalJobRunner runner(hdfs_);
  JobConfig config;
  config.scheduler.max_attempts = 2;
  const auto result = runner.run(
      paths,
      [](const FileRecord& rec, const std::string&) -> std::string {
        if (rec.name == "file1.fa") throw std::runtime_error("always fails");
        return "ok";
      },
      config);
  EXPECT_FALSE(result.succeeded);
  EXPECT_EQ(result.outputs.size(), 1u);
  EXPECT_TRUE(result.outputs.contains("file0.fa"));
}

TEST_F(LocalJobRunnerTest, EveryOutputCommittedExactlyOnce) {
  const auto paths = write_inputs(20);
  LocalJobRunner runner(hdfs_);
  std::atomic<int> executions{0};
  const auto result = runner.run(
      paths,
      [&](const FileRecord&, const std::string&) {
        executions.fetch_add(1);
        return std::string("out");
      },
      {});
  EXPECT_TRUE(result.succeeded);
  int committed = 0;
  for (const auto& attempt : result.attempts) {
    if (attempt.output_committed) ++committed;
  }
  EXPECT_EQ(committed, 20);
}

TEST_F(LocalJobRunnerTest, LocalityPreferredWhenSlotsMatchReplicas) {
  const auto paths = write_inputs(40);
  LocalJobRunner runner(hdfs_);
  JobConfig config;
  config.num_nodes = 4;
  config.slots_per_node = 1;
  const auto result = runner.run(
      paths, [](const FileRecord&, const std::string&) { return std::string("x"); }, config);
  EXPECT_TRUE(result.succeeded);
  // With replication 3 over 4 nodes, most assignments should be data-local.
  EXPECT_GT(result.scheduler_stats.local_assignments,
            result.scheduler_stats.remote_assignments);
}

TEST_F(LocalJobRunnerTest, RejectsBadConfig) {
  const auto paths = write_inputs(1);
  LocalJobRunner runner(hdfs_);
  JobConfig config;
  config.num_nodes = 9;  // larger than the HDFS cluster
  EXPECT_THROW(
      runner.run(paths, [](const FileRecord&, const std::string&) { return std::string(); },
                 config),
      ppc::InvalidArgument);
  EXPECT_THROW(runner.run({}, [](const FileRecord&, const std::string&) { return std::string(); },
                          {}),
               ppc::InvalidArgument);
}

}  // namespace
}  // namespace ppc::mapreduce
