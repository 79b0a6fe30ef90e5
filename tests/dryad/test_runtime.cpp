#include "dryad/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"

namespace ppc::dryad {
namespace {

TEST(DryadRuntime, RunsAllVertices) {
  RuntimeConfig config;
  config.num_nodes = 2;
  config.slots_per_node = 2;
  DryadRuntime runtime(config);
  std::vector<Vertex> vertices;
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    vertices.push_back({"v" + std::to_string(i), i % 2, [&ran] { ran.fetch_add(1); }});
  }
  const auto report = runtime.run(vertices);
  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(report.attempts.size(), 10u);
}

TEST(DryadRuntime, VerticesRunOnTheirPinnedNode) {
  RuntimeConfig config;
  config.num_nodes = 3;
  DryadRuntime runtime(config);
  std::vector<Vertex> vertices;
  for (int i = 0; i < 9; ++i) vertices.push_back({"v", i % 3, [] {}});
  const auto report = runtime.run(vertices);
  EXPECT_TRUE(report.succeeded);
  for (const auto& attempt : report.attempts) {
    EXPECT_EQ(attempt.node, vertices[static_cast<std::size_t>(attempt.vertex_id)].node);
  }
}

TEST(DryadRuntime, RetriesFailedVertices) {
  RuntimeConfig config;
  config.num_nodes = 1;
  config.max_attempts = 3;
  DryadRuntime runtime(config);
  std::atomic<int> tries{0};
  const std::vector<Vertex> vertices = {{"flaky", 0, [&] {
                                           if (tries.fetch_add(1) < 2) {
                                             throw std::runtime_error("transient");
                                           }
                                         }}};
  const auto report = runtime.run(vertices);
  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(tries.load(), 3);
  EXPECT_EQ(report.attempts.size(), 3u);
}

TEST(DryadRuntime, RetryGoesToTheBackOfItsNodeQueue) {
  // One node, one slot: a failed vertex re-runs only after every vertex
  // queued behind it on its node.
  RuntimeConfig config;
  config.num_nodes = 1;
  config.slots_per_node = 1;
  DryadRuntime runtime(config);
  bool a_failed = false;
  const std::vector<Vertex> vertices = {{"a", 0, [&] {
                                           if (!a_failed) {
                                             a_failed = true;
                                             throw std::runtime_error("once");
                                           }
                                         }},
                                        {"b", 0, [] {}},
                                        {"c", 0, [] {}}};
  const auto report = runtime.run(vertices);
  EXPECT_TRUE(report.succeeded);
  std::vector<std::string> order;
  for (const auto& attempt : report.attempts) {
    order.push_back(vertices[static_cast<std::size_t>(attempt.vertex_id)].name);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "a"}));
  EXPECT_FALSE(report.attempts[0].succeeded);
  EXPECT_EQ(report.attempts[3].attempt, 1);
  EXPECT_TRUE(report.attempts[3].succeeded);
}

TEST(DryadRuntime, ExhaustedRetriesFailJob) {
  RuntimeConfig config;
  config.num_nodes = 1;
  config.max_attempts = 2;
  DryadRuntime runtime(config);
  const std::vector<Vertex> vertices = {
      {"bad", 0, [] { throw std::runtime_error("always"); }}};
  const auto report = runtime.run(vertices);
  EXPECT_FALSE(report.succeeded);
  ASSERT_EQ(report.attempts.size(), 2u);
  for (const auto& attempt : report.attempts) {
    EXPECT_FALSE(attempt.succeeded);
    EXPECT_EQ(attempt.error, "always");
  }
}

TEST(DryadRuntime, EmptyDagSucceeds) {
  // An empty vertex list runs nothing and succeeds.
  DryadRuntime runtime({});
  EXPECT_TRUE(runtime.run({}).succeeded);
}

TEST(DryadRuntime, RejectsVertexOutsideCluster) {
  // A vertex pinned outside the cluster, or with no function, is rejected
  // before anything runs.
  RuntimeConfig config;
  config.num_nodes = 2;
  DryadRuntime runtime(config);
  EXPECT_THROW(runtime.run({{"v", 5, [] {}}}), ppc::InvalidArgument);
  EXPECT_THROW(runtime.run({{"v", -1, [] {}}}), ppc::InvalidArgument);
  EXPECT_THROW(runtime.run({{"v", 0, nullptr}}), ppc::InvalidArgument);
}

TEST(DryadSelect, AppliesFunctionPerFileAndWritesOutputs) {
  // The paper's usage: select over statically partitioned data.
  RuntimeConfig config;
  config.num_nodes = 3;
  config.slots_per_node = 2;
  DryadRuntime runtime(config);
  FileShare share(3);

  std::vector<std::string> files;
  for (int i = 0; i < 9; ++i) files.push_back("in" + std::to_string(i));
  const auto table = PartitionedTable::round_robin(files, 3);
  table.distribute(share, [](const std::string& f) { return "<" + f + ">"; });

  const auto result = dryad_select(
      runtime, share, table,
      [](const std::string& name, const std::string& contents) {
        return name + "=" + contents;
      });
  EXPECT_TRUE(result.report.succeeded);
  EXPECT_EQ(result.outputs.size(), 9u);
  EXPECT_EQ(result.outputs.at("in4"), "in4=<in4>");
  // Output files land on the owning node's share.
  for (const auto& p : table.partitions()) {
    for (const auto& f : p.files) {
      EXPECT_TRUE(share.exists(p.node, f + ".out"));
    }
  }
  // All reads were local: that is the point of pre-distribution.
  EXPECT_EQ(share.stats().remote_reads, 0u);
  EXPECT_GE(share.stats().local_reads, 9u);
}

TEST(DryadSelect, FailsWhenPartitionFileMissing) {
  DryadRuntime runtime({});
  FileShare share(4);
  const auto table = PartitionedTable::round_robin({"ghost"}, 2);
  // never distributed -> vertex fails, retries exhaust, job fails
  const auto result = dryad_select(
      runtime, share, table,
      [](const std::string&, const std::string& c) { return c; });
  EXPECT_FALSE(result.report.succeeded);
}

}  // namespace
}  // namespace ppc::dryad
