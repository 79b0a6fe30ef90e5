// Fault-tolerance coverage for the dryad engine, matching what classiccloud
// and azuremr already have: injected transient failures absorbed by the
// retry budget, a poison vertex that exhausts retries and fails the job
// without taking siblings down, engine metrics, and the trace a faulty run
// leaves behind.
#include "dryad/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"
#include "runtime/metrics.h"
#include "runtime/tracer.h"

namespace ppc::dryad {
namespace {

TEST(DryadFaultTolerance, TransientInjectedErrorsAreRetried) {
  runtime::FaultInjector faults;
  runtime::FaultPlan plan;
  plan.error(sites::kVertexAttempt, "transient vertex fault", /*budget=*/2);
  faults.arm_plan(plan);

  RuntimeConfig config;
  config.num_nodes = 2;
  config.max_attempts = 4;
  config.faults = &faults;
  DryadRuntime runtime(config);

  std::vector<Vertex> vertices;
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    vertices.push_back({"v" + std::to_string(i), i % 2, [&ran] { ran.fetch_add(1); }});
  }
  const auto report = runtime.run(vertices);
  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(faults.errors_injected(sites::kVertexAttempt), 2);
  // The two injected failures each cost one extra attempt.
  EXPECT_EQ(report.attempts.size(), 6u);
  int failed = 0;
  for (const auto& attempt : report.attempts) {
    if (!attempt.succeeded) ++failed;
  }
  EXPECT_EQ(failed, 2);
}

TEST(DryadFaultTolerance, PoisonVertexExhaustsRetries) {
  RuntimeConfig config;
  config.num_nodes = 2;
  config.max_attempts = 3;
  config.metrics = std::make_shared<runtime::MetricsRegistry>();
  DryadRuntime runtime(config);

  std::atomic<bool> sibling_ran{false};
  // Every attempt of the poison vertex fails; other vertices are untouched.
  const int poison = 0;
  const std::vector<Vertex> vertices = {
      {"poison", 0, [] { throw std::runtime_error("poisoned input"); }},
      {"sibling", 1, [&] { sibling_ran.store(true); }}};

  const auto report = runtime.run(vertices);
  EXPECT_FALSE(report.succeeded);
  // The sibling runs on its own node and completes even though the poison
  // vertex sinks the job.
  EXPECT_TRUE(sibling_ran.load());
  int poison_attempts = 0;
  for (const auto& attempt : report.attempts) {
    if (attempt.vertex_id == poison) {
      ++poison_attempts;
      EXPECT_FALSE(attempt.succeeded);
      EXPECT_FALSE(attempt.error.empty());
    }
  }
  EXPECT_EQ(poison_attempts, config.max_attempts);

  EXPECT_EQ(config.metrics->counter_value("dryad.failed_attempts"),
            config.max_attempts);
  EXPECT_EQ(config.metrics->counter_value("dryad.vertices_completed"), 1);
  EXPECT_EQ(config.metrics->counter_value("dryad.vertex_attempts"),
            static_cast<std::int64_t>(report.attempts.size()));
}

TEST(DryadFaultTolerance, FaultyRunLeavesFailedAndCompletedSpans) {
  runtime::FaultInjector faults;
  faults.arm_plan(runtime::FaultPlan{}.error(sites::kVertexAttempt, "flaky vertex"));
  runtime::Tracer tracer;
  tracer.enable();

  RuntimeConfig config;
  config.num_nodes = 1;
  config.max_attempts = 3;
  config.faults = &faults;
  config.tracer = &tracer;
  DryadRuntime runtime(config);

  const auto report = runtime.run({{"only", 0, [] {}}});
  tracer.disable();
  ASSERT_TRUE(report.succeeded);
  ASSERT_EQ(report.attempts.size(), 2u);

  // One failed task envelope, one completed, both on the same slot track
  // with the vertex name as the trace id — and nothing left open.
  EXPECT_EQ(tracer.open_spans(), 0u);
  int failed_tasks = 0;
  int completed_tasks = 0;
  for (const auto& span : tracer.snapshot()) {
    if (span.name != "task") continue;
    EXPECT_EQ(span.track, "dryad.n0.s0");
    EXPECT_EQ(span.task, "only");
    for (const auto& [k, v] : span.args) {
      if (k == "outcome" && v == "failed") ++failed_tasks;
      if (k == "outcome" && v == "completed") ++completed_tasks;
    }
  }
  EXPECT_EQ(failed_tasks, 1);
  EXPECT_EQ(completed_tasks, 1);

  const auto summaries = tracer.task_summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].attempts, 2);
  EXPECT_TRUE(summaries[0].completed);
}

}  // namespace
}  // namespace ppc::dryad
