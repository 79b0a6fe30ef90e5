// Poison-message handling through the substrates (§2.1.3's missing piece):
// a message whose handler *always* throws must be routed to the dead-letter
// queue after exactly max_receive_count deliveries — no livelock — while
// sibling tasks sharing the queue complete untouched. Covered on both
// queue-driven substrates: classiccloud and azuremr.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "azuremr/runtime.h"
#include "blobstore/blob_store.h"
#include "classiccloud/job_client.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "runtime/metrics.h"

namespace ppc {
namespace {

constexpr int kMaxReceive = 3;

bool wait_until(const std::function<bool()>& pred, double timeout_s = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(PoisonTasks, ClassicCloudDeadLettersUndecodableTaskAfterMaxReceives) {
  auto clock = std::make_shared<SystemClock>();
  blobstore::BlobStore store(clock);
  cloudq::QueueService queues(clock);
  // Wire the redrive policy before the client attaches to the queue.
  auto task_queue = queues.create_queue_with_dlq("pj-tasks", kMaxReceive);

  classiccloud::JobClient client(store, queues, "pj");
  client.submit({{"f0", "d0"}, {"f1", "d1"}, {"f2", "d2"}});
  // The poison: an undecodable body. Every delivery makes decode_task throw.
  const std::string garbage = "** not a task **";
  task_queue->send(garbage);

  auto metrics = std::make_shared<runtime::MetricsRegistry>();
  classiccloud::WorkerConfig config;
  config.bucket = "job";  // JobClient's default bucket
  config.poll_interval = 0.001;
  config.visibility_timeout = 0.5;
  config.abandon_visibility = 0.02;  // prompt redelivery of failed attempts
  config.metrics = metrics;
  classiccloud::WorkerPool pool(store, client.task_queue(), client.monitor_queue(),
                                [](const classiccloud::TaskSpec& task, const std::string& in) {
                                  return task.task_id + "|" + in;
                                },
                                config, /*count=*/2, "w");
  pool.start_all();
  ASSERT_TRUE(client.wait_for_completion(30.0)) << "siblings must complete";
  // Keep the pool polling until the poison burns through its redrive budget.
  ASSERT_TRUE(wait_until([&] { return task_queue->dlq_depth() >= 1; }))
      << "poison never reached the dead-letter queue (livelock)";
  pool.stop_all();
  pool.join_all();

  // Dead-lettered exactly once, after exactly kMaxReceive deliveries: only
  // the poison throws, so every executions_failed is one poison delivery.
  EXPECT_EQ(task_queue->dlq_depth(), 1u);
  EXPECT_EQ(metrics->sum_counters(".executions_failed"), kMaxReceive);
  EXPECT_EQ(metrics->sum_counters(".poison_tasks"), 1);
  // The parked body is the original garbage, available for inspection.
  const auto parked = task_queue->dead_letter_queue()->receive(5.0);
  ASSERT_TRUE(parked.has_value());
  EXPECT_EQ(parked->body(), garbage);
  // Siblings were untouched: every output present and correct, and the main
  // queue fully drained (no livelock, nothing lost).
  EXPECT_EQ(task_queue->undeleted(), 0u);
  for (const classiccloud::TaskSpec& task : client.tasks()) {
    const auto out = client.fetch_output(task);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(*out, task.task_id + "|d" + std::string(1, task.input_key.back()));
  }
}

TEST(PoisonTasks, AzureMrDeadLettersPoisonTaskWhileJobCompletes) {
  auto clock = std::make_shared<SystemClock>();
  blobstore::BlobStore store(clock);
  cloudq::QueueService queues(clock);
  // The task queue exists before the run so the poison is already waiting
  // when the worker roles come up; run() attaches the DLQ to it.
  auto task_queue = queues.create_queue("pz-mr-tasks");
  task_queue->send(encode_kv({{"op", "poison"}, {"input", "none"}}));

  azuremr::MrWorkerConfig config;
  config.poll_interval = 0.002;
  config.abandon_visibility = 0.01;  // failed deliveries retry promptly
  config.task_max_receive_count = kMaxReceive;

  azuremr::JobSpec spec;
  spec.job_id = "pz";
  spec.inputs = {{"a", "alpha"}, {"b", "beta"}};
  spec.num_reduce_tasks = 1;
  // Slow maps keep the stage open long enough that the idle third worker
  // burns the poison through its redrive budget before the job finishes.
  spec.map = [](const std::string& name, const std::string& data, const std::string&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return std::vector<azuremr::KeyValue>{{name, data}};
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return values.front();
  };

  azuremr::AzureMapReduce runtime(store, queues, /*num_workers=*/3, config);
  const azuremr::JobResult result = runtime.run(spec);

  // Siblings unaffected: the job completed correctly around the poison.
  ASSERT_TRUE(result.succeeded);
  EXPECT_EQ(result.outputs.at("a"), "alpha");
  EXPECT_EQ(result.outputs.at("b"), "beta");
  // The poison was parked after exactly kMaxReceive throwing deliveries
  // (map/reduce never throw, so executions_failed counts poison only).
  EXPECT_EQ(task_queue->dlq_depth(), 1u);
  EXPECT_EQ(runtime.metrics().sum_counters(".executions_failed"), kMaxReceive);
  EXPECT_EQ(runtime.metrics().sum_counters(".poison_tasks"), 1);
  EXPECT_EQ(task_queue->undeleted(), 0u);
}

}  // namespace
}  // namespace ppc
