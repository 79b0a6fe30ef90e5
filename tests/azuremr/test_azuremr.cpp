// End-to-end tests of the TwisterAzure-style MapReduce framework (the
// paper's §8 future work): word count, key-space partitioning across
// reducers, and failure recovery through the queue's visibility timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "azuremr/runtime.h"
#include "blobstore/blob_store.h"
#include "common/clock.h"
#include "common/error.h"

namespace ppc::azuremr {
namespace {

class AzureMrTest : public ::testing::Test {
 protected:
  std::shared_ptr<SystemClock> clock_ = std::make_shared<SystemClock>();
  blobstore::BlobStore store_{clock_};
  cloudq::QueueService queues_{clock_};
};

TEST_F(AzureMrTest, WordCountSinglePass) {
  JobSpec spec;
  spec.job_id = "wc";
  spec.inputs = {{"doc0", "the quick brown fox"},
                 {"doc1", "the lazy dog and the quick cat"},
                 {"doc2", "dog eat dog"}};
  spec.num_reduce_tasks = 3;
  spec.map = [](const std::string&, const std::string& data, const std::string&) {
    std::vector<KeyValue> out;
    std::istringstream is(data);
    std::string word;
    while (is >> word) out.push_back({word, "1"});
    return out;
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return std::to_string(values.size());
  };

  AzureMapReduce runtime(store_, queues_, /*num_workers=*/3);
  const JobResult result = runtime.run(spec);
  ASSERT_TRUE(result.succeeded);
  EXPECT_EQ(result.outputs.at("the"), "3");
  EXPECT_EQ(result.outputs.at("dog"), "3");
  EXPECT_EQ(result.outputs.at("quick"), "2");
  EXPECT_EQ(result.outputs.at("cat"), "1");
  EXPECT_EQ(result.outputs.size(), 9u);  // distinct words
}

TEST_F(AzureMrTest, MapFailureIsRetriedViaVisibilityTimeout) {
  std::atomic<int> attempts{0};
  JobSpec spec;
  spec.job_id = "flaky";
  spec.inputs = {{"only", "payload"}};
  spec.num_reduce_tasks = 1;
  spec.map = [&attempts](const std::string&, const std::string& data, const std::string&) {
    if (attempts.fetch_add(1) == 0) throw std::runtime_error("transient map failure");
    return std::vector<KeyValue>{{"k", data}};
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return values.front();
  };
  MrWorkerConfig config;
  config.visibility_timeout = 0.15;  // fast redelivery
  AzureMapReduce runtime(store_, queues_, /*num_workers=*/2, config);
  const JobResult result = runtime.run(spec);
  ASSERT_TRUE(result.succeeded);
  EXPECT_GE(attempts.load(), 2);
  EXPECT_EQ(result.outputs.at("k"), "payload");
}

TEST_F(AzureMrTest, WorkerCrashBeforeDeleteIsRecovered) {
  // A worker dies after computing a map task but before deleting the
  // message; the task resurfaces and a surviving worker redoes it. The job
  // must still produce correct output.
  runtime::FaultInjector faults;
  faults.arm_plan(runtime::FaultPlan{}.crash(sites::kAfterMap));
  MrWorkerConfig config;
  config.visibility_timeout = 0.2;
  config.faults = &faults;

  JobSpec spec;
  spec.job_id = "crashy";
  spec.inputs = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  spec.num_reduce_tasks = 1;
  spec.map = [](const std::string& name, const std::string& data, const std::string&) {
    return std::vector<KeyValue>{{name, data}};
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return values.front();
  };

  AzureMapReduce runtime(store_, queues_, /*num_workers=*/3, config);
  const JobResult result = runtime.run(spec);
  ASSERT_TRUE(result.succeeded);
  EXPECT_EQ(faults.crashes(sites::kAfterMap), 1);
  EXPECT_EQ(result.outputs.at("a"), "1");
  EXPECT_EQ(result.outputs.at("b"), "2");
  EXPECT_EQ(result.outputs.at("c"), "3");
}

TEST_F(AzureMrTest, MultipleReducersPartitionTheKeySpace) {
  JobSpec spec;
  spec.job_id = "parts";
  spec.inputs = {{"in0", ""}, {"in1", ""}};
  spec.num_reduce_tasks = 4;
  spec.map = [](const std::string& name, const std::string&, const std::string&) {
    std::vector<KeyValue> out;
    for (int i = 0; i < 20; ++i) {
      out.push_back({"key-" + std::to_string(i), name});
    }
    return out;
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return std::to_string(values.size());
  };
  AzureMapReduce runtime(store_, queues_, 3);
  const JobResult result = runtime.run(spec);
  ASSERT_TRUE(result.succeeded);
  EXPECT_EQ(result.outputs.size(), 20u);
  for (const auto& [key, count] : result.outputs) {
    EXPECT_EQ(count, "2") << key << " must see both mappers' values";
  }
}

TEST_F(AzureMrTest, SurvivesHostileCloudServices) {
  // Everything the substrates can throw at once: queue visibility lag,
  // duplicate deliveries, receive misses, and blob read-after-write lag.
  // The job must still reduce every mapper's records exactly once.
  cloudq::QueueConfig hostile_queue;
  hostile_queue.visibility_lag_mean = 0.005;
  hostile_queue.duplicate_delivery_prob = 0.10;
  hostile_queue.receive_miss_prob = 0.20;
  cloudq::QueueService hostile_queues(clock_, hostile_queue);
  blobstore::BlobStoreConfig hostile_blob;
  hostile_blob.read_after_write_lag_mean = 0.003;
  blobstore::BlobStore hostile_store(clock_, hostile_blob);

  JobSpec spec;
  spec.job_id = "hostile";
  spec.inputs = {{"a", "2"}, {"b", "3"}, {"c", "5"}, {"d", "7"}};
  spec.num_reduce_tasks = 2;
  spec.map = [](const std::string& name, const std::string& data, const std::string&) {
    return std::vector<KeyValue>{{"sum", data}, {"count", name}};
  };
  spec.reduce = [](const std::string& key, const std::vector<std::string>& values) {
    if (key == "count") return std::to_string(values.size());
    long total = 0;
    for (const auto& v : values) total += std::stol(v);
    return std::to_string(total);
  };
  MrWorkerConfig worker_config;
  worker_config.visibility_timeout = 0.5;
  AzureMapReduce runtime(hostile_store, hostile_queues, /*num_workers=*/3, worker_config);
  const JobResult result = runtime.run(spec);
  ASSERT_TRUE(result.succeeded);
  EXPECT_EQ(result.outputs.at("sum"), "17") << "2 + 3 + 5 + 7";
  EXPECT_EQ(result.outputs.at("count"), "4") << "every mapper's record must arrive";
}

TEST_F(AzureMrTest, RejectsMalformedSpecs) {
  AzureMapReduce runtime(store_, queues_, 1);
  JobSpec spec;
  EXPECT_THROW(runtime.run(spec), ppc::InvalidArgument);  // no inputs
  spec.inputs = {{"bad/name", "x"}};
  spec.map = [](const std::string&, const std::string&, const std::string&) {
    return std::vector<KeyValue>{};
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>&) { return ""; };
  EXPECT_THROW(runtime.run(spec), ppc::InvalidArgument);  // slash in name
}

}  // namespace
}  // namespace ppc::azuremr
