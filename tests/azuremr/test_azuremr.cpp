// End-to-end tests of the TwisterAzure-style iterative MapReduce framework
// (the paper's §8 future work): word count (single pass), iterative K-means
// (the canonical Twister workload), input caching across iterations, and
// failure recovery through the queue's visibility timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>

#include "azuremr/runtime.h"
#include "blobstore/blob_store.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"

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
  EXPECT_EQ(result.iterations_run, 1);
  EXPECT_EQ(result.outputs.at("the"), "3");
  EXPECT_EQ(result.outputs.at("dog"), "3");
  EXPECT_EQ(result.outputs.at("quick"), "2");
  EXPECT_EQ(result.outputs.at("cat"), "1");
  EXPECT_EQ(result.outputs.size(), 9u);  // distinct words
}

// K-means helpers: broadcast = "x,y;x,y;..." centroids; inputs = chunks of
// "x,y\n" points; map emits (centroid_index, "sx,sy,count") partial sums.
std::vector<std::pair<double, double>> parse_centroids(const std::string& broadcast) {
  std::vector<std::pair<double, double>> out;
  for (const auto& c : split(broadcast, ';')) {
    if (c.empty()) continue;
    const auto xy = split(c, ',');
    out.emplace_back(std::stod(xy[0]), std::stod(xy[1]));
  }
  return out;
}

JobSpec kmeans_spec(const std::vector<std::pair<std::string, std::string>>& chunks,
                    const std::string& initial_centroids, int max_iters) {
  JobSpec spec;
  spec.job_id = "kmeans";
  spec.inputs = chunks;
  spec.num_reduce_tasks = 2;
  spec.initial_broadcast = initial_centroids;
  spec.max_iterations = max_iters;
  spec.map = [](const std::string&, const std::string& data, const std::string& broadcast) {
    const auto centroids = parse_centroids(broadcast);
    std::vector<double> sx(centroids.size(), 0), sy(centroids.size(), 0);
    std::vector<int> count(centroids.size(), 0);
    for (const auto& line : split(data, '\n')) {
      if (line.empty()) continue;
      const auto xy = split(line, ',');
      const double x = std::stod(xy[0]), y = std::stod(xy[1]);
      std::size_t best = 0;
      double best_d = 1e300;
      for (std::size_t c = 0; c < centroids.size(); ++c) {
        const double d = (x - centroids[c].first) * (x - centroids[c].first) +
                         (y - centroids[c].second) * (y - centroids[c].second);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      sx[best] += x;
      sy[best] += y;
      ++count[best];
    }
    std::vector<KeyValue> out;
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      if (count[c] > 0) {
        out.push_back({"c" + std::to_string(c),
                       format_fixed(sx[c], 9) + "," + format_fixed(sy[c], 9) + "," +
                           std::to_string(count[c])});
      }
    }
    return out;
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    double sx = 0, sy = 0;
    long n = 0;
    for (const auto& v : values) {
      const auto f = split(v, ',');
      sx += std::stod(f[0]);
      sy += std::stod(f[1]);
      n += std::stol(f[2]);
    }
    return format_fixed(sx / n, 9) + "," + format_fixed(sy / n, 9);
  };
  spec.merge = [](const std::map<std::string, std::string>& reduced,
                  const std::string& previous) {
    auto centroids = parse_centroids(previous);
    for (const auto& [key, value] : reduced) {
      const auto idx = static_cast<std::size_t>(std::stoi(key.substr(1)));
      const auto xy = split(value, ',');
      centroids[idx] = {std::stod(xy[0]), std::stod(xy[1])};
    }
    std::string out;
    for (const auto& [x, y] : centroids) {
      out += format_fixed(x, 9) + "," + format_fixed(y, 9) + ";";
    }
    return out;
  };
  spec.converged = [](const std::string& prev, const std::string& next, int) {
    const auto a = parse_centroids(prev), b = parse_centroids(next);
    double shift = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      shift = std::max(shift, std::hypot(a[i].first - b[i].first, a[i].second - b[i].second));
    }
    return shift < 1e-4;
  };
  return spec;
}

std::vector<std::pair<std::string, std::string>> kmeans_chunks(Rng& rng, int chunks,
                                                               int points_per_chunk) {
  // Two well-separated clusters around (0,0) and (10,10).
  std::vector<std::pair<std::string, std::string>> out;
  for (int c = 0; c < chunks; ++c) {
    std::string data;
    for (int p = 0; p < points_per_chunk; ++p) {
      const bool hi = rng.bernoulli(0.5);
      const double x = (hi ? 10.0 : 0.0) + rng.normal(0, 0.5);
      const double y = (hi ? 10.0 : 0.0) + rng.normal(0, 0.5);
      data += format_fixed(x, 6) + "," + format_fixed(y, 6) + "\n";
    }
    out.emplace_back("chunk" + std::to_string(c), data);
  }
  return out;
}

TEST_F(AzureMrTest, IterativeKMeansConverges) {
  Rng rng(31);
  const auto chunks = kmeans_chunks(rng, 4, 50);
  // Deliberately bad initial centroids; K-means must walk them to the
  // cluster centers.
  JobSpec spec = kmeans_spec(chunks, "4.0,6.0;6.0,4.0;", /*max_iters=*/25);

  AzureMapReduce runtime(store_, queues_, /*num_workers=*/4);
  const JobResult result = runtime.run(spec);
  ASSERT_TRUE(result.succeeded);
  EXPECT_TRUE(result.converged) << "K-means should converge within 25 iterations";
  EXPECT_GE(result.iterations_run, 2);

  const auto centroids = parse_centroids(result.final_broadcast);
  ASSERT_EQ(centroids.size(), 2u);
  // One centroid near (0,0), the other near (10,10), in either order.
  const auto near = [](std::pair<double, double> c, double x, double y) {
    return std::hypot(c.first - x, c.second - y) < 0.5;
  };
  EXPECT_TRUE((near(centroids[0], 0, 0) && near(centroids[1], 10, 10)) ||
              (near(centroids[0], 10, 10) && near(centroids[1], 0, 0)))
      << result.final_broadcast;
}

TEST_F(AzureMrTest, InputsAreCachedAcrossIterations) {
  Rng rng(32);
  const auto chunks = kmeans_chunks(rng, 3, 30);
  JobSpec spec = kmeans_spec(chunks, "1.0,1.0;9.0,9.0;", 6);
  spec.converged = nullptr;  // force all 6 iterations

  AzureMapReduce runtime(store_, queues_, /*num_workers=*/2);
  const JobResult result = runtime.run(spec);
  ASSERT_TRUE(result.succeeded);
  EXPECT_EQ(result.iterations_run, 6);

  const auto stats = runtime.last_run_worker_stats();
  EXPECT_EQ(stats.map_tasks, 18);  // 3 chunks x 6 iterations
  // Each worker downloads each chunk at most once; all later map tasks hit
  // the cache — the Twister data-caching property.
  EXPECT_LE(stats.cache_misses, 6);  // <= chunks x workers
  EXPECT_GE(stats.cache_hits, 12);
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

TEST_F(AzureMrTest, CombinerShrinksShuffleWithoutChangingResults) {
  // Word count over repetitive text, with and without a summing combiner:
  // identical outputs, far fewer bytes through the blob-store shuffle.
  auto make_spec = [](bool with_combiner) {
    JobSpec spec;
    spec.job_id = with_combiner ? "wc-comb" : "wc-plain";
    std::string text;
    for (int i = 0; i < 200; ++i) text += "spam ham spam eggs ";
    spec.inputs = {{"doc0", text}, {"doc1", text}};
    spec.num_reduce_tasks = 2;
    spec.map = [](const std::string&, const std::string& data, const std::string&) {
      std::vector<KeyValue> out;
      std::istringstream is(data);
      std::string word;
      while (is >> word) out.push_back({word, "1"});
      return out;
    };
    spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
      long total = 0;
      for (const auto& v : values) total += std::stol(v);
      return std::to_string(total);
    };
    if (with_combiner) spec.combine = spec.reduce;
    return spec;
  };

  blobstore::BlobStore store_plain(clock_), store_comb(clock_);
  AzureMapReduce plain_rt(store_plain, queues_, 2);
  AzureMapReduce comb_rt(store_comb, queues_, 2);
  const JobResult plain = plain_rt.run(make_spec(false));
  const JobResult combined = comb_rt.run(make_spec(true));
  ASSERT_TRUE(plain.succeeded);
  ASSERT_TRUE(combined.succeeded);
  EXPECT_EQ(plain.outputs, combined.outputs);
  EXPECT_EQ(combined.outputs.at("spam"), "800");
  EXPECT_EQ(combined.outputs.at("eggs"), "400");
  // The combiner collapses 800 records per mapper into 3, so the *shuffle*
  // traffic (uploads beyond the input/broadcast/result blobs, which are
  // identical in both runs) must shrink by orders of magnitude.
  const double common = 2.0 * (200.0 * 19.0);  // the two input documents
  const double plain_shuffle = store_plain.meter().bytes_in - common;
  const double comb_shuffle = store_comb.meter().bytes_in - common;
  EXPECT_GT(plain_shuffle, 10000.0);
  EXPECT_LT(comb_shuffle, plain_shuffle / 20.0);
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
  // An iterative job must still converge to the correct result.
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
  spec.max_iterations = 4;
  spec.initial_broadcast = "1";
  // Each iteration multiplies the broadcast by the sum of the inputs
  // (2+3+5+7 = 17): after 4 iterations the broadcast must be 17^4.
  spec.map = [](const std::string& name, const std::string& data, const std::string&) {
    return std::vector<KeyValue>{{"sum", data}, {"count", name}};
  };
  spec.reduce = [](const std::string& key, const std::vector<std::string>& values) {
    if (key == "count") return std::to_string(values.size());
    long total = 0;
    for (const auto& v : values) total += std::stol(v);
    return std::to_string(total);
  };
  spec.merge = [](const std::map<std::string, std::string>& reduced,
                  const std::string& previous) {
    return std::to_string(std::stol(previous) * std::stol(reduced.at("sum")));
  };
  MrWorkerConfig worker_config;
  worker_config.visibility_timeout = 0.5;
  AzureMapReduce runtime(hostile_store, hostile_queues, /*num_workers=*/3, worker_config);
  const JobResult result = runtime.run(spec);
  ASSERT_TRUE(result.succeeded);
  EXPECT_EQ(result.iterations_run, 4);
  EXPECT_EQ(result.final_broadcast, std::to_string(17L * 17 * 17 * 17));
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
