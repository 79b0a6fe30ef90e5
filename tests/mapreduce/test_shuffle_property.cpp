// Satellite 1 — the randomized-vs-reference shuffle harness.
//
// 1000 seeds drive random keys/values, map counts, partition counts, and
// spill/sort memory budgets (forcing anywhere from zero to many spills)
// through the full partition → spill → fetch → external-sort → reduce
// pipeline, and every seed's canonical output must equal a single-threaded
// std::sort + group-by reference model byte for byte. A second suite runs
// the real-thread ShuffleJobRunner across cluster shapes (worker count,
// slot count, reducer count, budgets) and asserts the same byte-identity —
// the shuffle's output depends only on (inputs, map fn, reduce fn), never
// on the execution schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "blobstore/blob_store.h"
#include "common/clock.h"
#include "common/rng.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/shuffle_job.h"
#include "minihdfs/mini_hdfs.h"

namespace ppc::mapreduce {
namespace {

// Deterministic, order-sensitive reduce: the merged value order (map_id,
// seq) is part of the contract, so the reduction bakes it into the bytes.
std::string join_reduce(const std::string& /*key*/, const std::vector<std::string>& values) {
  std::string out = std::to_string(values.size());
  for (const auto& v : values) {
    out += '|';
    out += v;
  }
  return out;
}

// Single-threaded reference: sort every emitted record by the total order
// (key, map_id, seq), group consecutive keys, reduce each group.
std::map<std::string, std::string> reference_reduce(std::vector<ShuffleRecord> records) {
  std::sort(records.begin(), records.end());
  std::map<std::string, std::string> canonical;
  std::size_t i = 0;
  while (i < records.size()) {
    std::size_t j = i;
    std::vector<std::string> values;
    while (j < records.size() && records[j].key == records[i].key) {
      values.push_back(records[j].value);
      ++j;
    }
    canonical[records[i].key] = join_reduce(records[i].key, values);
    i = j;
  }
  return canonical;
}

std::string random_token(ppc::Rng& rng, int max_len) {
  const int len = static_cast<int>(rng.uniform_int(0, max_len));
  std::string s;
  for (int i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng.uniform_int(0, 25));
  }
  return s;
}

// Runs the primitive pipeline single-threaded (the concurrency-free core of
// ShuffleJobRunner): per-map writers, registry commit, per-partition fetch +
// external sort + reduce. Returns the canonical key → reduced-value map.
std::map<std::string, std::string> run_pipeline(
    const std::vector<std::vector<ShuffleRecord>>& per_map, int num_partitions,
    Bytes map_spill_budget, Bytes sort_budget) {
  blobstore::BlobStore store(std::make_shared<ppc::SystemClock>());
  PartitionMapRegistry registry;
  for (std::size_t m = 0; m < per_map.size(); ++m) {
    MapOutputWriter writer(store, "shuffle", "job/m" + std::to_string(m) + ".a0",
                           static_cast<int>(m), 0, num_partitions, map_spill_budget, {});
    for (const auto& r : per_map[m]) writer.emit(r.key, r.value);
    registry.register_output(static_cast<int>(m), writer.finish());
  }
  std::map<std::string, std::string> canonical;
  for (int r = 0; r < num_partitions; ++r) {
    ExternalSorter sorter(store, "shuffle", "job/r" + std::to_string(r) + ".a0", sort_budget, {});
    for (std::size_t m = 0; m < per_map.size(); ++m) {
      const auto out = registry.lookup(static_cast<int>(m));
      sorter.add(fetch_partition(store, "shuffle", *out, static_cast<int>(m), r, {}));
    }
    sorter.for_each_group([&](std::string_view key_view,
                              const std::vector<std::string_view>& value_views) {
      const std::string key(key_view);
      const std::vector<std::string> values(value_views.begin(), value_views.end());
      // Partitioning invariant: every key lands in its hash partition.
      ASSERT_EQ(partition_of(key, num_partitions), r);
      const auto [it, inserted] = canonical.emplace(key, join_reduce(key, values));
      ASSERT_TRUE(inserted) << "key reduced in two partitions: " << key;
    });
    sorter.cleanup();
  }
  return canonical;
}

TEST(ShuffleProperty, ThousandSeedsMatchReferenceByteForByte) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    ppc::Rng rng(seed);
    const int num_maps = static_cast<int>(rng.uniform_int(1, 4));
    const int num_partitions = static_cast<int>(rng.uniform_int(1, 5));
    // Budgets span "never spill early" (0) through "spill every few
    // records" (tiny), exercising 0..N-spill schedules.
    const Bytes spill_budgets[] = {0.0, 64.0, 256.0, 2048.0};
    const Bytes sort_budgets[] = {0.0, 96.0, 512.0, 8192.0};
    const Bytes map_spill_budget = spill_budgets[rng.index(4)];
    const Bytes sort_budget = sort_budgets[rng.index(4)];
    const int key_space = static_cast<int>(rng.uniform_int(1, 12));

    std::vector<std::vector<ShuffleRecord>> per_map(static_cast<std::size_t>(num_maps));
    std::vector<ShuffleRecord> all;
    for (int m = 0; m < num_maps; ++m) {
      const int n = static_cast<int>(rng.uniform_int(0, 40));
      for (int i = 0; i < n; ++i) {
        ShuffleRecord r;
        r.key = "k" + std::to_string(rng.uniform_int(0, key_space - 1)) + random_token(rng, 3);
        r.value = random_token(rng, 8);
        r.map_id = static_cast<std::uint32_t>(m);
        r.seq = static_cast<std::uint32_t>(i);
        per_map[static_cast<std::size_t>(m)].push_back(r);
        all.push_back(std::move(r));
      }
    }

    const auto got = run_pipeline(per_map, num_partitions, map_spill_budget, sort_budget);
    const auto want = reference_reduce(all);
    ASSERT_EQ(encode_canonical(got), encode_canonical(want))
        << "seed " << seed << " diverged from the reference (maps=" << num_maps
        << " partitions=" << num_partitions << " spill_budget=" << map_spill_budget
        << " sort_budget=" << sort_budget << ")";
  }
}

TEST(ShuffleProperty, SpillScheduleNeverChangesTheBytes) {
  // One fixed workload, many spill schedules: from single-spill outputs and
  // pure in-memory sorts to per-handful-of-records spills on both sides.
  ppc::Rng rng(0xD15C);
  std::vector<std::vector<ShuffleRecord>> per_map(3);
  for (int m = 0; m < 3; ++m) {
    for (std::uint32_t i = 0; i < 80; ++i) {
      per_map[static_cast<std::size_t>(m)].push_back(
          {"key-" + std::to_string(rng.uniform_int(0, 9)), random_token(rng, 6),
           static_cast<std::uint32_t>(m), i});
    }
  }
  std::string first;
  for (const Bytes map_budget : {0.0, 128.0, 1024.0}) {
    for (const Bytes sort_budget : {0.0, 200.0, 4096.0}) {
      const auto canonical = run_pipeline(per_map, 4, map_budget, sort_budget);
      const std::string bytes = encode_canonical(canonical);
      if (first.empty()) {
        first = bytes;
      } else {
        ASSERT_EQ(bytes, first) << "map_budget=" << map_budget
                                << " sort_budget=" << sort_budget;
      }
    }
  }
  ASSERT_FALSE(first.empty());
}

// ---------------------------------------------------------------------------
// Real-thread engine: byte-identity across cluster shapes.

struct WordJob {
  std::vector<std::string> paths;
  std::map<std::string, std::string> reference;
};

WordJob stage_word_job(minihdfs::MiniHdfs& hdfs, int num_files, std::uint64_t seed) {
  ppc::Rng rng(seed);
  WordJob job;
  std::vector<ShuffleRecord> all;
  for (int f = 0; f < num_files; ++f) {
    std::ostringstream text;
    const int words = static_cast<int>(rng.uniform_int(5, 60));
    for (int w = 0; w < words; ++w) {
      text << "w" << rng.uniform_int(0, 15) << random_token(rng, 2) << " ";
    }
    const std::string path = "/in/words-" + std::to_string(f) + ".txt";
    hdfs.write(path, text.str());
    job.paths.push_back(path);
    // Reference emission: mirrors word_map below, map_id = input index.
    std::istringstream in(text.str());
    std::string word;
    std::uint32_t seq = 0;
    while (in >> word) {
      all.push_back({word, "p" + std::to_string(seq), static_cast<std::uint32_t>(f), seq});
      ++seq;
    }
  }
  job.reference = reference_reduce(std::move(all));
  return job;
}

void word_map(const FileRecord& /*record*/, const std::string& contents, const EmitFn& emit) {
  std::istringstream in(contents);
  std::string word;
  std::uint32_t seq = 0;
  while (in >> word) {
    emit(word, "p" + std::to_string(seq));
    ++seq;
  }
}

TEST(ShuffleProperty, EngineByteIdenticalAcrossClusterShapes) {
  minihdfs::MiniHdfs hdfs(4);
  const WordJob job = stage_word_job(hdfs, 5, 0xBEEF);
  const std::string want = encode_canonical(job.reference);

  struct Shape {
    int nodes, slots, reducers;
    Bytes map_budget, sort_budget;
  };
  const Shape shapes[] = {
      {1, 1, 1, 0.0, 0.0},          // serial, never spills
      {2, 2, 2, 512.0, 768.0},      // small cluster, forced spills
      {4, 2, 3, 256.0, 0.0},        // wide cluster, tiny map budget
      {3, 1, 5, 0.0, 300.0},        // more reducers than files' key spread
  };
  int shape_idx = 0;
  for (const auto& shape : shapes) {
    ShuffleJobConfig config;
    config.num_nodes = shape.nodes;
    config.slots_per_node = shape.slots;
    config.num_reducers = shape.reducers;
    config.map_spill_budget = shape.map_budget;
    config.sort_memory_budget = shape.sort_budget;
    config.output_dir = "/out/shape-" + std::to_string(shape_idx);
    config.job_name = "shape-" + std::to_string(shape_idx);
    ++shape_idx;
    ShuffleJobRunner runner(hdfs);
    const auto result = runner.run(job.paths, word_map, join_reduce, config);
    ASSERT_TRUE(result.succeeded);
    EXPECT_EQ(static_cast<int>(result.outputs.size()), shape.reducers);
    const auto canonical = canonical_reduced_output(result, hdfs);
    ASSERT_EQ(encode_canonical(canonical), want)
        << "nodes=" << shape.nodes << " slots=" << shape.slots
        << " reducers=" << shape.reducers;
  }
}

TEST(ShuffleProperty, EngineSeededRerunIsByteIdentical) {
  // Same job twice on the same cluster shape — stats may differ (schedule),
  // the bytes must not.
  minihdfs::MiniHdfs hdfs(3);
  const WordJob job = stage_word_job(hdfs, 4, 0xFACE);
  std::vector<std::string> bytes;
  for (int run = 0; run < 2; ++run) {
    ShuffleJobConfig config;
    config.num_nodes = 3;
    config.slots_per_node = 2;
    config.num_reducers = 2;
    config.map_spill_budget = 384.0;
    config.sort_memory_budget = 512.0;
    config.output_dir = "/out/rerun-" + std::to_string(run);
    config.job_name = "rerun-" + std::to_string(run);
    ShuffleJobRunner runner(hdfs);
    const auto result = runner.run(job.paths, word_map, join_reduce, config);
    ASSERT_TRUE(result.succeeded);
    bytes.push_back(encode_canonical(canonical_reduced_output(result, hdfs)));
  }
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(bytes[0], encode_canonical(job.reference));
}

}  // namespace
}  // namespace ppc::mapreduce
