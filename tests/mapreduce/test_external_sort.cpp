// ExternalSorter unit tests — satellite 3 of the shuffle issue: spill
// boundary keys, duplicate keys spanning spilled runs, empty partitions,
// single-record partitions, and run cleanup.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "blobstore/blob_store.h"
#include "common/clock.h"
#include "common/rng.h"
#include "mapreduce/shuffle.h"

namespace ppc::mapreduce {
namespace {

std::unique_ptr<blobstore::BlobStore> make_store() {
  return std::make_unique<blobstore::BlobStore>(std::make_shared<ppc::SystemClock>());
}

struct Group {
  std::string key;
  std::vector<std::string> values;
  friend bool operator==(const Group& a, const Group& b) {
    return a.key == b.key && a.values == b.values;
  }
};

std::vector<Group> collect_groups(ExternalSorter& sorter) {
  std::vector<Group> groups;
  sorter.for_each_group([&](std::string_view key, const std::vector<std::string_view>& values) {
    groups.push_back({std::string(key), {values.begin(), values.end()}});
  });
  return groups;
}

// Reference model: std::sort by the total record order, then group-by key.
std::vector<Group> reference_groups(std::vector<ShuffleRecord> records) {
  std::sort(records.begin(), records.end());
  std::vector<Group> groups;
  for (auto& r : records) {
    if (groups.empty() || groups.back().key != r.key) groups.push_back({r.key, {}});
    groups.back().values.push_back(std::move(r.value));
  }
  return groups;
}

TEST(ExternalSort, EmptyPartitionProducesNoGroups) {
  auto store = make_store();
  ExternalSorter sorter(*store, "shuffle", "r0", /*budget=*/0.0, {});
  EXPECT_TRUE(collect_groups(sorter).empty());
  EXPECT_EQ(sorter.runs_spilled(), 0);
  EXPECT_EQ(sorter.records(), 0u);
}

TEST(ExternalSort, SingleRecordPartition) {
  auto store = make_store();
  ExternalSorter sorter(*store, "shuffle", "r0", 0.0, {});
  sorter.add({"only", "value", 3, 7});
  const auto groups = collect_groups(sorter);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].key, "only");
  EXPECT_EQ(groups[0].values, std::vector<std::string>{"value"});
}

TEST(ExternalSort, InMemoryMatchesReference) {
  auto store = make_store();
  std::vector<ShuffleRecord> records;
  ppc::Rng rng(11);
  for (std::uint32_t i = 0; i < 200; ++i) {
    records.push_back({"k" + std::to_string(rng.uniform_int(0, 20)),
                       "v" + std::to_string(i), static_cast<std::uint32_t>(rng.uniform_int(0, 3)),
                       i});
  }
  ExternalSorter sorter(*store, "shuffle", "r0", /*budget=*/0.0, {});
  for (const auto& r : records) sorter.add(r);
  EXPECT_EQ(sorter.runs_spilled(), 0);  // infinite budget: pure in-memory
  EXPECT_EQ(collect_groups(sorter), reference_groups(records));
}

TEST(ExternalSort, TinyBudgetSpillsAndStillMatchesReference) {
  auto store = make_store();
  std::vector<ShuffleRecord> records;
  ppc::Rng rng(22);
  for (std::uint32_t i = 0; i < 300; ++i) {
    records.push_back({"key-" + std::to_string(rng.uniform_int(0, 12)),
                       std::string(1 + static_cast<std::size_t>(rng.uniform_int(0, 9)), 'x'),
                       static_cast<std::uint32_t>(rng.uniform_int(0, 5)), i});
  }
  ExternalSorter sorter(*store, "shuffle", "r1", /*budget=*/256.0, {});
  for (const auto& r : records) sorter.add(r);
  EXPECT_GT(sorter.runs_spilled(), 1);
  EXPECT_EQ(collect_groups(sorter), reference_groups(records));
}

TEST(ExternalSort, DuplicateKeysSpanningSpilledRuns) {
  auto store = make_store();
  // One hot key interleaved with fillers; the tiny budget guarantees the hot
  // key's values land in several different runs plus the final buffer. The
  // group must still come out once, values in (map_id, seq) order.
  ExternalSorter sorter(*store, "shuffle", "r2", /*budget=*/128.0, {});
  std::vector<ShuffleRecord> records;
  std::uint32_t seq = 0;
  for (int round = 0; round < 40; ++round) {
    records.push_back({"hot", "h" + std::to_string(round), 0, seq++});
    records.push_back({"filler-" + std::to_string(round), "f", 1, seq++});
  }
  for (const auto& r : records) sorter.add(r);
  ASSERT_GT(sorter.runs_spilled(), 1);
  const auto groups = collect_groups(sorter);
  const auto expected = reference_groups(records);
  EXPECT_EQ(groups, expected);
  // The hot group carries all 40 values in emission order.
  const auto hot = std::find_if(groups.begin(), groups.end(),
                                [](const Group& g) { return g.key == "hot"; });
  ASSERT_NE(hot, groups.end());
  ASSERT_EQ(hot->values.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(hot->values[static_cast<std::size_t>(i)],
                                         "h" + std::to_string(i));
}

TEST(ExternalSort, BoundaryKeysAtSpillEdges) {
  auto store = make_store();
  // Records arrive in descending key order so every spill boundary splits a
  // sorted run "backwards" relative to the final order — the merge must
  // reassemble ascending order across run edges.
  ExternalSorter sorter(*store, "shuffle", "r3", /*budget=*/200.0, {});
  std::vector<ShuffleRecord> records;
  for (std::uint32_t i = 0; i < 60; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03u", 59 - i);
    records.push_back({buf, "v" + std::to_string(i), 0, i});
  }
  for (const auto& r : records) sorter.add(r);
  ASSERT_GT(sorter.runs_spilled(), 0);
  const auto groups = collect_groups(sorter);
  ASSERT_EQ(groups.size(), 60u);
  for (std::size_t i = 1; i < groups.size(); ++i) EXPECT_LT(groups[i - 1].key, groups[i].key);
  EXPECT_EQ(groups, reference_groups(records));
}

TEST(ExternalSort, IdenticalKeyAndProvenanceRecordsAllSurvive) {
  auto store = make_store();
  // Same key from two map tasks with overlapping seq ranges: tie-break is
  // (map_id, seq), and no record may be deduplicated away.
  ExternalSorter sorter(*store, "shuffle", "r4", /*budget=*/96.0, {});
  std::vector<ShuffleRecord> records;
  for (std::uint32_t s = 0; s < 12; ++s) {
    records.push_back({"dup", "m0-" + std::to_string(s), 0, s});
    records.push_back({"dup", "m1-" + std::to_string(s), 1, s});
  }
  for (const auto& r : records) sorter.add(r);
  const auto groups = collect_groups(sorter);
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].values.size(), 24u);
  // All of m0's values precede all of m1's (map_id is the first tie-break).
  for (std::uint32_t s = 0; s < 12; ++s) {
    EXPECT_EQ(groups[0].values[s], "m0-" + std::to_string(s));
    EXPECT_EQ(groups[0].values[12 + s], "m1-" + std::to_string(s));
  }
}

TEST(ExternalSort, KeysSharingTheirFirstEightBytesOrderLikeTheFullKey) {
  // The sort compares a zero-padded 8-byte prefix first; keys that tie on it
  // (embedded NULs, lengths around 8, high bytes) must still come out in
  // std::string order, in memory and across spilled runs alike.
  const std::vector<std::string> keys = {
      "", std::string(1, '\0'), "abcdefg", std::string("abcdefg\0", 8),
      std::string("abcdefg\0\0", 9), "abcdefgh", std::string("abcdefgh\0", 9),
      "abcdefgh\x01", "abcdefgh\xff", "abcdefghi", "abcdefgi", "\xff",
      "\xff\xff\xff\xff\xff\xff\xff\xff\x01"};
  for (const Bytes budget : {0.0, 120.0}) {
    auto store = make_store();
    ExternalSorter sorter(*store, "shuffle", "r7", budget, {});
    std::vector<ShuffleRecord> records;
    std::uint32_t seq = 0;
    for (int round = 0; round < 3; ++round) {
      for (auto k = keys.rbegin(); k != keys.rend(); ++k) {
        records.push_back({*k, "v" + std::to_string(seq), static_cast<std::uint32_t>(round % 2),
                           seq});
        ++seq;
      }
    }
    for (const auto& r : records) sorter.add(r);
    if (budget > 0.0) {
      ASSERT_GT(sorter.runs_spilled(), 1);
    }
    const auto groups = collect_groups(sorter);
    ASSERT_EQ(groups.size(), keys.size());
    EXPECT_EQ(groups, reference_groups(records));
  }
}

TEST(ExternalSort, CleanupRemovesRunObjects) {
  auto store = make_store();
  ExternalSorter sorter(*store, "shuffle", "r5.a0", /*budget=*/64.0, {});
  for (std::uint32_t i = 0; i < 40; ++i) sorter.add({"k" + std::to_string(i), "v", 0, i});
  ASSERT_GT(sorter.runs_spilled(), 0);
  EXPECT_FALSE(store->list("shuffle", "r5.a0/").empty());
  collect_groups(sorter);
  sorter.cleanup();
  EXPECT_TRUE(store->list("shuffle", "r5.a0/").empty());
}

TEST(ExternalSort, AddAfterFinishIsAnError) {
  auto store = make_store();
  ExternalSorter sorter(*store, "shuffle", "r6", 0.0, {});
  sorter.add({"k", "v", 0, 0});
  collect_groups(sorter);
  EXPECT_THROW(sorter.add({"k2", "v", 0, 1}), ppc::Error);
}

}  // namespace
}  // namespace ppc::mapreduce
