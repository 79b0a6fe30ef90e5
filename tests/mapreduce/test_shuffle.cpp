// Shuffle primitives: record codecs, the partitioner, the map-side spill
// writer, the partition-map registry, and the reduce-side fetch path
// (checksum verification, corruption detection, map-output-loss surfacing).
#include "mapreduce/shuffle.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "blobstore/blob_store.h"
#include "common/clock.h"
#include "common/crc32c.h"
#include "runtime/fault_plan.h"

namespace ppc::mapreduce {
namespace {

std::unique_ptr<blobstore::BlobStore> make_store() {
  return std::make_unique<blobstore::BlobStore>(std::make_shared<ppc::SystemClock>());
}

TEST(ShuffleCodec, RecordsRoundTrip) {
  std::vector<ShuffleRecord> records = {
      {"alpha", "v1", 0, 0},
      {"", "empty key", 3, 17},
      {"key with spaces", "", 2, 5},
      {std::string("bin\0ary\n", 8), std::string("\n\n \0", 4), 1, 9},
  };
  const auto decoded = decode_records(encode_records(records));
  ASSERT_EQ(decoded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) EXPECT_EQ(decoded[i], records[i]);
}

TEST(ShuffleCodec, EmptyPayloadDecodesEmpty) {
  EXPECT_TRUE(decode_records("").empty());
  EXPECT_TRUE(decode_pairs("").empty());
  EXPECT_EQ(encode_pairs({}), "");
}

TEST(ShuffleCodec, MalformedPayloadThrows) {
  EXPECT_THROW(decode_records("garbage"), ppc::Error);
  EXPECT_THROW(decode_records("5 3 0 0\nab"), ppc::Error);  // truncated
  EXPECT_THROW(decode_pairs("2 x\nab"), ppc::Error);
  EXPECT_THROW(decode_pairs("garbage"), ppc::Error);
  EXPECT_THROW(decode_pairs("3 4\nab"), ppc::Error);  // truncated
  EXPECT_THROW(decode_pairs("x y\nzz"), ppc::Error);  // non-numeric lengths
}

TEST(ShuffleCodec, RecordsRejectLengthWraparound) {
  // pos + klen + vlen wraps past 2^64; the decoder used to return 2 records.
  EXPECT_THROW(decode_records("18446744073709551615 1 0 0\n1 1 0 0\nxy"), ppc::Error);
}

TEST(ShuffleCodec, RecordsRejectOutOfRangeNumbers) {
  // 2^64 + 1 used to wrap to a key length of 1, and a 33-bit map id to 1.
  EXPECT_THROW(decode_records("18446744073709551617 0 0 0\nx"), ppc::Error);
  EXPECT_THROW(decode_records("1 1 4294967297 0\nab"), ppc::Error);
  EXPECT_THROW(decode_records("1 1 0 4294967296\nab"), ppc::Error);
  EXPECT_EQ(decode_records("1 1 4294967295 4294967295\nab").at(0).map_id, 4294967295u);
}

TEST(ShuffleCodec, PairsRejectLengthWraparound) {
  // klen + vlen wraps past 2^64 back to a small offset, or 2^64 itself wraps
  // to 0; the decoder used to accept these as records.
  EXPECT_THROW(decode_pairs("18446744073709551615 1\n1 1\nxy"), ppc::Error);
  EXPECT_THROW(decode_pairs("18446744073709551616 0\nx"), ppc::Error);
  // Trailing junk in a length field and a leading zero are not lengths.
  EXPECT_THROW(decode_pairs("1x 1\nab"), ppc::Error);
  EXPECT_THROW(decode_pairs("01 1\nab"), ppc::Error);
}

TEST(ShuffleCodec, PairsRoundTrip) {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"k1", "v1"}, {"", "v2"}, {"k3", ""}};
  EXPECT_EQ(decode_pairs(encode_pairs(pairs)), pairs);
  // Keys and values may hold the frame's own delimiters and NUL bytes.
  pairs = {{"k=1;x", "line\nbreak and spaces"}, {"5 17\n", std::string("\0\x01\x02", 3)}};
  EXPECT_EQ(decode_pairs(encode_pairs(pairs)), pairs);
}

// The key/value pair frame as azuremr uses it for its intermediate and
// reduce-output blobs.
using Pairs = std::vector<std::pair<std::string, std::string>>;

TEST(RecordCodec, RoundTrip) {
  const Pairs records = {{"alpha", "1"}, {"beta", "value two"}, {"", ""}};
  EXPECT_EQ(decode_pairs(encode_pairs(records)), records);
}

TEST(RecordCodec, EmptyVector) {
  EXPECT_TRUE(decode_pairs(encode_pairs({})).empty());
  EXPECT_EQ(encode_pairs({}), "");
}

TEST(RecordCodec, BinarySafeValues) {
  // Keys and values may hold the frame's own delimiters and NUL bytes.
  const Pairs records = {{"k=1;x", "line\nbreak and spaces"},
                         {"5 17\n", std::string("\0\x01\x02", 3)}};
  EXPECT_EQ(decode_pairs(encode_pairs(records)), records);
}

TEST(RecordCodec, RejectsCorruption) {
  EXPECT_THROW(decode_pairs("garbage"), ppc::Error);
  EXPECT_THROW(decode_pairs("3 4\nab"), ppc::Error);  // truncated body
  EXPECT_THROW(decode_pairs("x y\nzz"), ppc::Error);  // non-numeric lengths
}

TEST(RecordCodec, RejectsLengthWraparound) {
  // klen + vlen wraps past 2^64 back to a small offset, or 2^64 itself wraps
  // to 0; the decoder used to accept these as records.
  EXPECT_THROW(decode_pairs("18446744073709551615 1\n1 1\nxy"), ppc::Error);
  EXPECT_THROW(decode_pairs("18446744073709551616 0\nx"), ppc::Error);
  // Trailing junk in a length field and a leading zero are not lengths.
  EXPECT_THROW(decode_pairs("1x 1\nab"), ppc::Error);
  EXPECT_THROW(decode_pairs("01 1\nab"), ppc::Error);
}

TEST(ShufflePartitioner, StableAndInRange) {
  for (int parts : {1, 2, 3, 7}) {
    for (const char* key : {"a", "b", "sequence-xyz", ""}) {
      const int p = partition_of(key, parts);
      EXPECT_GE(p, 0);
      EXPECT_LT(p, parts);
      EXPECT_EQ(p, partition_of(key, parts));  // deterministic
    }
  }
  EXPECT_THROW(partition_of("k", 0), ppc::InvalidArgument);
}

TEST(ShufflePartitioner, SpreadsKeys) {
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 800; ++i) ++counts[partition_of("key-" + std::to_string(i), 8)];
  for (int c : counts) EXPECT_GT(c, 50) << "hash partitioning should not starve a reducer";
}

TEST(ShuffleRecordOrder, TotalOrderBreaksTiesByProvenance) {
  const ShuffleRecord a{"k", "x", 0, 1};
  const ShuffleRecord b{"k", "y", 0, 2};
  const ShuffleRecord c{"k", "z", 1, 0};
  EXPECT_LT(a, b);  // same key+map: seq order
  EXPECT_LT(b, c);  // same key: map order
  EXPECT_LT(a, c);
}

TEST(MapOutputWriter, SingleSpillWhenUnderBudget) {
  auto store = make_store();
  MapOutputWriter writer(*store, "shuffle", "job/m0.a0", 0, 0, 3, /*budget=*/0.0, {});
  writer.emit("apple", "1");
  writer.emit("banana", "2");
  writer.emit("apple", "3");
  const MapOutput out = writer.finish();
  EXPECT_EQ(writer.spills(), 1);
  ASSERT_EQ(out.partitions.size(), 3u);
  std::uint32_t total = 0;
  for (const auto& partition : out.partitions) {
    for (const auto& spill : partition) {
      total += spill.records;
      const auto data = store->get("shuffle", spill.store_key);
      ASSERT_NE(data, nullptr);
      EXPECT_EQ(ppc::crc32c(*data), spill.checksum);
      EXPECT_EQ(static_cast<Bytes>(data->size()), spill.bytes);
      // Spill invariant: internally sorted.
      const auto records = decode_records(*data);
      EXPECT_TRUE(std::is_sorted(records.begin(), records.end()));
    }
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(writer.records(), 3u);
}

TEST(MapOutputWriter, TinyBudgetForcesMultipleSpills) {
  auto store = make_store();
  MapOutputWriter writer(*store, "shuffle", "job/m1.a0", 1, 0, 2, /*budget=*/64.0, {});
  for (int i = 0; i < 50; ++i) writer.emit("key-" + std::to_string(i % 7), "value");
  const MapOutput out = writer.finish();
  EXPECT_GT(writer.spills(), 1);
  // Sequence numbers must cover emission order exactly once across spills.
  std::vector<std::uint32_t> seqs;
  for (const auto& partition : out.partitions) {
    for (const auto& spill : partition) {
      for (const auto& rec : decode_records(*store->get("shuffle", spill.store_key))) {
        seqs.push_back(rec.seq);
      }
    }
  }
  std::sort(seqs.begin(), seqs.end());
  ASSERT_EQ(seqs.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(MapOutputWriter, DiscardRemovesAllSpillObjects) {
  auto store = make_store();
  MapOutputWriter writer(*store, "shuffle", "job/m2.a1", 2, 1, 2, 32.0, {});
  for (int i = 0; i < 20; ++i) writer.emit("k" + std::to_string(i), "v");
  writer.finish();
  EXPECT_FALSE(store->list("shuffle", "job/m2.a1/").empty());
  MapOutputWriter::discard(*store, "shuffle", "job/m2.a1");
  EXPECT_TRUE(store->list("shuffle", "job/m2.a1/").empty());
}

TEST(PartitionMapRegistry, RegisterLookupDrop) {
  PartitionMapRegistry registry;
  EXPECT_FALSE(registry.lookup(0).has_value());
  MapOutput out;
  out.attempt_id = 2;
  out.partitions.resize(3);
  registry.register_output(0, out);
  ASSERT_TRUE(registry.lookup(0).has_value());
  EXPECT_EQ(registry.lookup(0)->attempt_id, 2);
  EXPECT_EQ(registry.size(), 1u);
  registry.drop(0);
  EXPECT_FALSE(registry.lookup(0).has_value());
}

TEST(FetchPartition, RoundTripsWriterOutput) {
  auto store = make_store();
  MapOutputWriter writer(*store, "shuffle", "job/m0.a0", 0, 0, 2, 48.0, {});
  for (int i = 0; i < 30; ++i) writer.emit("k" + std::to_string(i % 5), "v" + std::to_string(i));
  const MapOutput out = writer.finish();
  std::size_t total = 0;
  for (int r = 0; r < 2; ++r) {
    const auto records = fetch_partition(*store, "shuffle", out, 0, r, {});
    total += records.size();
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(partition_of(records[i].key, 2), r);
    }
  }
  EXPECT_EQ(total, 30u);
}

TEST(FetchPartition, MissingSpillThrowsMapOutputLost) {
  auto store = make_store();
  MapOutputWriter writer(*store, "shuffle", "job/m4.a0", 4, 0, 1, 0.0, {});
  writer.emit("k", "v");
  const MapOutput out = writer.finish();
  store->remove("shuffle", out.partitions[0][0].store_key);
  FetchOptions opts;
  opts.max_attempts = 2;
  try {
    fetch_partition(*store, "shuffle", out, 4, 0, {}, opts);
    FAIL() << "expected MapOutputLost";
  } catch (const MapOutputLost& e) {
    EXPECT_EQ(e.map_id(), 4);
  }
}

TEST(FetchPartition, ChecksumMismatchThrowsAfterRetries) {
  auto store = make_store();
  MapOutputWriter writer(*store, "shuffle", "job/m5.a0", 5, 0, 1, 0.0, {});
  writer.emit("k", "v");
  const MapOutput out = writer.finish();
  // Overwrite the stored spill with different (even validly encoded) bytes:
  // every retry re-reads the same wrong payload, so the fetch must give up
  // and surface the loss instead of delivering corrupt records.
  store->put("shuffle", out.partitions[0][0].store_key,
             encode_records({{"k", "tampered", 5, 0}}));
  FetchOptions opts;
  opts.max_attempts = 3;
  runtime::MetricsRegistry metrics;
  ShuffleHooks hooks;
  hooks.metrics = &metrics;
  EXPECT_THROW(fetch_partition(*store, "shuffle", out, 5, 0, hooks, opts), MapOutputLost);
  EXPECT_EQ(metrics.counter_value("mapreduce.shuffle.corrupt_fetches"), 3);
}

TEST(FetchPartition, InjectedCorruptionIsDetectedAndRetried) {
  auto store = make_store();
  runtime::FaultInjector faults;
  runtime::FaultPlan plan;
  plan.seed = 7;
  plan.corrupt("blobstore.shuffle.get", /*budget=*/1);
  faults.arm_plan(plan);
  store->set_fault_hook(&faults);
  MapOutputWriter writer(*store, "shuffle", "job/m6.a0", 6, 0, 1, 0.0, {});
  writer.emit("k", "v");
  const MapOutput out = writer.finish();
  runtime::MetricsRegistry metrics;
  ShuffleHooks hooks;
  hooks.metrics = &metrics;
  // One corrupt delivery (checksum catches it), then the retry reads clean.
  const auto records = fetch_partition(*store, "shuffle", out, 6, 0, hooks);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].value, "v");
  EXPECT_EQ(metrics.counter_value("mapreduce.shuffle.corrupt_fetches"), 1);
  EXPECT_GE(faults.total_corruptions(), 1);
}

}  // namespace
}  // namespace ppc::mapreduce
