#include "azuremr/key_value.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace ppc::azuremr {
namespace {

TEST(RecordCodec, RoundTrip) {
  const std::vector<KeyValue> records = {{"alpha", "1"}, {"beta", "value two"}, {"", ""}};
  EXPECT_EQ(decode_records(encode_records(records)), records);
}

TEST(RecordCodec, EmptyVector) {
  EXPECT_TRUE(decode_records(encode_records({})).empty());
  EXPECT_EQ(encode_records({}), "");
}

TEST(RecordCodec, BinarySafeValues) {
  // Keys/values may contain the delimiters the task codec reserves.
  const std::vector<KeyValue> records = {{"k=1;x", "line\nbreak and spaces"},
                                         {"5 17\n", std::string("\0\x01\x02", 3)}};
  EXPECT_EQ(decode_records(encode_records(records)), records);
}

TEST(RecordCodec, RejectsCorruption) {
  EXPECT_THROW(decode_records("garbage"), ppc::InvalidArgument);
  EXPECT_THROW(decode_records("3 4\nab"), ppc::InvalidArgument);  // truncated body
  EXPECT_THROW(decode_records("x y\nzz"), ppc::InvalidArgument);  // non-numeric lengths
}

TEST(RecordCodec, RejectsLengthWraparound) {
  // klen + vlen wraps past 2^64 back to a small offset; the decoder used to
  // accept this as two records.
  EXPECT_THROW(decode_records("18446744073709551615 1\n1 1\nxy"), ppc::InvalidArgument);
  EXPECT_THROW(decode_records("18446744073709551616 0\nx"), ppc::InvalidArgument);
  // Trailing junk in a length field and a leading zero are not lengths.
  EXPECT_THROW(decode_records("1x 1\nab"), ppc::InvalidArgument);
  EXPECT_THROW(decode_records("01 1\nab"), ppc::InvalidArgument);
}

TEST(Partitioning, DeterministicAndInRange) {
  for (int r = 1; r <= 8; ++r) {
    for (const std::string key : {"a", "centroid-3", "", "long-key-with-text"}) {
      const auto p = partition_of(key, static_cast<std::size_t>(r));
      EXPECT_LT(p, static_cast<std::size_t>(r));
      EXPECT_EQ(p, partition_of(key, static_cast<std::size_t>(r)));
    }
  }
}

TEST(Partitioning, SpreadsKeys) {
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 800; ++i) {
    ++counts[partition_of("key-" + std::to_string(i), 8)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 50) << "hash partitioning should not starve a reducer";
  }
}

TEST(Partitioning, RejectsZeroPartitions) {
  EXPECT_THROW(partition_of("k", 0), ppc::InvalidArgument);
}

TEST(GroupByKey, GroupsAndPreservesOrder) {
  const std::vector<KeyValue> records = {{"a", "1"}, {"b", "x"}, {"a", "2"}, {"a", "3"}};
  const auto grouped = group_by_key(records);
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped.at("a"), (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(grouped.at("b"), (std::vector<std::string>{"x"}));
}

}  // namespace
}  // namespace ppc::azuremr
