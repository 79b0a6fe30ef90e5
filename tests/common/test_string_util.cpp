#include "common/string_util.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace ppc {
namespace {

TEST(Split, BasicFields) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoSeparator) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Trim, RemovesWhitespaceBothEnds) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("input/file", "input/"));
  EXPECT_FALSE(starts_with("in", "input/"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.005, 1), "-1.0");
}

// 1e60 prints as 60 integer digits; the text must not be cut short.
TEST(FormatFixed, KeepsEveryDigitOfLargeValues) {
  const std::string text = format_fixed(1e60, 6);
  EXPECT_EQ(text.size(), 60u + 7u);
  EXPECT_EQ(parse_finite(text), 1e60);
}

TEST(ParseFinite, AcceptsOnlyAWholeFiniteNumber) {
  EXPECT_EQ(parse_finite("12.5"), 12.5);
  EXPECT_EQ(parse_finite("-3e2"), -300.0);
  for (const char* bad : {"", "abc", "1.5junk", " 1", "nan", "inf", "-inf", "1e999"}) {
    EXPECT_EQ(parse_finite(bad), std::nullopt) << bad;
  }
}

TEST(DecodeKv, RejectsWhatEncodeKvNeverEmits) {
  EXPECT_THROW(decode_kv("a=b=c"), InvalidArgument);
  EXPECT_THROW(decode_kv("a=1;a=2"), InvalidArgument);
  EXPECT_THROW(decode_kv("a=1;;b=2"), InvalidArgument);
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KB");
  EXPECT_EQ(format_bytes(8.7 * 1024 * 1024 * 1024), "8.70 GB");
}

TEST(FormatDuration, HoursMinutesSeconds) {
  EXPECT_EQ(format_duration(3.25), "3.2s");
  EXPECT_EQ(format_duration(65.0), "1m 5.0s");
  EXPECT_EQ(format_duration(3661.0), "1h 1m 1.0s");
}

TEST(KvCodec, RoundTrip) {
  const std::map<std::string, std::string> kv = {
      {"task", "t42"}, {"in", "input/f"}, {"out", "output/f"}};
  const auto decoded = decode_kv(encode_kv(kv));
  EXPECT_EQ(decoded, kv);
}

TEST(KvCodec, EmptyMap) {
  EXPECT_EQ(encode_kv({}), "");
  EXPECT_TRUE(decode_kv("").empty());
}

TEST(KvCodec, RejectsReservedCharacters) {
  EXPECT_THROW(encode_kv({{"a=b", "v"}}), InvalidArgument);
  EXPECT_THROW(encode_kv({{"k", "v;w"}}), InvalidArgument);
}

TEST(KvCodec, RejectsMalformedInput) {
  EXPECT_THROW(decode_kv("novalue"), InvalidArgument);
}

TEST(KvCodec, DeterministicKeyOrder) {
  EXPECT_EQ(encode_kv({{"b", "2"}, {"a", "1"}}), "a=1;b=2");
}

}  // namespace
}  // namespace ppc
