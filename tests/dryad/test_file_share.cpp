#include "dryad/file_share.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/units.h"

namespace ppc::dryad {
namespace {

TEST(FileShare, WriteReadRoundTrip) {
  FileShare share(3);
  share.write(1, "f.txt", "hello");
  const auto got = share.read(1, "f.txt", 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "hello");
}

TEST(FileShare, AnyNodeCanReadAnyShare) {
  FileShare share(3);
  share.write(0, "f", "x");
  EXPECT_TRUE(share.read(0, "f", 2).has_value());  // remote SMB read
}

TEST(FileShare, LocalityCounted) {
  FileShare share(2);
  share.write(0, "f", "x");
  (void)share.read(0, "f", 0);  // local
  (void)share.read(0, "f", 1);  // remote
  (void)share.read(0, "f", 1);  // remote
  EXPECT_EQ(share.stats().local_reads, 1u);
  EXPECT_EQ(share.stats().remote_reads, 2u);
  EXPECT_EQ(share.stats().writes, 1u);
}

TEST(FileShare, SharesAreIndependent) {
  FileShare share(2);
  share.write(0, "f", "zero");
  share.write(1, "f", "one");
  EXPECT_EQ(*share.read(0, "f", 0), "zero");
  EXPECT_EQ(*share.read(1, "f", 0), "one");
}

TEST(FileShare, MissingFile) {
  FileShare share(2);
  EXPECT_FALSE(share.read(0, "nope", 0).has_value());
  EXPECT_FALSE(share.exists(1, "nope"));
  EXPECT_FALSE(share.file_size(0, "nope").has_value());
}

TEST(FileShare, ListIsSortedPerNode) {
  FileShare share(2);
  share.write(0, "b", "x");
  share.write(0, "a", "x");
  const auto names = share.list(0);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_TRUE(share.list(1).empty());
}

TEST(FileShare, ListIsSortedAfterOverwrites) {
  FileShare share(2);
  for (const char* name : {"9", "10", "2", "1"}) share.write(1, name, "x");
  share.write(1, "2", "longer");
  share.write(1, "0", "y");
  EXPECT_EQ(share.list(1), (std::vector<std::string>{"0", "1", "10", "2", "9"}));
  EXPECT_EQ(*share.read(1, "2", 1), "longer");
  EXPECT_EQ(*share.file_size(1, "2"), 6.0);
  EXPECT_EQ(share.stats().writes, 6u);
}

TEST(FileShare, TimingLocalBeatsRemote) {
  FileShare share(2);
  Rng rng(1);
  double local = 0.0, remote = 0.0;
  for (int i = 0; i < 100; ++i) {
    local += share.sample_read_time(5.0_MB, true, rng);
    remote += share.sample_read_time(5.0_MB, false, rng);
  }
  EXPECT_LT(local, remote);
}

TEST(FileShare, BoundsChecked) {
  FileShare share(2);
  EXPECT_THROW(share.write(2, "f", "x"), ppc::InvalidArgument);
  EXPECT_THROW(share.read(0, "f", -1), ppc::InvalidArgument);
  EXPECT_THROW(FileShare(0), ppc::InvalidArgument);
}

}  // namespace
}  // namespace ppc::dryad
