#include "blobstore/blob_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/units.h"

namespace ppc::blobstore {
namespace {

class BlobStoreTest : public ::testing::Test {
 protected:
  std::shared_ptr<ManualClock> clock_ = std::make_shared<ManualClock>();

  BlobStore make_store(BlobStoreConfig config = {}) {
    return BlobStore(clock_, config, Rng(5));
  }
};

TEST_F(BlobStoreTest, PutGetRoundTrip) {
  auto store = make_store();
  store.put("bucket", "key", "payload");
  const auto got = store.get("bucket", "key");
  ASSERT_TRUE(got != nullptr);
  EXPECT_EQ(*got, "payload");
}

TEST_F(BlobStoreTest, GetAliasesStoredPayload) {
  auto store = make_store();
  store.put("bucket", "key", "payload");
  const auto first = store.get("bucket", "key");
  const auto second = store.get("bucket", "key");
  ASSERT_TRUE(first != nullptr);
  // Zero-copy: every get hands out a pointer to the one stored string.
  EXPECT_EQ(first.get(), second.get());
  // Snapshots stay valid (and unchanged) across overwrite and removal.
  store.put("bucket", "key", "replacement");
  EXPECT_EQ(*first, "payload");
  EXPECT_EQ(*store.get("bucket", "key"), "replacement");
  store.remove("bucket", "key");
  EXPECT_EQ(*first, "payload");
}

TEST_F(BlobStoreTest, GetMissingReturnsNothing) {
  auto store = make_store();
  EXPECT_EQ(store.get("bucket", "nope"), nullptr);
  store.create_bucket("bucket");
  EXPECT_EQ(store.get("bucket", "nope"), nullptr);
}

TEST_F(BlobStoreTest, PutCreatesBucketImplicitly) {
  auto store = make_store();
  store.put("b", "k", "v");
  EXPECT_TRUE(store.bucket_exists("b"));
}

TEST_F(BlobStoreTest, HeadAndExists) {
  auto store = make_store();
  store.put("b", "k", "12345");
  EXPECT_TRUE(store.exists("b", "k"));
  EXPECT_DOUBLE_EQ(*store.head("b", "k"), 5.0);
  EXPECT_FALSE(store.exists("b", "other"));
}

TEST_F(BlobStoreTest, RemoveDeletesObject) {
  auto store = make_store();
  store.put("b", "k", "v");
  EXPECT_TRUE(store.remove("b", "k"));
  EXPECT_FALSE(store.exists("b", "k"));
  EXPECT_FALSE(store.remove("b", "k"));
}

TEST_F(BlobStoreTest, ListByPrefixSorted) {
  auto store = make_store();
  store.put("b", "input/2", "x");
  store.put("b", "input/1", "x");
  store.put("b", "output/1", "x");
  const auto keys = store.list("b", "input/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "input/1");
  EXPECT_EQ(keys[1], "input/2");
  EXPECT_EQ(store.list("b").size(), 3u);
}

TEST_F(BlobStoreTest, OverwriteReplacesContent) {
  auto store = make_store();
  store.put("b", "k", "old");
  store.put("b", "k", "new");
  EXPECT_EQ(*store.get("b", "k"), "new");
}

TEST_F(BlobStoreTest, ReadAfterWriteLagHidesNewObjects) {
  BlobStoreConfig config;
  config.read_after_write_lag_mean = 10.0;
  auto store = make_store(config);
  int visible_immediately = 0;
  for (int i = 0; i < 20; ++i) {
    store.put("b", "k" + std::to_string(i), "v");
    if (store.get("b", "k" + std::to_string(i)) != nullptr) ++visible_immediately;
  }
  EXPECT_LT(visible_immediately, 20);  // some reads miss the fresh object
  clock_->advance(1000.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(store.get("b", "k" + std::to_string(i)) != nullptr);
  }
}

TEST_F(BlobStoreTest, OverwriteIsImmediatelyVisible) {
  BlobStoreConfig config;
  config.read_after_write_lag_mean = 1e6;
  auto store = make_store(config);
  store.put("b", "k", "old");
  clock_->advance(2e6);
  ASSERT_TRUE(store.get("b", "k") != nullptr);
  store.put("b", "k", "new");  // overwrite: no lag
  EXPECT_EQ(*store.get("b", "k"), "new");
}

TEST_F(BlobStoreTest, MeterTracksTransfersAndRequests) {
  auto store = make_store();
  store.put("b", "k", std::string(100, 'x'));
  (void)store.get("b", "k");
  (void)store.get("b", "missing");
  (void)store.list("b");
  store.remove("b", "k");
  const auto meter = store.meter();
  EXPECT_EQ(meter.puts, 1u);
  EXPECT_EQ(meter.gets, 2u);
  EXPECT_EQ(meter.lists, 1u);
  EXPECT_EQ(meter.deletes, 1u);
  EXPECT_DOUBLE_EQ(meter.bytes_in, 100.0);
  EXPECT_DOUBLE_EQ(meter.bytes_out, 100.0);
}

TEST_F(BlobStoreTest, LogicalObjectsMeterDeclaredSize) {
  auto store = make_store();
  store.put_logical("b", "big", 2.0_GB);
  EXPECT_DOUBLE_EQ(*store.head("b", "big"), 2.0_GB);
  const auto got = store.get("b", "big");
  ASSERT_TRUE(got != nullptr);
  EXPECT_TRUE(got->empty());  // no bytes materialized
  EXPECT_DOUBLE_EQ(store.meter().bytes_out, 2.0_GB);
  EXPECT_DOUBLE_EQ(store.stored_bytes(), 2.0_GB);
}

TEST_F(BlobStoreTest, TransferCostFollows2010Pricing) {
  auto store = make_store();
  store.put_logical("b", "in", 1.0_GB);
  (void)store.get("b", "in");
  // 1 GB in at $0.10 + 1 GB out at $0.15 + 2 requests.
  EXPECT_NEAR(store.transfer_and_request_cost(), 0.25 + 2.0 / 10000.0 * 0.01, 1e-6);
}

TEST_F(BlobStoreTest, TimingModelScalesWithSize) {
  auto store = make_store();
  Rng rng(9);
  RunningStats small, large;
  for (int i = 0; i < 200; ++i) {
    small.add(store.sample_get_time(1.0_MB, rng));
    large.add(store.sample_get_time(100.0_MB, rng));
  }
  EXPECT_GT(large.mean(), small.mean() * 10);
  EXPECT_GT(small.min(), 0.0);
}

TEST_F(BlobStoreTest, UploadSlowerThanDownload) {
  auto store = make_store();
  Rng rng(9);
  RunningStats up, down;
  for (int i = 0; i < 200; ++i) {
    up.add(store.sample_put_time(50.0_MB, rng));
    down.add(store.sample_get_time(50.0_MB, rng));
  }
  EXPECT_GT(up.mean(), down.mean());
}

TEST_F(BlobStoreTest, BucketsAreIsolated) {
  auto store = make_store();
  store.put("jobA", "input/f", "A-data");
  store.put("jobB", "input/f", "B-data");
  EXPECT_EQ(*store.get("jobA", "input/f"), "A-data");
  EXPECT_EQ(*store.get("jobB", "input/f"), "B-data");
  store.remove("jobA", "input/f");
  EXPECT_FALSE(store.exists("jobA", "input/f"));
  EXPECT_TRUE(store.exists("jobB", "input/f"));
  EXPECT_EQ(store.list("jobA").size(), 0u);
  EXPECT_EQ(store.list("jobB").size(), 1u);
}

TEST_F(BlobStoreTest, StoredBytesTracksRemovals) {
  auto store = make_store();
  store.put("b", "k1", std::string(100, 'x'));
  store.put("b", "k2", std::string(50, 'y'));
  EXPECT_DOUBLE_EQ(store.stored_bytes(), 150.0);
  store.remove("b", "k1");
  EXPECT_DOUBLE_EQ(store.stored_bytes(), 50.0);
  store.put("b", "k2", std::string(10, 'z'));  // overwrite shrinks
  EXPECT_DOUBLE_EQ(store.stored_bytes(), 10.0);
}

TEST_F(BlobStoreTest, ListIsSortedAfterOverwritesAndRemovals) {
  auto store = make_store();
  for (const char* key : {"input/t7", "output/t3", "input/t10", "input/t2", "output/t1"}) {
    store.put_logical("b", key, 1.0);
  }
  store.put("b", "input/t2", "overwritten");
  store.remove("b", "output/t1");  // the newest key
  store.remove("b", "input/t7");   // the oldest key
  store.put_logical("b", "input/t7", 2.0);
  store.put_logical("b", "input/t0", 3.0);
  EXPECT_EQ(store.list("b"), (std::vector<std::string>{"input/t0", "input/t10", "input/t2",
                                                       "input/t7", "output/t3"}));
  EXPECT_EQ(store.list("b", "input/t1"), (std::vector<std::string>{"input/t10"}));
  EXPECT_EQ(*store.get("b", "input/t2"), "overwritten");
}

TEST_F(BlobStoreTest, StoredBytesIsIdenticalAcrossIdenticalRuns) {
  // Fractional logical sizes make the sum depend on the order it is taken
  // in, so two runs of one sequence must visit the objects in one order.
  const auto run = [this] {
    auto store = make_store();
    Rng rng(17);
    for (int i = 0; i < 3000; ++i) {
      const std::string key = "input/t" + std::to_string(rng.uniform_int(0, 999));
      if (rng.uniform() < 0.2) {
        store.remove(i % 2 == 0 ? "a" : "b", key);
      } else {
        store.put_logical(i % 2 == 0 ? "a" : "b", key, rng.uniform(0.0, 1e6) / 3.0);
      }
    }
    return store.stored_bytes();
  };
  const Bytes first = run();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(first, run());
}

TEST_F(BlobStoreTest, RejectsEmptyNames) {
  auto store = make_store();
  EXPECT_THROW(store.put("", "k", "v"), InvalidArgument);
  EXPECT_THROW(store.put("b", "", "v"), InvalidArgument);
  EXPECT_THROW(store.create_bucket(""), InvalidArgument);
}

// The etag of an object is derived on the first etag() call and memoized
// per object version. These tests run under TSan in CI.

TEST(LazyEtag, EqualsTheContentHashAfterPutAndOverwrite) {
  BlobStore store(std::make_shared<ManualClock>());
  store.put("b", "k", "version-one");
  EXPECT_EQ(store.etag("b", "k"), fnv1a64("version-one"));
  EXPECT_EQ(store.etag("b", "k"), fnv1a64("version-one"));  // memoized
  store.put("b", "k", "version-two");
  EXPECT_EQ(store.etag("b", "k"), fnv1a64("version-two"));
  store.put("b", "k", "");
  EXPECT_EQ(store.etag("b", "k"), fnv1a64(""));
  // An overwrite before anyone read the etag resets nothing stale either.
  store.put("b", "k", "version-three");
  store.put("b", "k", "version-four");
  EXPECT_EQ(store.etag("b", "k"), fnv1a64("version-four"));
  EXPECT_FALSE(store.etag("b", "missing").has_value());
}

// A logical object has no bytes: its etag is the hash of its identity,
// derived on the first etag() call. Pinned to the literal identity string so
// content-addressed caches keep their keys across versions of this code.
TEST(LazyEtag, LogicalEtagIsTheIdentityHash) {
  BlobStore store(std::make_shared<ManualClock>());
  store.put_logical("job", "input/t7", 1.0_GB);
  const std::uint64_t want = fnv1a64(std::string("logical:job\0input/t7\0", 21) + "1073741824");
  EXPECT_EQ(store.etag("job", "input/t7"), want);
  EXPECT_EQ(store.etag("job", "input/t7"), want);  // memoized
  EXPECT_FALSE(store.checksum("job", "input/t7").has_value());
  EXPECT_EQ(*store.get("job", "input/t7"), "");
  // An overwrite with a new size is a new identity.
  store.put_logical("job", "input/t7", 2.0_GB);
  EXPECT_EQ(store.etag("job", "input/t7"),
            fnv1a64(std::string("logical:job\0input/t7\0", 21) + "2147483648"));
  // Real bytes over a logical object take the content hash, and back again.
  store.put("job", "input/t7", "bytes");
  EXPECT_EQ(store.etag("job", "input/t7"), fnv1a64("bytes"));
  store.put_logical("job", "input/t7", 1.0_GB);
  EXPECT_EQ(store.etag("job", "input/t7"), want);
  // A real empty payload is not logical: content hash and a checksum.
  store.put("job", "empty", "");
  EXPECT_EQ(store.etag("job", "empty"), fnv1a64(""));
  EXPECT_TRUE(store.checksum("job", "empty").has_value());
}

TEST(LazyEtag, RacingFirstReadersAllGetTheSameValue) {
  BlobStore store(std::make_shared<SystemClock>());
  // Big enough that the first hash takes a while, so first reads overlap.
  std::string payload(1 << 20, 'a');
  for (std::size_t i = 0; i < payload.size(); i += 97) payload[i] = static_cast<char>(i);
  const std::uint64_t want = fnv1a64(payload);
  for (int round = 0; round < 4; ++round) {
    const std::string key = "k" + std::to_string(round);
    store.put("b", key, payload);
    std::atomic<bool> go{false};
    std::vector<std::uint64_t> got(8, 0);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < got.size(); ++t) {
      readers.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        got[t] = store.etag("b", key).value_or(0);
      });
    }
    go.store(true);
    for (auto& r : readers) r.join();
    for (const std::uint64_t tag : got) EXPECT_EQ(tag, want);
    EXPECT_EQ(store.etag("b", key), want);
  }
}

TEST(LazyEtag, AnOverwriteDuringTheFirstHashIsNeverMemoizedForTheNewVersion) {
  BlobStore store(std::make_shared<SystemClock>());
  const std::string v1(256 * 1024, 'x');
  const std::string v2(256 * 1024, 'y');
  const std::uint64_t t1 = fnv1a64(v1);
  const std::uint64_t t2 = fnv1a64(v2);
  store.put("b", "k", v1);
  // Readers keep hashing whatever version is current; a reader that finishes
  // after the writer's next put must not tag that put's version with the
  // hash of the one it read.
  std::atomic<bool> done{false};
  std::atomic<long> calls{0};
  std::vector<std::thread> readers;
  std::atomic<int> bad{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const auto tag = store.etag("b", "k");
        if (tag != t1 && tag != t2) bad.fetch_add(1);
        calls.fetch_add(1);
      }
    });
  }
  int stale = 0;
  for (int i = 0; i < 100; ++i) {
    const bool odd = i % 2 == 1;
    store.put("b", "k", odd ? v1 : v2);
    // Let every reader that was hashing the previous version finish, so
    // its answer has had the chance to be (wrongly) memoized.
    const long seen = calls.load();
    while (calls.load() < seen + 8) std::this_thread::yield();
    if (store.etag("b", "k") != (odd ? t1 : t2)) ++stale;
  }
  done.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(store.etag("b", "k"), t1);  // the last put wrote v1
}

}  // namespace
}  // namespace ppc::blobstore
