// BlockCache unit tests: fetch-through semantics, content-addressed dedup,
// phantom blocks for logical objects, corruption quarantine, and a
// randomized workload replayed against an independent reference model of
// the block-granular LRU (same promote-in-index-order discipline as
// BlockCache::touch_locked documents).
#include "storage/block_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "blobstore/blob_store.h"
#include "common/clock.h"
#include "common/fault_hook.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/units.h"
#include "runtime/metrics.h"

namespace ppc::storage {
namespace {

constexpr Bytes kBlock = 1024.0;

class BlockCacheTest : public ::testing::Test {
 protected:
  std::shared_ptr<ManualClock> clock_ = std::make_shared<ManualClock>();
  blobstore::BlobStore store_{clock_, {}, Rng(5)};

  BlockCacheConfig small_config(Bytes capacity) {
    BlockCacheConfig config;
    config.capacity = capacity;
    config.block_size = kBlock;
    return config;
  }
};

TEST_F(BlockCacheTest, MissThenHitServesFromCacheWithoutBackendTraffic) {
  BlockCache cache(small_config(8 * kBlock));
  store_.put("b", "k", std::string(2048, 'a'));

  const auto miss = cache.fetch(store_, "b", "k");
  ASSERT_TRUE(miss.found);
  EXPECT_FALSE(miss.hit);
  EXPECT_DOUBLE_EQ(miss.size, 2048.0);
  // The miss revalidated (HEAD) and downloaded (GET) through the backend.
  EXPECT_EQ(store_.meter().heads, 1u);
  EXPECT_EQ(store_.meter().gets, 1u);

  const auto hit = cache.fetch(store_, "b", "k");
  ASSERT_TRUE(hit.found);
  EXPECT_TRUE(hit.hit);
  // Zero-copy: the hit aliases the very snapshot the miss downloaded.
  EXPECT_EQ(hit.data.get(), miss.data.get());
  // A hit never touches the backend's data path.
  EXPECT_EQ(store_.meter().gets, 1u);
  EXPECT_DOUBLE_EQ(store_.meter().bytes_out, 2048.0);

  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.insertions(), 1u);
  EXPECT_DOUBLE_EQ(cache.bytes_saved(), 2048.0);
  EXPECT_DOUBLE_EQ(cache.cached_bytes(), 2048.0);
  EXPECT_EQ(cache.cached_blocks(), 2u);
}

TEST_F(BlockCacheTest, ContentDedupSharesOneEntryAcrossKeys) {
  BlockCache cache(small_config(8 * kBlock));
  const std::string payload(1500, 'd');
  store_.put("b", "k1", payload);
  store_.put("b", "k2", payload);

  EXPECT_FALSE(cache.fetch(store_, "b", "k1").hit);
  // Identical bytes under a different key: same etag, already resident.
  EXPECT_TRUE(cache.fetch(store_, "b", "k2").hit);
  EXPECT_DOUBLE_EQ(cache.cached_bytes(), 1500.0);
  EXPECT_DOUBLE_EQ(cache.bytes_saved(), 1500.0);
}

TEST_F(BlockCacheTest, OverwriteChangesEtagAndForcesRefetch) {
  BlockCache cache(small_config(8 * kBlock));
  store_.put("b", "k", "version-one");
  (void)cache.fetch(store_, "b", "k");
  store_.put("b", "k", "version-two!");

  const auto refetched = cache.fetch(store_, "b", "k");
  ASSERT_TRUE(refetched.found);
  EXPECT_FALSE(refetched.hit);  // stale entry is a different content address
  EXPECT_EQ(*refetched.data, "version-two!");
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_TRUE(cache.fetch(store_, "b", "k").hit);
}

TEST_F(BlockCacheTest, OversizeObjectPassesThroughUncached) {
  BlockCache cache(small_config(2 * kBlock));
  store_.put("b", "big", std::string(4096, 'x'));

  for (int round = 0; round < 2; ++round) {
    const auto r = cache.fetch(store_, "b", "big");
    ASSERT_TRUE(r.found);
    EXPECT_FALSE(r.hit);
  }
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.insertions(), 0u);
  EXPECT_DOUBLE_EQ(cache.cached_bytes(), 0.0);
}

TEST_F(BlockCacheTest, LogicalObjectsAreAccountedWithPhantomBlocks) {
  BlockCache cache(small_config(8 * kBlock));
  store_.put_logical("b", "dataset", 6 * kBlock);

  const auto miss = cache.fetch(store_, "b", "dataset");
  ASSERT_TRUE(miss.found);
  EXPECT_FALSE(miss.hit);
  // No bytes materialize, but the declared size occupies real cache budget
  // — which is what lets the DES model per-worker caching of multi-GB sets.
  ASSERT_TRUE(miss.data != nullptr);
  EXPECT_TRUE(miss.data->empty());
  EXPECT_DOUBLE_EQ(miss.size, 6 * kBlock);
  EXPECT_DOUBLE_EQ(cache.cached_bytes(), 6 * kBlock);
  EXPECT_EQ(cache.cached_blocks(), 6u);

  const auto hit = cache.fetch(store_, "b", "dataset");
  EXPECT_TRUE(hit.hit);
  EXPECT_DOUBLE_EQ(hit.size, 6 * kBlock);
  EXPECT_DOUBLE_EQ(cache.bytes_saved(), 6 * kBlock);
}

TEST_F(BlockCacheTest, InvisibleObjectsPassThroughWithoutCounting) {
  blobstore::BlobStoreConfig lagged;
  lagged.read_after_write_lag_mean = 10.0;
  blobstore::BlobStore store(clock_, lagged, Rng(5));
  BlockCache cache(small_config(8 * kBlock));
  store.put("b", "fresh", "vvv");

  // Inside the visibility lag there is no etag to address by; the cache
  // stays out of the way so the caller's retry loop sees the usual null.
  const auto r = cache.fetch(store, "b", "fresh");
  EXPECT_FALSE(r.found);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  clock_->advance(1e6);
  EXPECT_FALSE(cache.fetch(store, "b", "fresh").hit);
  EXPECT_TRUE(cache.fetch(store, "b", "fresh").hit);
}

/// Corrupts the first byte of every GET delivery while armed.
class CorruptingHook : public ppc::FaultHook {
 public:
  bool armed = true;
  FaultDecision on_operation(const std::string& site, const std::string&,
                             PayloadRef* payload) override {
    FaultDecision decision;
    if (!armed || payload == nullptr) return decision;
    if (site.size() >= 4 && site.rfind(".get") == site.size() - 4) {
      if (std::string* copy = payload->mutate(); copy != nullptr && !copy->empty()) {
        (*copy)[0] = static_cast<char>((*copy)[0] ^ 0x5a);
        decision.corrupted = true;
      }
    }
    return decision;
  }
};

TEST_F(BlockCacheTest, CorruptedDeliveryIsNeverCached) {
  BlockCache cache(small_config(8 * kBlock));
  CorruptingHook hook;
  store_.put("b", "k", "pristine-payload");
  store_.set_fault_hook(&hook);

  // The download fails its content address: reported as not-found (caller
  // retries), and — critically — no poisoned entry may enter the cache.
  const auto corrupted = cache.fetch(store_, "b", "k");
  EXPECT_FALSE(corrupted.found);
  EXPECT_EQ(corrupted.data, nullptr);
  EXPECT_EQ(cache.insertions(), 0u);
  EXPECT_DOUBLE_EQ(cache.cached_bytes(), 0.0);

  hook.armed = false;
  const auto clean = cache.fetch(store_, "b", "k");
  ASSERT_TRUE(clean.found);
  EXPECT_EQ(*clean.data, "pristine-payload");
  const auto served = cache.fetch(store_, "b", "k");
  EXPECT_TRUE(served.hit);
  EXPECT_EQ(*served.data, "pristine-payload");
}

TEST_F(BlockCacheTest, ClearDropsBlocksButKeepsCounters) {
  BlockCache cache(small_config(8 * kBlock));
  store_.put("b", "k", std::string(3000, 'c'));
  (void)cache.fetch(store_, "b", "k");
  (void)cache.fetch(store_, "b", "k");

  cache.clear();
  EXPECT_DOUBLE_EQ(cache.cached_bytes(), 0.0);
  EXPECT_EQ(cache.cached_blocks(), 0u);
  EXPECT_EQ(cache.hits(), 1u);  // lifetime counters survive
  EXPECT_DOUBLE_EQ(cache.bytes_saved(), 3000.0);
  EXPECT_FALSE(cache.fetch(store_, "b", "k").hit);
}

TEST_F(BlockCacheTest, LeastRecentlyUsedObjectIsEvictedFirst) {
  BlockCache cache(small_config(3 * kBlock));
  for (const char* key : {"a", "b", "c"}) {
    store_.put("b", key, std::string(static_cast<std::size_t>(kBlock), key[0]));
    (void)cache.fetch(store_, "b", key);
  }
  ASSERT_DOUBLE_EQ(cache.cached_bytes(), 3 * kBlock);

  // Touch "a": LRU order is now b, c, a.
  EXPECT_TRUE(cache.fetch(store_, "b", "a").hit);
  store_.put("b", "d", std::string(static_cast<std::size_t>(kBlock), 'd'));
  (void)cache.fetch(store_, "b", "d");  // evicts "b", the coldest object

  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.fetch(store_, "b", "a").hit);
  EXPECT_TRUE(cache.fetch(store_, "b", "c").hit);
  EXPECT_TRUE(cache.fetch(store_, "b", "d").hit);
  EXPECT_FALSE(cache.fetch(store_, "b", "b").hit);  // the victim refetches
}

TEST_F(BlockCacheTest, CountersMirrorIntoMetricsRegistry) {
  runtime::MetricsRegistry metrics;
  BlockCacheConfig config = small_config(8 * kBlock);
  config.name = "w0.blockcache";
  BlockCache cache(config, &metrics);
  store_.put("b", "k", std::string(2000, 'm'));
  (void)cache.fetch(store_, "b", "k");
  (void)cache.fetch(store_, "b", "k");

  EXPECT_EQ(metrics.counter_value("w0.blockcache.hits"), 1);
  EXPECT_EQ(metrics.counter_value("w0.blockcache.misses"), 1);
  EXPECT_EQ(metrics.counter_value("w0.blockcache.insertions"), 1);
  EXPECT_EQ(metrics.counter_value("w0.blockcache.bytes_saved"), 2000);
}

// -- randomized workload vs an independent reference model --

/// Reference model: per-object deque of still-resident block sizes (front =
/// least recently used block, always the lowest surviving index) plus a
/// global object order list (front = coldest object). Mirrors the contract
/// BlockCache documents — full residency hits, promote-in-index-order on
/// touch, wholesale replacement of partial entries, block-granular eviction
/// from the global LRU front — without sharing any code with it.
class ReferenceModel {
 public:
  explicit ReferenceModel(Bytes capacity, Bytes block) : capacity_(capacity), block_(block) {}

  /// Returns true for a hit, false for a miss; mutates the model state the
  /// way the cache specifies.
  bool fetch(std::uint64_t etag, Bytes size) {
    auto it = objects_.find(etag);
    const std::size_t total =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(size / block_)));
    if (it != objects_.end() && it->second.blocks.size() == total) {
      order_.splice(order_.end(), order_, it->second.pos);  // promote to MRU
      ++hits_;
      bytes_saved_ += size;
      return true;
    }
    ++misses_;
    if (it != objects_.end()) drop(it);  // partial entry: replaced wholesale
    if (size > capacity_) return false;  // oversize passes through
    while (!order_.empty() && cached_ + size > capacity_) evict_one();
    Object obj;
    for (std::size_t i = 0; i < total; ++i) {
      obj.blocks.push_back(i + 1 < total ? block_ : size - block_ * static_cast<double>(total - 1));
    }
    order_.push_back(etag);
    obj.pos = std::prev(order_.end());
    cached_ += size;
    objects_.emplace(etag, std::move(obj));
    ++insertions_;
    return false;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t insertions() const { return insertions_; }
  Bytes bytes_saved() const { return bytes_saved_; }
  Bytes cached_bytes() const { return cached_; }
  std::size_t cached_blocks() const {
    std::size_t n = 0;
    for (const auto& [etag, obj] : objects_) n += obj.blocks.size();
    return n;
  }

 private:
  struct Object {
    std::deque<Bytes> blocks;
    std::list<std::uint64_t>::iterator pos;
  };

  void drop(std::map<std::uint64_t, Object>::iterator it) {
    for (const Bytes b : it->second.blocks) cached_ -= b;
    order_.erase(it->second.pos);
    objects_.erase(it);
  }

  void evict_one() {
    auto it = objects_.find(order_.front());
    cached_ -= it->second.blocks.front();
    it->second.blocks.pop_front();
    ++evictions_;
    if (it->second.blocks.empty()) {
      order_.pop_front();
      objects_.erase(it);
    }
  }

  Bytes capacity_;
  Bytes block_;
  std::list<std::uint64_t> order_;
  std::map<std::uint64_t, Object> objects_;
  Bytes cached_ = 0.0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, insertions_ = 0;
  Bytes bytes_saved_ = 0.0;
};

TEST_F(BlockCacheTest, RandomizedWorkloadMatchesReferenceModel) {
  const Bytes capacity = 8 * kBlock;
  BlockCache cache(small_config(capacity));
  ReferenceModel model(capacity, kBlock);

  std::mt19937 gen(20260807);
  std::uniform_int_distribution<int> key_dist(0, 5);
  std::uniform_int_distribution<int> size_dist(1, static_cast<int>(3.5 * kBlock));
  std::uniform_int_distribution<int> op_dist(0, 9);

  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) keys.push_back("k" + std::to_string(i));
  std::uint64_t version = 0;
  for (const auto& key : keys) {
    store_.put("b", key, key + "#" + std::to_string(version++) +
                             std::string(static_cast<std::size_t>(size_dist(gen)), 'p'));
  }

  for (int step = 0; step < 4000; ++step) {
    const std::string& key = keys[static_cast<std::size_t>(key_dist(gen))];
    if (op_dist(gen) < 2) {
      // Overwrite: new content, new etag — the old entry goes cold.
      store_.put("b", key, key + "#" + std::to_string(version++) +
                               std::string(static_cast<std::size_t>(size_dist(gen)), 'p'));
      continue;
    }
    const auto stored = store_.get("b", key);
    ASSERT_TRUE(stored != nullptr);
    const bool expect_hit = model.fetch(ppc::fnv1a64(*stored), static_cast<Bytes>(stored->size()));

    const auto r = cache.fetch(store_, "b", key);
    ASSERT_TRUE(r.found) << "step " << step;
    ASSERT_EQ(r.hit, expect_hit) << "step " << step;
    ASSERT_EQ(*r.data, *stored) << "step " << step;
    ASSERT_EQ(cache.hits(), model.hits()) << "step " << step;
    ASSERT_EQ(cache.misses(), model.misses()) << "step " << step;
    ASSERT_EQ(cache.evictions(), model.evictions()) << "step " << step;
    ASSERT_EQ(cache.insertions(), model.insertions()) << "step " << step;
    ASSERT_DOUBLE_EQ(cache.cached_bytes(), model.cached_bytes()) << "step " << step;
    ASSERT_DOUBLE_EQ(cache.bytes_saved(), model.bytes_saved()) << "step " << step;
    ASSERT_EQ(cache.cached_blocks(), model.cached_blocks()) << "step " << step;
    ASSERT_LE(cache.cached_bytes(), capacity) << "step " << step;
  }
  // The workload must have exercised every interesting path.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
}

// The lazily computed etag must keep the fill's etag / checksum / etag
// re-read sound: an overwrite between the lookup and the checksum read is
// refused, never cached under the old version's address.

/// A store whose first checksum() read races a writer: it overwrites the
/// key just before answering, the interleaving the fill's re-read guards.
class OverwriteOnFirstChecksum : public blobstore::BlobStore {
 public:
  using BlobStore::BlobStore;
  std::optional<std::uint32_t> checksum(const std::string& bucket,
                                        const std::string& key) const override {
    if (!fired_) {
      fired_ = true;
      const_cast<OverwriteOnFirstChecksum*>(this)->put(bucket, key, "version-two!");
    }
    return BlobStore::checksum(bucket, key);
  }

 private:
  mutable bool fired_ = false;
};

TEST(LazyEtag, BlockCacheFillRefusesAnOverwriteBetweenEtagReads) {
  OverwriteOnFirstChecksum store(std::make_shared<ManualClock>());
  store.put("b", "k", "version-one");
  BlockCacheConfig config;
  config.capacity = 8 * kBlock;
  config.block_size = kBlock;
  BlockCache cache(config);
  const auto refused = cache.fetch(store, "b", "k");
  EXPECT_FALSE(refused.found);
  EXPECT_EQ(cache.insertions(), 0u);
  // The retry sees one consistent version and caches it under its own hash.
  const auto fetched = cache.fetch(store, "b", "k");
  ASSERT_TRUE(fetched.found);
  EXPECT_EQ(*fetched.data, "version-two!");
  EXPECT_EQ(store.etag("b", "k"), fnv1a64("version-two!"));
  EXPECT_TRUE(cache.fetch(store, "b", "k").hit);
}

TEST(LazyEtag, ConcurrentFillsNeverServeAStaleVersion) {
  blobstore::BlobStore store(std::make_shared<SystemClock>());
  const std::string v1(64 * 1024, '1');
  const std::string v2(64 * 1024, '2');
  store.put("b", "k", v1);
  BlockCacheConfig config;
  config.capacity = 1024 * kBlock;
  config.block_size = kBlock;
  BlockCache cache(config);
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const auto r = cache.fetch(store, "b", "k");
        if (r.found && *r.data != v1 && *r.data != v2) torn.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 200; ++i) store.put("b", "k", i % 2 == 0 ? v2 : v1);
  done.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0);
  // The last put wrote v1. An entry cached under the wrong address would
  // serve v2 here; the current version must come back, hit or miss.
  for (int i = 0; i < 3; ++i) {
    const auto r = cache.fetch(store, "b", "k");
    ASSERT_TRUE(r.found);
    EXPECT_EQ(*r.data, v1);
  }
}

}  // namespace
}  // namespace ppc::storage
