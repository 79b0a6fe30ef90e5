// Randomized corruption detection at every site that verifies delivered
// bytes: TaskLifecycle::fetch, the BlockCache fill, the shuffle's
// fetch_partition, and Message::intact(). Each case draws a payload of
// 1 B .. 256 KiB (log-uniform, so short payloads are well covered), then
// corrupts its first delivery with either one flipped bit or one burst of
// up to 32 bits — the error classes a CRC32C is guaranteed to catch. The
// site must reject the bad copy and recover the clean bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blobstore/blob_store.h"
#include "cloudq/message_queue.h"
#include "common/clock.h"
#include "common/fault_hook.h"
#include "common/rng.h"
#include "mapreduce/shuffle.h"
#include "runtime/metrics.h"
#include "runtime/task_lifecycle.h"
#include "storage/block_cache.h"

namespace ppc {
namespace {

constexpr int kSeeds = 1000;
constexpr std::size_t kMaxPayload = 256 * 1024;

/// Bits [first_bit, first_bit + width) of a payload, flipped where `pattern`
/// has a 1. A burst always flips its first and last bit, so its length is
/// exactly `width`.
struct Corruption {
  std::size_t first_bit = 0;
  std::uint32_t pattern = 1;
  int width = 1;

  void apply(std::string& bytes) const {
    for (int i = 0; i < width; ++i) {
      if (((pattern >> i) & 1u) == 0) continue;
      const std::size_t bit = first_bit + static_cast<std::size_t>(i);
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    }
  }
};

struct Case {
  std::string payload;
  Corruption corruption;
};

/// Case `seed` of a suite; `burst` selects a ≤32-bit burst instead of one
/// flipped bit. `pool` is a shared random buffer payloads are cut from.
Case draw_case(std::uint64_t seed, bool burst, const std::string& pool) {
  Rng rng(seed * 2 + (burst ? 1 : 0));
  const auto size = static_cast<std::size_t>(
      std::exp(rng.uniform(0.0, std::log(static_cast<double>(kMaxPayload)))));
  const std::size_t len = std::max<std::size_t>(1, std::min(size, kMaxPayload));
  const auto offset = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size() - len)));
  Case c;
  c.payload = pool.substr(offset, len);
  const std::size_t bits = len * 8;
  if (burst) {
    c.corruption.width = static_cast<int>(rng.uniform_int(1, std::min<std::int64_t>(32, bits)));
    const std::uint32_t middle = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t ends = 1u | (1u << (c.corruption.width - 1));
    const std::uint32_t mask =
        c.corruption.width == 32 ? ~0u : ((1u << c.corruption.width) - 1u);
    c.corruption.pattern = (middle | ends) & mask;
  }
  c.corruption.first_bit = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(bits) - c.corruption.width));
  return c;
}

const std::string& random_pool() {
  static const std::string pool = [] {
    Rng rng(0xB17F11B);
    std::string out(2 * kMaxPayload, '\0');
    for (auto& c : out) c = static_cast<char>(rng.next_u64() & 0xFF);
    return out;
  }();
  return pool;
}

/// Corrupts the first delivery of each registered key at sites ending in
/// ".get" or ".receive"; later deliveries pass clean.
class OneShotCorrupter : public FaultHook {
 public:
  void arm(const std::string& key, const Corruption& c) {
    std::lock_guard lock(mu_);
    pending_[key] = c;
  }

  std::size_t fired() const {
    std::lock_guard lock(mu_);
    return fired_;
  }

  FaultDecision on_operation(const std::string& site, const std::string& key,
                             PayloadRef* payload) override {
    FaultDecision decision;
    if (payload == nullptr) return decision;
    if (!site.ends_with(".get") && !site.ends_with(".receive")) return decision;
    std::lock_guard lock(mu_);
    const auto it = pending_.find(key);
    if (it == pending_.end()) return decision;
    std::string* copy = payload->mutate();
    if (copy == nullptr || copy->empty()) return decision;
    it->second.apply(*copy);
    pending_.erase(it);
    ++fired_;
    decision.corrupted = true;
    return decision;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Corruption> pending_;
  std::size_t fired_ = 0;
};

class CorruptionDetection : public ::testing::TestWithParam<bool> {};

TEST_P(CorruptionDetection, TaskLifecycleFetchRetriesAndReturnsCleanBytes) {
  const bool burst = GetParam();
  auto clock = std::make_shared<SystemClock>();
  blobstore::BlobStore store(clock);
  OneShotCorrupter hook;
  auto queue = std::make_shared<cloudq::MessageQueue>("tasks", clock);
  std::vector<std::string> expected(kSeeds);
  for (int seed = 0; seed < kSeeds; ++seed) {
    Case c = draw_case(static_cast<std::uint64_t>(seed), burst, random_pool());
    const std::string key = "k" + std::to_string(seed);
    hook.arm(key, c.corruption);
    expected[static_cast<std::size_t>(seed)] = c.payload;
    store.put("b", key, std::move(c.payload));
    queue->send(std::to_string(seed));
  }
  store.set_fault_hook(&hook);

  std::mutex mu;
  int clean = 0;
  int dirty = 0;
  runtime::LifecycleConfig config;
  config.poll_interval = 0.0005;
  config.visibility_timeout = 600.0;  // no redeliveries: one fetch per case
  config.receive_batch = 10;
  config.max_idle_polls = 20;
  config.fetch_retry = runtime::RetryPolicy::fixed(3, 0.0);
  runtime::TaskLifecycle worker(
      "w0", queue,
      [&](runtime::TaskContext& ctx) {
        const std::string& body = ctx.message().body();
        const auto data = ctx.fetch(store, "b", "k" + body);
        std::lock_guard lock(mu);
        if (data != nullptr && *data == expected[std::stoul(body)]) {
          ++clean;
        } else {
          ++dirty;
        }
        return runtime::TaskOutcome::kCompleted;
      },
      config);
  worker.start();
  worker.join();

  EXPECT_EQ(clean, kSeeds);
  EXPECT_EQ(dirty, 0);
  EXPECT_EQ(hook.fired(), static_cast<std::size_t>(kSeeds));
  // Exactly one rejected download per case: the corrupted first delivery.
  EXPECT_EQ(worker.counter(runtime::counters::kDownloadsMissed), kSeeds);
}

TEST_P(CorruptionDetection, BlockCacheNeverCachesTheBadCopy) {
  const bool burst = GetParam();
  auto clock = std::make_shared<ManualClock>();
  blobstore::BlobStore store(clock);
  OneShotCorrupter hook;
  store.set_fault_hook(&hook);
  storage::BlockCacheConfig config;
  config.capacity = 4.0 * kMaxPayload;
  config.block_size = 4096.0;
  storage::BlockCache cache(config);
  for (int seed = 0; seed < kSeeds; ++seed) {
    const Case c = draw_case(static_cast<std::uint64_t>(seed), burst, random_pool());
    const std::string key = "k" + std::to_string(seed);
    store.put("b", key, c.payload);
    hook.arm(key, c.corruption);
    // Short payloads repeat across seeds, and the cache dedups by content:
    // start each case cold so the first fetch must go to the store.
    cache.clear();

    const std::uint64_t insertions = cache.insertions();
    const auto bad = cache.fetch(store, "b", key);
    ASSERT_FALSE(bad.found) << "seed " << seed;
    ASSERT_EQ(cache.insertions(), insertions) << "seed " << seed;

    const auto refill = cache.fetch(store, "b", key);
    ASSERT_TRUE(refill.found && !refill.hit) << "seed " << seed;
    ASSERT_EQ(*refill.data, c.payload) << "seed " << seed;
    const auto hit = cache.fetch(store, "b", key);
    ASSERT_TRUE(hit.hit) << "seed " << seed;
    ASSERT_EQ(*hit.data, c.payload) << "seed " << seed;
  }
  EXPECT_EQ(hook.fired(), static_cast<std::size_t>(kSeeds));
}

TEST_P(CorruptionDetection, FetchPartitionCountsTheBadFetchAndRecovers) {
  const bool burst = GetParam();
  auto clock = std::make_shared<ManualClock>();
  blobstore::BlobStore store(clock);
  OneShotCorrupter hook;
  store.set_fault_hook(&hook);
  runtime::MetricsRegistry metrics;
  mapreduce::ShuffleHooks hooks;
  hooks.metrics = &metrics;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const Case c = draw_case(static_cast<std::uint64_t>(seed), burst, random_pool());
    mapreduce::MapOutputWriter writer(store, "shuffle", "job/m" + std::to_string(seed), seed, 0,
                                      1, /*spill_budget=*/0.0, {});
    writer.emit("key", c.payload);
    const mapreduce::MapOutput out = writer.finish();
    ASSERT_EQ(out.partitions[0].size(), 1u);
    const mapreduce::SpillInfo& spill = out.partitions[0][0];
    // The corruption was drawn for the value; fold it into the encoded
    // spill, which is at least as long.
    Corruption c2 = c.corruption;
    const auto spill_bits = static_cast<std::size_t>(spill.bytes) * 8;
    c2.first_bit %= spill_bits - static_cast<std::size_t>(c2.width - 1);
    hook.arm(spill.store_key, c2);

    const auto records = mapreduce::fetch_partition(store, "shuffle", out, seed, 0, hooks);
    ASSERT_EQ(records.size(), 1u) << "seed " << seed;
    ASSERT_EQ(records[0].value, c.payload) << "seed " << seed;
    ASSERT_EQ(metrics.counter_value("mapreduce.shuffle.corrupt_fetches"), seed + 1)
        << "seed " << seed;
  }
  EXPECT_EQ(hook.fired(), static_cast<std::size_t>(kSeeds));
}

TEST_P(CorruptionDetection, MessageIntactIsFalseForACorruptDelivery) {
  const bool burst = GetParam();
  auto clock = std::make_shared<ManualClock>();
  cloudq::MessageQueue queue("q", clock);
  OneShotCorrupter hook;
  queue.set_fault_hook(&hook);
  for (int seed = 0; seed < kSeeds; ++seed) {
    const Case c = draw_case(static_cast<std::uint64_t>(seed), burst, random_pool());
    const std::string id = queue.send(c.payload);
    hook.arm(id, c.corruption);

    const auto bad = queue.receive(30.0);
    ASSERT_TRUE(bad.has_value());
    ASSERT_NE(bad->body(), c.payload);
    ASSERT_FALSE(bad->intact()) << "seed " << seed;
    ASSERT_TRUE(queue.change_visibility(bad->receipt_handle, 0.0));

    const auto redelivered = queue.receive(30.0);
    ASSERT_TRUE(redelivered.has_value());
    ASSERT_TRUE(redelivered->intact()) << "seed " << seed;
    ASSERT_EQ(redelivered->body(), c.payload);
    ASSERT_TRUE(queue.delete_message(redelivered->receipt_handle));
  }
  EXPECT_EQ(hook.fired(), static_cast<std::size_t>(kSeeds));
}

INSTANTIATE_TEST_SUITE_P(BitFlipAndBurst, CorruptionDetection, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Burst") : std::string("SingleBit");
                         });

}  // namespace
}  // namespace ppc
