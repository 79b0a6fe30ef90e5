// Backend-conformance suite: every StorageBackend implementation must honor
// the reference object semantics (visibility lag, overwrite visibility,
// zero-copy aliasing, etags, CRC32C checksums, metering) and fire the
// identical fault-hook sites, so chaos plans and caches are backend-agnostic.
// The suite runs against all three model rows via make_backend;
// row-specific timing, contention, and pricing behavior is covered by the
// non-parameterized tests below it.
#include "storage/fs_backends.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "common/fault_hook.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/units.h"
#include "storage/storage_backend.h"

namespace ppc::storage {
namespace {

/// Scripted hook: records every site it sees and corrupts / fails when told.
class ScriptedHook : public ppc::FaultHook {
 public:
  bool corrupt_gets = false;
  bool fail_gets = false;
  std::vector<std::string> sites;

  FaultDecision on_operation(const std::string& site, const std::string&,
                             PayloadRef* payload) override {
    sites.push_back(site);
    FaultDecision decision;
    if (site.size() >= 4 && site.rfind(".get") == site.size() - 4) {
      if (fail_gets) decision.fail = true;
      if (corrupt_gets && payload != nullptr) {
        if (std::string* copy = payload->mutate(); copy != nullptr && !copy->empty()) {
          (*copy)[0] = static_cast<char>((*copy)[0] ^ 0x5a);
          decision.corrupted = true;
        }
      }
    }
    return decision;
  }
};

class StorageConformanceTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  std::shared_ptr<ManualClock> clock_ = std::make_shared<ManualClock>();

  std::unique_ptr<StorageBackend> make_store() { return make_backend(GetParam(), clock_, Rng(5)); }

  /// The row under test with read-after-write lag enabled (the FS rows
  /// default to close-to-open consistency).
  std::unique_ptr<StorageBackend> make_lagged_store(Seconds lag_mean) {
    blobstore::BlobStoreConfig row = model_row(GetParam());
    row.read_after_write_lag_mean = lag_mean;
    return std::make_unique<blobstore::BlobStore>(clock_, row, Rng(5), GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, StorageConformanceTest,
                         ::testing::ValuesIn(kAllStorageKinds),
                         [](const ::testing::TestParamInfo<StorageKind>& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(StorageConformanceTest, KindMatchesFactorySelector) {
  EXPECT_EQ(make_store()->kind(), GetParam());
  EXPECT_EQ(parse_storage_kind(to_string(GetParam())), GetParam());
}

TEST_P(StorageConformanceTest, PutGetRoundTripWithZeroCopyAliasing) {
  auto store = make_store();
  store->put("b", "k", "payload");
  const auto first = store->get("b", "k");
  const auto second = store->get("b", "k");
  ASSERT_TRUE(first != nullptr);
  EXPECT_EQ(*first, "payload");
  // Zero-copy snapshot semantics: every get aliases the one stored string,
  // and a handed-out snapshot survives overwrite and removal unchanged.
  EXPECT_EQ(first.get(), second.get());
  store->put("b", "k", "replacement");
  EXPECT_EQ(*first, "payload");
  EXPECT_EQ(*store->get("b", "k"), "replacement");
  store->remove("b", "k");
  EXPECT_EQ(*first, "payload");
}

TEST_P(StorageConformanceTest, NewKeysSufferVisibilityLagOverwritesDoNot) {
  auto store = make_lagged_store(10.0);
  store->put("b", "fresh", "v1");
  // Brand-new key: not yet readable (eventual consistency).
  EXPECT_EQ(store->get("b", "fresh"), nullptr);
  EXPECT_FALSE(store->exists("b", "fresh"));
  clock_->advance(1e6);
  ASSERT_TRUE(store->get("b", "fresh") != nullptr);
  // Overwrite of a visible key: immediately readable, new content.
  store->put("b", "fresh", "v2");
  ASSERT_TRUE(store->get("b", "fresh") != nullptr);
  EXPECT_EQ(*store->get("b", "fresh"), "v2");
}

TEST_P(StorageConformanceTest, HeadAndExistsAreMeteredAsHeadsNotGets) {
  auto store = make_store();
  store->put("b", "k", "12345");
  EXPECT_DOUBLE_EQ(*store->head("b", "k"), 5.0);
  EXPECT_TRUE(store->exists("b", "k"));
  EXPECT_FALSE(store->exists("b", "missing"));
  const TransferMeter meter = store->meter();
  EXPECT_EQ(meter.heads, 3u);
  EXPECT_EQ(meter.gets, 0u);
  // Metadata probes move no payload bytes.
  EXPECT_DOUBLE_EQ(meter.bytes_out, 0.0);
  EXPECT_EQ(meter.requests(), 4u);  // 1 put + 3 heads
}

TEST_P(StorageConformanceTest, MeterAccountsEveryOperationClass) {
  auto store = make_store();
  store->put("b", "k", std::string(100, 'x'));
  (void)store->get("b", "k");
  (void)store->get("b", "missing");
  (void)store->head("b", "k");
  (void)store->list("b");
  store->remove("b", "k");
  const TransferMeter meter = store->meter();
  EXPECT_EQ(meter.puts, 1u);
  EXPECT_EQ(meter.gets, 2u);
  EXPECT_EQ(meter.heads, 1u);
  EXPECT_EQ(meter.lists, 1u);
  EXPECT_EQ(meter.deletes, 1u);
  EXPECT_DOUBLE_EQ(meter.bytes_in, 100.0);
  EXPECT_DOUBLE_EQ(meter.bytes_out, 100.0);
  EXPECT_EQ(meter.requests(), 6u);
}

TEST_P(StorageConformanceTest, ContentEtagMatchesPayloadHash) {
  auto store = make_store();
  store->put("b", "k", "payload");
  ASSERT_TRUE(store->etag("b", "k").has_value());
  EXPECT_EQ(*store->etag("b", "k"), ppc::fnv1a64("payload"));
  store->put("b", "k", "other");
  EXPECT_EQ(*store->etag("b", "k"), ppc::fnv1a64("other"));
}

TEST_P(StorageConformanceTest, ChecksumIsCrc32cOfTheStoredBytes) {
  auto store = make_lagged_store(10.0);
  EXPECT_FALSE(store->checksum("b", "k").has_value());  // absent
  store->put("b", "k", "payload");
  // Like etag(), the checksum follows read-after-write visibility.
  EXPECT_FALSE(store->checksum("b", "k").has_value());
  clock_->advance(1e6);
  ASSERT_TRUE(store->checksum("b", "k").has_value());
  EXPECT_EQ(*store->checksum("b", "k"), ppc::crc32c("payload"));
  store->put("b", "k", "other");
  EXPECT_EQ(*store->checksum("b", "k"), ppc::crc32c("other"));
  // Logical objects have no bytes, so no checksum — only an identity etag.
  store->put_logical("b", "dataset", 2.0_GB);
  clock_->advance(1e6);
  EXPECT_TRUE(store->etag("b", "dataset").has_value());
  EXPECT_FALSE(store->checksum("b", "dataset").has_value());
}

TEST_P(StorageConformanceTest, LogicalEtagIsStableAcrossInstancesAndSizes) {
  auto store_a = make_store();
  auto store_b = make_store();
  store_a->put_logical("b", "dataset", 2.0_GB);
  store_b->put_logical("b", "dataset", 2.0_GB);
  ASSERT_TRUE(store_a->etag("b", "dataset").has_value());
  // Content addressing for logical objects: the (bucket, key, size) identity
  // must hash identically in any process, or cross-worker dedup would break.
  EXPECT_EQ(*store_a->etag("b", "dataset"), *store_b->etag("b", "dataset"));
  store_b->put_logical("b", "dataset", 4.0_GB);
  EXPECT_NE(*store_a->etag("b", "dataset"), *store_b->etag("b", "dataset"));
}

// Buckets are hash-indexed, so list() must sort what it returns: insert 1,000
// keys in shuffled order under two prefixes and list each.
TEST_P(StorageConformanceTest, ListByPrefixSorted) {
  auto store = make_store();
  std::vector<std::string> keys;
  for (const std::size_t i : Rng(7).permutation(1000)) {
    keys.push_back((i % 3 == 0 ? "output/" : "input/") + std::to_string(i));
  }
  for (const std::string& key : keys) {
    if (key.size() % 2 == 0) {
      store->put("b", key, "x");
    } else {
      store->put_logical("b", key, 1.0_MB);
    }
  }
  const std::set<std::string> all(keys.begin(), keys.end());
  const std::vector<std::string> listed = store->list("b");
  EXPECT_EQ(listed, std::vector<std::string>(all.begin(), all.end()));
  std::vector<std::string> inputs;
  for (const std::string& key : all) {
    if (key.starts_with("input/")) inputs.push_back(key);
  }
  EXPECT_EQ(store->list("b", "input/"), inputs);
  EXPECT_EQ(store->list("b", "output/").size(), all.size() - inputs.size());
  EXPECT_TRUE(store->list("b", "none/").empty());
}

TEST_P(StorageConformanceTest, FaultHookSitesAreIdenticalAcrossBackends) {
  auto store = make_store();
  ScriptedHook hook;
  store->set_fault_hook(&hook);
  store->put("b", "k", "v");
  (void)store->get("b", "k");
  (void)store->list("b");
  // The site taxonomy is part of the backend contract: a chaos plan armed
  // against "blobstore.b.get" must chase every data plane the same way.
  EXPECT_EQ(hook.sites,
            (std::vector<std::string>{"blobstore.b.put", "blobstore.b.get", "blobstore.b.list"}));
}

TEST_P(StorageConformanceTest, CorruptedDeliveryIsDetectableAgainstEtag) {
  auto store = make_store();
  ScriptedHook hook;
  hook.corrupt_gets = true;
  store->put("b", "k", "payload");
  store->set_fault_hook(&hook);
  const auto delivered = store->get("b", "k");
  ASSERT_TRUE(delivered != nullptr);
  EXPECT_NE(*delivered, "payload");
  // etag() models the checksum recorded at upload: it is immune to the
  // injected fault, so readers can always detect the corruption.
  EXPECT_EQ(*store->etag("b", "k"), ppc::fnv1a64("payload"));
  EXPECT_NE(ppc::fnv1a64(*delivered), *store->etag("b", "k"));
  // checksum() is what readers verify against, and it is just as immune.
  EXPECT_EQ(*store->checksum("b", "k"), ppc::crc32c("payload"));
  EXPECT_NE(ppc::crc32c(*delivered), *store->checksum("b", "k"));
  // The stored object is untouched; a clean retry succeeds.
  store->set_fault_hook(nullptr);
  EXPECT_EQ(*store->get("b", "k"), "payload");
}

TEST_P(StorageConformanceTest, FailedGetReportsNotFound) {
  auto store = make_store();
  ScriptedHook hook;
  hook.fail_gets = true;
  store->put("b", "k", "payload");
  store->set_fault_hook(&hook);
  EXPECT_EQ(store->get("b", "k"), nullptr);
  store->set_fault_hook(nullptr);
  EXPECT_EQ(*store->get("b", "k"), "payload");
}

TEST_P(StorageConformanceTest, SampleTimesGrowWithSize) {
  auto store = make_store();
  Rng rng(9);
  double small = 0.0, large = 0.0;
  for (int i = 0; i < 100; ++i) {
    small += store->sample_get_time(1.0_MB, rng);
    large += store->sample_get_time(64.0_MB, rng);
  }
  EXPECT_LT(small, large);
  EXPECT_GT(store->sample_put_time(1.0_MB, rng), 0.0);
}

// -- backend-specific timing, contention, and pricing --

class StorageTimingTest : public ::testing::Test {
 protected:
  std::shared_ptr<ManualClock> clock_ = std::make_shared<ManualClock>();
  Rng rng_{11};

  /// The row of `kind` with zero latency and zero jitter, so sampled times
  /// reduce to size / effective_bandwidth exactly.
  std::unique_ptr<StorageBackend> make_store(StorageKind kind) {
    blobstore::BlobStoreConfig row = model_row(kind);
    row.request_latency_mean = 0.0;
    row.latency_cv = 0.0;
    return std::make_unique<blobstore::BlobStore>(clock_, row, Rng(5), kind);
  }

  static void set_active(StorageBackend& store, int n) {
    for (int i = 0; i < n; ++i) store.begin_transfer();
  }
};

TEST_F(StorageTimingTest, ObjectStoreIgnoresContentionBracket) {
  auto store = make_store(StorageKind::kObject);
  const Seconds alone = store->sample_get_time(100.0_MB, rng_);
  const Seconds put_alone = store->sample_put_time(100.0_MB, rng_);
  set_active(*store, 128);
  // S3-class semantics: per-connection bandwidth, no shared link.
  EXPECT_EQ(store->active_transfers(), 0);
  EXPECT_DOUBLE_EQ(store->sample_get_time(100.0_MB, rng_), alone);
  EXPECT_DOUBLE_EQ(store->sample_put_time(100.0_MB, rng_), put_alone);
}

TEST_F(StorageTimingTest, SharedFsDegradesAsOneOverActiveReaders) {
  auto store = make_store(StorageKind::kSharedFs);
  const blobstore::BlobStoreConfig fs = model_row(StorageKind::kSharedFs);
  // Alone: the client NIC is the bottleneck, not the idle server link.
  EXPECT_DOUBLE_EQ(store->sample_get_time(120.0_MB, rng_),
                   120.0_MB / fs.client_bandwidth_per_s);
  EXPECT_DOUBLE_EQ(store->sample_put_time(120.0_MB, rng_),
                   120.0_MB / fs.client_bandwidth_per_s);
  // Two writers: half the 250 MB/s write link still exceeds the NIC.
  set_active(*store, 2);
  EXPECT_DOUBLE_EQ(store->sample_put_time(120.0_MB, rng_),
                   120.0_MB / fs.client_bandwidth_per_s);
  // 128 concurrent transfers: the single server link collapses to 1/128th.
  set_active(*store, 126);
  EXPECT_EQ(store->active_transfers(), 128);
  EXPECT_DOUBLE_EQ(store->sample_get_time(120.0_MB, rng_),
                   120.0_MB / (fs.read_bandwidth_per_s / 128.0));
  EXPECT_DOUBLE_EQ(store->sample_put_time(120.0_MB, rng_),
                   120.0_MB / (fs.write_bandwidth_per_s / 128.0));
}

TEST_F(StorageTimingTest, ParallelFsSustainsAggregateBandwidthUntilStripesSaturate) {
  auto store = make_store(StorageKind::kParallelFs);
  const blobstore::BlobStoreConfig fs = model_row(StorageKind::kParallelFs);
  // Alone: client NIC-bound.
  EXPECT_DOUBLE_EQ(store->sample_get_time(200.0_MB, rng_),
                   200.0_MB / fs.client_bandwidth_per_s);
  EXPECT_DOUBLE_EQ(store->sample_put_time(200.0_MB, rng_),
                   200.0_MB / fs.client_bandwidth_per_s);
  // Eight writers: an eighth of K * per-server write bandwidth still
  // exceeds the NIC.
  set_active(*store, 8);
  EXPECT_DOUBLE_EQ(store->sample_put_time(200.0_MB, rng_),
                   200.0_MB / fs.client_bandwidth_per_s);
  // 128 transfers share K * per-server aggregate bandwidth.
  set_active(*store, 120);
  const Bytes aggregate = fs.pricing.num_servers * fs.read_bandwidth_per_s;
  EXPECT_DOUBLE_EQ(store->sample_get_time(200.0_MB, rng_), 200.0_MB / (aggregate / 128.0));
  const Bytes write_aggregate = fs.pricing.num_servers * fs.write_bandwidth_per_s;
  EXPECT_DOUBLE_EQ(store->sample_put_time(200.0_MB, rng_),
                   200.0_MB / (write_aggregate / 128.0));
}

TEST_F(StorageTimingTest, BackendOrderingMatchesTheDesignedRegimes) {
  auto object = make_store(StorageKind::kObject);
  auto sharedfs = make_store(StorageKind::kSharedFs);
  auto parallelfs = make_store(StorageKind::kParallelFs);
  const Bytes size = 1.0_GB;

  // Small N (one reader): both file systems beat the object store's
  // 20 MB/s-per-connection HTTP path.
  const Seconds obj_alone = object->sample_get_time(size, rng_);
  EXPECT_LT(sharedfs->sample_get_time(size, rng_), obj_alone);
  EXPECT_LT(parallelfs->sample_get_time(size, rng_), obj_alone);

  // At 128 concurrent readers the shared FS collapses below the object
  // store (which does not contend), while the parallel FS still leads.
  for (auto* s : {sharedfs.get(), parallelfs.get()}) set_active(*s, 128);
  const Seconds obj = object->sample_get_time(size, rng_);
  const Seconds shared = sharedfs->sample_get_time(size, rng_);
  const Seconds parallel = parallelfs->sample_get_time(size, rng_);
  EXPECT_LT(parallel, obj);
  EXPECT_GT(shared, obj);
}

TEST(StoragePricingTest, ObjectStoreBillsUsageFsBackendsBillServers) {
  auto clock = std::make_shared<ManualClock>();
  const auto object = make_backend(StorageKind::kObject, clock, Rng(5));
  const auto sharedfs = make_backend(StorageKind::kSharedFs, clock, Rng(5));
  const auto parallelfs = make_backend(StorageKind::kParallelFs, clock, Rng(5));

  // Object store: usage fees, no servers.
  object->put_logical("b", "in", 1.0_GB);
  (void)object->get("b", "in");
  EXPECT_GT(object->transfer_and_request_cost(), 0.0);
  EXPECT_EQ(object->pricing().num_servers, 0);
  EXPECT_DOUBLE_EQ(object->service_cost(3600.0), 0.0);

  // FS backends: zero usage fees, server-hours instead. The shared FS runs
  // one server, the parallel FS a 16-server stripe set — which is exactly
  // why it is the cheaper option only at small scale.
  sharedfs->put_logical("b", "in", 1.0_GB);
  (void)sharedfs->get("b", "in");
  EXPECT_DOUBLE_EQ(sharedfs->transfer_and_request_cost(), 0.0);
  EXPECT_EQ(sharedfs->pricing().num_servers, 1);
  EXPECT_DOUBLE_EQ(sharedfs->service_cost(3600.0), sharedfs->pricing().server_cost_per_hour);
  EXPECT_EQ(parallelfs->pricing().num_servers, 16);
  EXPECT_DOUBLE_EQ(parallelfs->service_cost(1800.0),
                   16 * parallelfs->pricing().server_cost_per_hour * 0.5);
  EXPECT_LT(sharedfs->service_cost(3600.0), parallelfs->service_cost(3600.0));
}

TEST(StorageKindTest, ParseRejectsUnknownNames) {
  EXPECT_THROW(parse_storage_kind("nfs"), ppc::InvalidArgument);
  EXPECT_THROW(parse_storage_kind(""), ppc::InvalidArgument);
  for (const StorageKind kind : kAllStorageKinds) {
    EXPECT_EQ(parse_storage_kind(to_string(kind)), kind);
  }
}

}  // namespace
}  // namespace ppc::storage
