// In-process reproduction of the web-scale object store the paper's Classic
// Cloud framework keeps its data in (Amazon S3 / Azure Blob storage, §2.1.1).
//
// Semantics reproduced:
//  * bucket/key organization with put/get/list/delete over "HTTP";
//  * optional eventual consistency on read-after-write for *new* objects
//    (2010-era S3 US-Standard): a get issued too soon after the put may
//    return not-found, so workers must retry;
//  * transfer and request metering — S3 bills by stored bytes, transferred
//    bytes and request count; these feed Table 4's storage and data-transfer
//    line items;
//  * per-object CRC32C checksum (integrity) stamped at put, so readers can
//    detect a download corrupted in flight, and an ETag (identity) derived
//    on first read and memoized per object version: the content hash of a
//    real payload, or the identity hash of a logical object;
//  * a latency/bandwidth *timing model* the discrete-event workers sample
//    when deciding how long a download/upload takes. In real-thread mode
//    operations complete immediately (the data is in memory) and the model
//    is ignored.
//
// The same class is all three data planes of DESIGN.md §11: a
// BlobStoreConfig is one row of the model table (storage::model_row), and
// the rows differ only in their numbers. A row with no servers is the object
// store (per-connection bandwidth, usage-priced); a row with N servers is a
// file system whose N x per-server bandwidth is shared by the transfers
// inside the begin_transfer()/end_transfer() bracket, capped per client by
// its NIC, and priced as N server instances.
//
// Thread-safe; time comes from an injected ppc::Clock. Payloads are held as
// shared immutable strings, so get() hands back an aliasing pointer instead
// of copying the object, and the lock is sharded per bucket so concurrent
// workers hitting different buckets never serialize on one global mutex.
// Each bucket keeps its objects in a flat ppc::KeyIndex (the DES drivers
// hold 100k+ logical objects in one bucket); the index is unordered, so
// list() sorts the keys it returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault_hook.h"
#include "common/key_index.h"
#include "common/rng.h"
#include "common/trace_hook.h"
#include "common/units.h"
#include "storage/storage_backend.h"

namespace ppc::blobstore {

/// One data-plane model: a row of storage::model_row's table. The defaults
/// are the object-store row.
struct BlobStoreConfig {
  /// Mean per-request latency (HTTP round trip to the storage service).
  Seconds request_latency_mean = 0.08;
  /// Coefficient of variation applied to the request latency.
  double latency_cv = 0.25;
  /// Sustained throughput per server, or per connection when the row has
  /// no servers (pricing.num_servers == 0).
  Bytes read_bandwidth_per_s = 20.0 * 1024 * 1024;
  Bytes write_bandwidth_per_s = 10.0 * 1024 * 1024;
  /// One client NIC: caps a transfer's share of the servers' bandwidth.
  /// Unused without servers.
  Bytes client_bandwidth_per_s = 0.0;
  /// Mean delay before a newly put object is readable (0 = strong).
  Seconds read_after_write_lag_mean = 0.0;
  /// 2010-era pricing (S3: ~$0.14-0.15/GB-month, $0.10/GB in, $0.15/GB out,
  /// ~$0.01 per 10k GETs). Its num_servers is the row's server count; 0
  /// makes the row the uncontended, usage-priced object store.
  storage::StoragePricing pricing{.storage_cost_per_gb_month = 0.14,
                                  .transfer_in_cost_per_gb = 0.10,
                                  .transfer_out_cost_per_gb = 0.15,
                                  .cost_per_10k_requests = 0.01};
};

class BlobStore : public storage::StorageBackend {
 public:
  /// `kind` labels the row in reports; the behaviour comes from `config`.
  BlobStore(std::shared_ptr<const ppc::Clock> clock, BlobStoreConfig config = {},
            ppc::Rng rng = ppc::Rng(0xB10B),
            storage::StorageKind kind = storage::StorageKind::kObject);

  const BlobStoreConfig& config() const { return config_; }

  storage::StorageKind kind() const override { return kind_; }

  /// Installs a fault hook fired on every put/get/list (sites
  /// "blobstore.<bucket>.put" / ".get" / ".list"). A failing get reports
  /// not-found, a failing list reports an empty (lost) response, a failing
  /// or corrupted put is rejected like an S3 Content-MD5 mismatch, and a
  /// corrupted get delivers flipped bytes — detectable against checksum().
  /// Non-owning; pass nullptr to clear. The hook must outlive its use.
  void set_fault_hook(ppc::FaultHook* hook) override { hook_.store(hook); }

  /// Installs a trace hook (runtime::Tracer) that gets a span per
  /// put/get/list (sites "blobstore.<bucket>.put" / ".get" / ".list").
  /// Non-owning; nullptr clears. One relaxed atomic load per call when unset.
  void set_tracer(ppc::TraceHook* tracer) override { tracer_.store(tracer); }

  /// Creates a bucket; idempotent.
  void create_bucket(const std::string& bucket) override;

  bool bucket_exists(const std::string& bucket) const override;

  /// Stores an object (creates the bucket implicitly, as our framework's
  /// deployment step would have done). Overwrites are immediately visible;
  /// only brand-new keys suffer the read-after-write lag.
  void put(const std::string& bucket, const std::string& key, std::string data) override;

  /// Stores a *logical* object: no bytes are materialized, only a declared
  /// size. Used by the discrete-event drivers to model multi-GB datasets
  /// (e.g. Table 4's 4096 Cap3 files) without holding them in memory.
  /// Metering, visibility and head/list/remove behave exactly as for real
  /// objects; get() on a logical object returns an empty payload (one
  /// shared by every logical object). The etag is fnv1a64 of
  /// "logical:" + bucket + '\0' + key + '\0' + size — stable across
  /// processes — so content-addressed caching works for logical datasets
  /// too. Like a real payload's, it is derived on the first etag() call.
  void put_logical(const std::string& bucket, const std::string& key, Bytes size) override;

  /// Fetches the object, or null when absent / not yet visible. The result
  /// aliases the stored payload (zero-copy); it stays valid after overwrite
  /// or removal of the key (immutable snapshot semantics).
  std::shared_ptr<const std::string> get(const std::string& bucket,
                                         const std::string& key) override;

  /// Size of the object in bytes, or nullopt. Metered as a HEAD.
  std::optional<Bytes> head(const std::string& bucket, const std::string& key) override;

  /// True when the object exists and is visible. Metered as a HEAD.
  bool exists(const std::string& bucket, const std::string& key) override;

  /// Identity hash (fnv1a64 — our stand-in for the S3 ETag) of the stored
  /// object, or nullopt when absent / not yet visible. Unmetered and immune
  /// to injected faults: it models the ETag the service returned with the
  /// original upload. Content caches key on it. A real payload is hashed on
  /// the first call and the value memoized for that version, so objects
  /// nobody asks about (task outputs, shuffle spills) never pay for it; a
  /// logical object's identity tag is derived and memoized the same way.
  std::optional<std::uint64_t> etag(const std::string& bucket,
                                    const std::string& key) const override;

  /// CRC32C of the stored bytes, stamped at put (S3's CRC32C checksum
  /// header); nullopt when absent / not yet visible and for logical
  /// objects. Unmetered and fault-immune like etag(): readers check each
  /// download against it, and a get corrupted in flight fails the check.
  std::optional<std::uint32_t> checksum(const std::string& bucket,
                                        const std::string& key) const override;

  /// Removes the object; returns false when absent.
  bool remove(const std::string& bucket, const std::string& key) override;

  /// Keys in the bucket starting with `prefix`, sorted (only the matches
  /// are sorted). Lists see all committed objects (visibility lag applies
  /// to reads only).
  std::vector<std::string> list(const std::string& bucket,
                                const std::string& prefix = "") override;

  /// Total bytes currently stored (across buckets).
  Bytes stored_bytes() const override;

  storage::TransferMeter meter() const override;

  /// Request + transfer cost so far; storage cost is charged by the billing
  /// module per month of retention (see billing::CostModel).
  Dollars transfer_and_request_cost() const override;

  storage::StoragePricing pricing() const override { return config_.pricing; }

  // -- timing model (used by the simulation drivers) --

  /// Samples the wall time of a GET of `size` bytes.
  Seconds sample_get_time(Bytes size, ppc::Rng& rng) const override;

  /// Samples the wall time of a PUT of `size` bytes.
  Seconds sample_put_time(Bytes size, ppc::Rng& rng) const override;

  /// Counts bracketed transfers on a row with servers; the object store
  /// ignores the bracket.
  void begin_transfer() override;
  void end_transfer() override;
  int active_transfers() const override { return active_.load(std::memory_order_relaxed); }

 private:
  struct Object {
    std::shared_ptr<const std::string> data;  // immutable payload, shared with readers
    Bytes logical_size = 0.0;                 // == data->size() for real objects
    /// fnv1a64 of data (of the identity for a logical object), computed by
    /// the first etag() call and memoized for this version (a put resets it).
    std::optional<std::uint64_t> etag;
    /// crc32c of data; nullopt exactly for logical objects.
    std::optional<std::uint32_t> checksum;
    Seconds visible_at = 0.0;
  };

  /// One lock per bucket: workers on different buckets (jobs) proceed in
  /// parallel. Buckets are never destroyed, so a looked-up shared_ptr stays
  /// valid after the registry lock is released.
  struct Bucket {
    mutable std::mutex mu;
    ppc::KeyIndex<Object> objects;
  };

  /// latency + size / bandwidth, where a row with servers shares
  /// `bandwidth` per server across the active transfers and caps each
  /// share at the client NIC.
  Seconds transfer_time(Bytes size, Bytes bandwidth, ppc::Rng& rng) const;
  void put_impl(const std::string& bucket, const std::string& key, std::string data,
                Bytes logical_size, bool is_logical);
  /// get() minus the tracing bracket.
  std::shared_ptr<const std::string> get_impl(const std::string& bucket, const std::string& key);
  std::shared_ptr<Bucket> find_bucket(const std::string& bucket) const;
  std::shared_ptr<Bucket> get_or_create_bucket(const std::string& bucket);

  std::shared_ptr<const ppc::Clock> clock_;
  BlobStoreConfig config_;
  storage::StorageKind kind_;
  std::atomic<int> active_{0};
  std::atomic<ppc::FaultHook*> hook_{nullptr};
  std::atomic<ppc::TraceHook*> tracer_{nullptr};

  /// Guards the bucket registry only (shared for lookups, exclusive for
  /// bucket creation); per-object state is under each Bucket's mutex.
  mutable std::shared_mutex registry_mu_;
  std::map<std::string, std::shared_ptr<Bucket>> buckets_;

  /// Guards the meter and the visibility-lag RNG (leaf lock).
  mutable std::mutex meter_mu_;
  ppc::Rng rng_;
  storage::TransferMeter meter_;
};

}  // namespace ppc::blobstore
