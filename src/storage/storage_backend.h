// Pluggable storage data plane — the backend contract every store implements.
//
// The paper prices each workload against exactly one data plane per cloud
// (S3 for EC2, Azure Blob for Azure). Juve et al. ("Data Sharing Options for
// Scientific Workflows on Amazon EC2") showed the storage-backend choice
// dominates workflow cost and runtime, so ppcloud factors the data plane
// behind this interface. One implementation, blobstore::BlobStore, models
// all three planes as rows of one table (storage::model_row in
// fs_backends.h):
//
//  * object — S3/Azure Blob: high per-request latency, per-connection
//    bandwidth that does not contend, per-GB transfer fees and per-request
//    fees;
//  * sharedfs — an NFS-style shared file system: millisecond latency, a
//    single server link whose effective per-reader bandwidth degrades as
//    1/N with concurrent transfers, priced as one server instance;
//  * parallelfs — a Lustre-style parallel file system: data striped across
//    K object servers, aggregate bandwidth K * per-server until the stripes
//    saturate, priced as K server instances.
//
// All three share the *semantic* data plane (bucket/key objects, zero-copy
// snapshot gets, read-after-write visibility, etags and CRC32C checksums,
// logical objects) and fire the identical FaultHook / TraceHook sites
// ("blobstore.<bucket>.put" / ".get" / ".list"), so chaos campaigns and
// Perfetto timelines work unchanged regardless of the selected backend.
// What varies is the row's numbers: the *timing* model (sample_get_time /
// sample_put_time plus the begin_transfer / end_transfer contention
// bracket) and the *pricing*.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault_hook.h"
#include "common/rng.h"
#include "common/trace_hook.h"
#include "common/units.h"

namespace ppc::storage {

/// Transfer/request accounting every backend keeps. S3 bills by stored
/// bytes, transferred bytes and request count; the shared/parallel FS
/// rows keep the same meter so Table 4 line items stay comparable.
/// HEAD-class requests (head / exists — cache validation traffic) are
/// counted separately from real downloads so request-cost breakdowns can
/// tell revalidation from data movement.
struct TransferMeter {
  Bytes bytes_in = 0.0;   // uploads into the store
  Bytes bytes_out = 0.0;  // downloads out of the store
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;  // including not-found
  std::uint64_t heads = 0;  // head()/exists() metadata probes
  std::uint64_t lists = 0;
  std::uint64_t deletes = 0;

  std::uint64_t requests() const { return puts + gets + heads + lists + deletes; }
};

/// Pricing knobs a backend exposes to billing::cost_model. The object store
/// charges per transferred GB and per request; the FS backends instead
/// charge for the server instances that host them (per hour, like any other
/// node in Table 4) and for provisioned storage.
struct StoragePricing {
  Dollars storage_cost_per_gb_month = 0.0;
  Dollars transfer_in_cost_per_gb = 0.0;
  Dollars transfer_out_cost_per_gb = 0.0;
  Dollars cost_per_10k_requests = 0.0;
  /// File-server instances backing the store (0 for the object store — its
  /// cost is entirely usage-based).
  int num_servers = 0;
  Dollars server_cost_per_hour = 0.0;
};

/// Which data-plane model a run uses; parsed from the CLI `--storage` flag.
enum class StorageKind { kObject, kSharedFs, kParallelFs };

inline const char* to_string(StorageKind kind) {
  switch (kind) {
    case StorageKind::kObject: return "object";
    case StorageKind::kSharedFs: return "sharedfs";
    case StorageKind::kParallelFs: return "parallelfs";
  }
  return "object";
}

inline StorageKind parse_storage_kind(const std::string& name) {
  if (name == "object") return StorageKind::kObject;
  if (name == "sharedfs") return StorageKind::kSharedFs;
  if (name == "parallelfs") return StorageKind::kParallelFs;
  throw ppc::InvalidArgument("unknown storage backend: " + name +
                             " (expected object|sharedfs|parallelfs)");
}

inline constexpr StorageKind kAllStorageKinds[] = {StorageKind::kObject, StorageKind::kSharedFs,
                                                   StorageKind::kParallelFs};

/// Abstract data plane. Implementations must be thread-safe; time comes
/// from an injected ppc::Clock. See blobstore::BlobStore for the reference
/// semantics each method must honor (the conformance suite in
/// tests/storage/ runs against every implementation).
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Stable identifier ("object", "sharedfs", "parallelfs") for reports.
  virtual StorageKind kind() const = 0;

  /// Installs a fault hook fired on every put/get/list (sites
  /// "blobstore.<bucket>.put" / ".get" / ".list" — identical across
  /// backends so chaos plans are backend-agnostic). Non-owning; nullptr
  /// clears.
  virtual void set_fault_hook(ppc::FaultHook* hook) = 0;

  /// Installs a trace hook with the same site taxonomy. Non-owning.
  virtual void set_tracer(ppc::TraceHook* tracer) = 0;

  virtual void create_bucket(const std::string& bucket) = 0;
  virtual bool bucket_exists(const std::string& bucket) const = 0;

  /// Stores an object (creates the bucket implicitly). Overwrites are
  /// immediately visible; only brand-new keys suffer read-after-write lag.
  virtual void put(const std::string& bucket, const std::string& key, std::string data) = 0;

  /// Stores a *logical* object: declared size, no materialized bytes. Its
  /// etag is derived from (bucket, key, size) so content-addressed caching
  /// works for multi-GB DES datasets too.
  virtual void put_logical(const std::string& bucket, const std::string& key, Bytes size) = 0;

  /// Fetches the object, or null when absent / not yet visible. The result
  /// aliases the stored payload (zero-copy snapshot semantics).
  virtual std::shared_ptr<const std::string> get(const std::string& bucket,
                                                 const std::string& key) = 0;

  /// Size of the object in bytes, or nullopt. Metered as a HEAD.
  virtual std::optional<Bytes> head(const std::string& bucket, const std::string& key) = 0;

  /// True when the object exists and is visible. Metered as a HEAD.
  virtual bool exists(const std::string& bucket, const std::string& key) = 0;

  /// Object identity (fnv1a64 ETag stand-in), or nullopt when absent / not
  /// yet visible. Content-derived for real payloads, (bucket, key, size)-
  /// derived for logical objects; the block cache uses it as the content
  /// address. Unmetered and immune to injected faults: it models the ETag
  /// the service returned with the original upload.
  virtual std::optional<std::uint64_t> etag(const std::string& bucket,
                                            const std::string& key) const = 0;

  /// CRC32C of the stored bytes (S3's x-amz-checksum-crc32c), stamped at
  /// put; readers check downloads against it. nullopt when absent / not yet
  /// visible, and for logical objects, which have no bytes. Unmetered and
  /// immune to injected faults, like etag().
  virtual std::optional<std::uint32_t> checksum(const std::string& bucket,
                                                const std::string& key) const = 0;

  /// Removes the object; returns false when absent.
  virtual bool remove(const std::string& bucket, const std::string& key) = 0;

  /// Keys in the bucket starting with `prefix`, sorted.
  virtual std::vector<std::string> list(const std::string& bucket,
                                        const std::string& prefix = "") = 0;

  /// Total bytes currently stored (across buckets).
  virtual Bytes stored_bytes() const = 0;

  virtual TransferMeter meter() const = 0;

  /// Usage-based (transfer + request) cost so far; zero for the FS
  /// backends, whose cost is the servers themselves (see service_cost()).
  virtual Dollars transfer_and_request_cost() const = 0;

  virtual StoragePricing pricing() const = 0;

  /// Cost of running the backend's own servers for `duration` — the FS
  /// equivalent of an instance-hours line item. Zero for the object store.
  Dollars service_cost(Seconds duration) const {
    const StoragePricing p = pricing();
    return static_cast<double>(p.num_servers) * p.server_cost_per_hour * (duration / 3600.0);
  }

  // -- timing model (used by the simulation drivers) --

  /// Samples the wall time of a GET of `size` bytes under the backend's
  /// *current* contention (see begin_transfer()).
  virtual Seconds sample_get_time(Bytes size, ppc::Rng& rng) const = 0;

  /// Samples the wall time of a PUT of `size` bytes.
  virtual Seconds sample_put_time(Bytes size, ppc::Rng& rng) const = 0;

  // -- contention bracket --
  //
  // The DES drivers bracket every modeled transfer with begin/end so
  // contended backends can degrade sample_*_time with the number of
  // concurrent transfers. The object store ignores the bracket: S3-class
  // services scale per-connection and one worker's download does not slow
  // another's (§2.1.1).

  virtual void begin_transfer() {}
  virtual void end_transfer() {}

  /// Transfers currently inside a begin/end bracket (0 for backends that
  /// do not track contention).
  virtual int active_transfers() const { return 0; }
};

}  // namespace ppc::storage
