#include "blobstore/blob_store.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/error.h"
#include "common/string_util.h"

namespace ppc::blobstore {

namespace {

/// The payload every logical object shares: it has no bytes to hold.
const std::shared_ptr<const std::string>& empty_payload() {
  static const auto kEmpty = std::make_shared<const std::string>();
  return kEmpty;
}

std::uint64_t logical_etag(const std::string& bucket, const std::string& key, Bytes size) {
  const std::string bytes = std::to_string(static_cast<std::uint64_t>(size));
  std::string identity;
  identity.reserve(8 + bucket.size() + key.size() + bytes.size() + 2);
  identity += "logical:";
  identity += bucket;
  identity += '\0';
  identity += key;
  identity += '\0';
  identity += bytes;
  return ppc::fnv1a64(identity);
}

}  // namespace

BlobStore::BlobStore(std::shared_ptr<const ppc::Clock> clock, BlobStoreConfig config, ppc::Rng rng,
                     storage::StorageKind kind)
    : clock_(std::move(clock)), config_(config), kind_(kind), rng_(rng) {
  PPC_REQUIRE(clock_ != nullptr, "BlobStore requires a clock");
  PPC_REQUIRE(config_.request_latency_mean >= 0.0, "latency must be >= 0");
  PPC_REQUIRE(config_.read_bandwidth_per_s > 0.0, "read bandwidth must be positive");
  PPC_REQUIRE(config_.write_bandwidth_per_s > 0.0, "write bandwidth must be positive");
  PPC_REQUIRE(config_.pricing.num_servers >= 0, "server count must be >= 0");
  PPC_REQUIRE(config_.pricing.num_servers == 0 || config_.client_bandwidth_per_s > 0.0,
              "client bandwidth must be positive");
}

std::shared_ptr<BlobStore::Bucket> BlobStore::find_bucket(const std::string& bucket) const {
  std::shared_lock lock(registry_mu_);
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? nullptr : it->second;
}

std::shared_ptr<BlobStore::Bucket> BlobStore::get_or_create_bucket(const std::string& bucket) {
  if (auto existing = find_bucket(bucket)) return existing;
  std::unique_lock lock(registry_mu_);
  auto [it, _] = buckets_.try_emplace(bucket, std::make_shared<Bucket>());
  return it->second;
}

void BlobStore::create_bucket(const std::string& bucket) {
  PPC_REQUIRE(!bucket.empty(), "bucket name must be non-empty");
  get_or_create_bucket(bucket);
}

bool BlobStore::bucket_exists(const std::string& bucket) const {
  return find_bucket(bucket) != nullptr;
}

void BlobStore::put(const std::string& bucket, const std::string& key, std::string data) {
  const auto size = static_cast<Bytes>(data.size());
  put_impl(bucket, key, std::move(data), size, /*is_logical=*/false);
}

void BlobStore::put_logical(const std::string& bucket, const std::string& key, Bytes size) {
  PPC_REQUIRE(size >= 0.0, "logical size must be >= 0");
  put_impl(bucket, key, std::string(), size, /*is_logical=*/true);
}

void BlobStore::put_impl(const std::string& bucket, const std::string& key, std::string data,
                         Bytes logical_size, bool is_logical) {
  PPC_REQUIRE(!bucket.empty() && !key.empty(), "bucket and key must be non-empty");
  ppc::TraceHook* tracer = tracer_.load(std::memory_order_relaxed);
  std::uint64_t span = 0;
  if (tracer != nullptr && tracer->tracing()) {
    span = tracer->op_begin("blobstore." + bucket + ".put", key);
  }
  if (ppc::FaultHook* hook = hook_.load()) {
    ppc::PayloadRef in_flight(&data);
    const ppc::FaultDecision d =
        hook->on_operation("blobstore." + bucket + ".put", key, &in_flight);
    // A corrupted upload is caught by the service's content checksum
    // (Content-MD5) and rejected just like a plain failed request; either
    // way nothing is stored and the caller must retry.
    if (d.fail || d.corrupted) {
      if (span != 0) tracer->op_end(span, /*failed=*/true);
      if (d.fail) throw ppc::Error("injected blobstore put failure: " + bucket + "/" + key);
      throw ppc::Error("blobstore put checksum mismatch (corrupted in flight): " + bucket +
                       "/" + key);
    }
  }
  // Real payloads get a CRC32C that readers verify downloads against; their
  // content-hash etag is left to the first etag() call. Logical objects have
  // no bytes, so they share one empty payload and no checksum.
  std::optional<std::uint32_t> checksum;
  if (!is_logical) checksum = ppc::crc32c(data);
  auto payload =
      is_logical ? empty_payload() : std::make_shared<const std::string>(std::move(data));
  auto b = get_or_create_bucket(bucket);
  Seconds lag = 0.0;
  {
    std::lock_guard lock(meter_mu_);
    ++meter_.puts;
    meter_.bytes_in += logical_size;
    if (config_.read_after_write_lag_mean > 0.0) {
      lag = rng_.exponential(config_.read_after_write_lag_mean);
    }
  }
  std::lock_guard lock(b->mu);
  auto [obj, inserted] = b->objects.try_emplace(key);
  obj->data = std::move(payload);
  obj->logical_size = logical_size;
  obj->etag.reset();
  obj->checksum = checksum;
  // Only a brand-new key suffers the read-after-write lag. An overwrite is
  // immediately visible (S3 gave read-after-write anomalies on new objects;
  // overwrites were eventually consistent too, but our framework never
  // overwrites, so we keep this simple and visible).
  obj->visible_at = clock_->now() + (inserted ? lag : 0.0);
  if (span != 0) tracer->op_end(span, /*failed=*/false);
}

std::shared_ptr<const std::string> BlobStore::get(const std::string& bucket,
                                                  const std::string& key) {
  ppc::TraceHook* tracer = tracer_.load(std::memory_order_relaxed);
  std::uint64_t span = 0;
  if (tracer != nullptr && tracer->tracing()) {
    span = tracer->op_begin("blobstore." + bucket + ".get", key);
  }
  auto result = get_impl(bucket, key);
  if (span != 0) tracer->op_end(span, /*failed=*/result == nullptr);
  return result;
}

std::shared_ptr<const std::string> BlobStore::get_impl(const std::string& bucket,
                                                       const std::string& key) {
  {
    std::lock_guard lock(meter_mu_);
    ++meter_.gets;
  }
  auto b = find_bucket(bucket);
  if (b == nullptr) return nullptr;
  std::shared_ptr<const std::string> data;
  Bytes size = 0.0;
  {
    std::lock_guard lock(b->mu);
    const Object* obj = b->objects.find(key);
    if (obj == nullptr) return nullptr;
    if (obj->visible_at > clock_->now()) return nullptr;  // not yet visible
    data = obj->data;
    size = obj->logical_size;
  }
  {
    std::lock_guard lock(meter_mu_);
    meter_.bytes_out += size;
  }
  if (ppc::FaultHook* hook = hook_.load()) {
    ppc::PayloadRef delivered(data.get());
    const ppc::FaultDecision d =
        hook->on_operation("blobstore." + bucket + ".get", key, &delivered);
    if (d.fail) return nullptr;  // response lost in flight
    if (d.corrupted) {
      // The stored object is intact; only this delivery carries flipped
      // bytes. Readers detect it by checking against checksum().
      return std::make_shared<const std::string>(delivered.take());
    }
  }
  return data;
}

std::optional<std::uint64_t> BlobStore::etag(const std::string& bucket,
                                             const std::string& key) const {
  auto b = find_bucket(bucket);
  if (b == nullptr) return std::nullopt;
  std::shared_ptr<const std::string> data;
  {
    std::lock_guard lock(b->mu);
    Object* obj = b->objects.find(key);
    if (obj == nullptr || obj->visible_at > clock_->now()) return std::nullopt;
    if (obj->etag.has_value()) return obj->etag;
    if (!obj->checksum.has_value()) {
      // Logical: no bytes to hash, so the tag is derived from the stable
      // identity (bucket, key, declared size). That keeps it deterministic
      // across runs and processes, which content-addressed caching depends
      // on. The identity is short, so it is hashed under the lock.
      obj->etag = logical_etag(bucket, key, obj->logical_size);
      return obj->etag;
    }
    data = obj->data;
  }
  // First read of this version: hash outside the lock. Racing first readers
  // all compute the same value; holding `data` keeps the version's address
  // from being reused, so the pointer test below publishes the hash only if
  // no overwrite replaced the version in the meantime.
  const std::uint64_t tag = ppc::fnv1a64(*data);
  std::lock_guard lock(b->mu);
  Object* obj = b->objects.find(key);
  if (obj != nullptr && obj->data == data) obj->etag = tag;
  return tag;
}

std::optional<std::uint32_t> BlobStore::checksum(const std::string& bucket,
                                                 const std::string& key) const {
  auto b = find_bucket(bucket);
  if (b == nullptr) return std::nullopt;
  std::lock_guard lock(b->mu);
  const Object* obj = b->objects.find(key);
  if (obj == nullptr || obj->visible_at > clock_->now()) return std::nullopt;
  return obj->checksum;
}

std::optional<Bytes> BlobStore::head(const std::string& bucket, const std::string& key) {
  {
    std::lock_guard lock(meter_mu_);
    // Metadata probe, not a download: billed as a request but kept distinct
    // from gets so cache-validation traffic is visible in the meter.
    ++meter_.heads;
  }
  auto b = find_bucket(bucket);
  if (b == nullptr) return std::nullopt;
  std::lock_guard lock(b->mu);
  const Object* obj = b->objects.find(key);
  if (obj == nullptr || obj->visible_at > clock_->now()) return std::nullopt;
  return obj->logical_size;
}

bool BlobStore::exists(const std::string& bucket, const std::string& key) {
  return head(bucket, key).has_value();
}

bool BlobStore::remove(const std::string& bucket, const std::string& key) {
  {
    std::lock_guard lock(meter_mu_);
    ++meter_.deletes;
  }
  auto b = find_bucket(bucket);
  if (b == nullptr) return false;
  std::lock_guard lock(b->mu);
  return b->objects.erase(key);
}

std::vector<std::string> BlobStore::list(const std::string& bucket, const std::string& prefix) {
  ppc::TraceHook* tracer = tracer_.load(std::memory_order_relaxed);
  std::uint64_t span = 0;
  if (tracer != nullptr && tracer->tracing()) {
    span = tracer->op_begin("blobstore." + bucket + ".list", prefix);
  }
  {
    std::lock_guard lock(meter_mu_);
    ++meter_.lists;
  }
  if (ppc::FaultHook* hook = hook_.load()) {
    const ppc::FaultDecision d =
        hook->on_operation("blobstore." + bucket + ".list", prefix, nullptr);
    if (d.fail) {
      if (span != 0) tracer->op_end(span, /*failed=*/true);
      return {};  // lost response: an empty page, caller re-lists
    }
  }
  std::vector<std::string> keys;
  auto b = find_bucket(bucket);
  if (b == nullptr) {
    if (span != 0) tracer->op_end(span, /*failed=*/false);
    return keys;
  }
  {
    std::lock_guard lock(b->mu);
    for (const auto& e : b->objects) {
      if (prefix.empty() || ppc::starts_with(e.key, prefix)) keys.push_back(e.key);
    }
  }
  // The index is unordered, so only the matches are sorted.
  std::sort(keys.begin(), keys.end());
  if (span != 0) tracer->op_end(span, /*failed=*/false);
  return keys;
}

Bytes BlobStore::stored_bytes() const {
  std::vector<std::shared_ptr<Bucket>> all;
  {
    std::shared_lock lock(registry_mu_);
    all.reserve(buckets_.size());
    for (const auto& [_, b] : buckets_) all.push_back(b);
  }
  Bytes total = 0.0;
  for (const auto& b : all) {
    std::lock_guard lock(b->mu);
    for (const auto& e : b->objects) total += e.value.logical_size;
  }
  return total;
}

storage::TransferMeter BlobStore::meter() const {
  std::lock_guard lock(meter_mu_);
  return meter_;
}

Dollars BlobStore::transfer_and_request_cost() const {
  std::lock_guard lock(meter_mu_);
  const storage::StoragePricing& p = config_.pricing;
  const double gb_in = to_gigabytes(meter_.bytes_in);
  const double gb_out = to_gigabytes(meter_.bytes_out);
  return gb_in * p.transfer_in_cost_per_gb + gb_out * p.transfer_out_cost_per_gb +
         static_cast<double>(meter_.requests()) / 10000.0 * p.cost_per_10k_requests;
}

Seconds BlobStore::transfer_time(Bytes size, Bytes bandwidth, ppc::Rng& rng) const {
  PPC_REQUIRE(size >= 0.0, "size must be >= 0");
  const Seconds latency = rng.jittered(config_.request_latency_mean, config_.latency_cv);
  const int servers = config_.pricing.num_servers;
  if (servers == 0) return latency + size / bandwidth;
  const int active = std::max(1, active_.load(std::memory_order_relaxed));
  const Bytes share = static_cast<double>(servers) * bandwidth / static_cast<double>(active);
  return latency + size / std::min(config_.client_bandwidth_per_s, share);
}

Seconds BlobStore::sample_get_time(Bytes size, ppc::Rng& rng) const {
  return transfer_time(size, config_.read_bandwidth_per_s, rng);
}

Seconds BlobStore::sample_put_time(Bytes size, ppc::Rng& rng) const {
  return transfer_time(size, config_.write_bandwidth_per_s, rng);
}

void BlobStore::begin_transfer() {
  if (config_.pricing.num_servers > 0) active_.fetch_add(1, std::memory_order_relaxed);
}

void BlobStore::end_transfer() {
  if (config_.pricing.num_servers > 0) active_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace ppc::blobstore
