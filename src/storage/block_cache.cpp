#include "storage/block_cache.h"

#include <cmath>
#include <utility>

#include "common/crc32c.h"
#include "common/error.h"

namespace ppc::storage {

BlockCache::BlockCache(BlockCacheConfig config, runtime::MetricsRegistry* metrics)
    : config_(std::move(config)) {
  PPC_REQUIRE(config_.capacity > 0.0, "cache capacity must be > 0");
  PPC_REQUIRE(config_.block_size > 0.0, "block size must be > 0");
  if (metrics != nullptr) {
    m_hits_ = &metrics->counter(config_.name + ".hits");
    m_misses_ = &metrics->counter(config_.name + ".misses");
    m_evictions_ = &metrics->counter(config_.name + ".evictions");
    m_insertions_ = &metrics->counter(config_.name + ".insertions");
    m_bytes_saved_ = &metrics->counter(config_.name + ".bytes_saved");
  }
}

Bytes BlockCache::block_bytes(const Entry& entry, std::size_t index) const {
  if (entry.total_blocks == 0) return 0.0;
  if (index + 1 < entry.total_blocks) return config_.block_size;
  return entry.size - config_.block_size * static_cast<double>(entry.total_blocks - 1);
}

void BlockCache::touch_locked(Entry& entry) {
  // Promote every resident block to MRU, in index order — the reference
  // model in the tests mirrors this exact discipline.
  for (std::size_t i = 0; i < entry.total_blocks; ++i) {
    if (entry.block_pos[i] != lru_.end()) {
      lru_.splice(lru_.end(), lru_, entry.block_pos[i]);
    }
  }
}

void BlockCache::erase_entry_locked(Entry& entry) {
  for (std::size_t i = 0; i < entry.total_blocks; ++i) {
    if (entry.block_pos[i] != lru_.end()) {
      cached_bytes_ -= block_bytes(entry, i);
      lru_.erase(entry.block_pos[i]);
      entry.block_pos[i] = lru_.end();
    }
  }
  entry.present_blocks = 0;
}

void BlockCache::evict_one_locked() {
  const BlockRef ref = lru_.front();
  lru_.pop_front();
  Entry& entry = *ref.entry;
  entry.block_pos[ref.index] = lru_.end();
  --entry.present_blocks;
  cached_bytes_ -= block_bytes(entry, ref.index);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  if (m_evictions_ != nullptr) m_evictions_->inc();
  if (entry.present_blocks == 0) {
    const std::uint64_t dead = entry.etag;  // copy: the erase destroys `entry`
    entries_.erase(dead);
  }
}

void BlockCache::insert_locked(std::uint64_t etag, std::shared_ptr<const std::string> data,
                               Bytes size) {
  auto it = entries_.find(etag);
  if (it != entries_.end()) {
    // A partial (partly evicted) entry is replaced wholesale — per-block
    // refill is not a thing the backend's whole-object GET can express.
    erase_entry_locked(it->second);
    entries_.erase(it);
  }
  if (size > config_.capacity) return;  // oversize: pass through uncached

  while (!lru_.empty() && cached_bytes_ + size > config_.capacity) evict_one_locked();

  Entry& entry = entries_[etag];
  entry.etag = etag;
  entry.data = std::move(data);
  entry.size = size;
  entry.total_blocks =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(size / config_.block_size)));
  entry.block_pos.assign(entry.total_blocks, lru_.end());
  for (std::size_t i = 0; i < entry.total_blocks; ++i) {
    lru_.push_back(BlockRef{&entry, i});
    entry.block_pos[i] = std::prev(lru_.end());
  }
  entry.present_blocks = entry.total_blocks;
  cached_bytes_ += size;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (m_insertions_ != nullptr) m_insertions_->inc();
}

BlockCache::FetchResult BlockCache::fetch(StorageBackend& backend, const std::string& bucket,
                                          const std::string& key) {
  const auto tag = backend.etag(bucket, key);
  if (!tag.has_value()) {
    // No visible content address — absent, or still inside the visibility
    // lag. Pass through; a null get tells the caller to retry as usual.
    FetchResult result;
    result.data = backend.get(bucket, key);
    result.found = result.data != nullptr;
    result.size = result.found ? static_cast<Bytes>(result.data->size()) : 0.0;
    return result;
  }

  ppc::TraceHook* tracer = tracer_.load(std::memory_order_relaxed);

  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(*tag);
    if (it != entries_.end() && it->second.present_blocks == it->second.total_blocks) {
      touch_locked(it->second);
      bytes_saved_ += it->second.size;
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (m_hits_ != nullptr) m_hits_->inc();
      if (m_bytes_saved_ != nullptr) m_bytes_saved_->inc(std::llround(it->second.size));
      FetchResult result;
      result.data = it->second.data;
      result.size = it->second.size;
      result.hit = true;
      result.found = true;
      if (tracer != nullptr && tracer->tracing()) {
        // Instant span: a hit never leaves the worker.
        tracer->op_end(tracer->op_begin("cache." + bucket + ".hit", key), /*failed=*/false);
      }
      return result;
    }
  }

  std::uint64_t span = 0;
  if (tracer != nullptr && tracer->tracing()) {
    span = tracer->op_begin("cache." + bucket + ".miss", key);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (m_misses_ != nullptr) m_misses_->inc();

  // The checksum must describe the version `tag` names: re-read the etag
  // after it, so an overwrite since the lookup is caught here, and one after
  // it fails the download check below. Either way nothing is cached under
  // the wrong tag.
  const auto crc = backend.checksum(bucket, key);
  if (backend.etag(bucket, key) != tag) {
    if (span != 0) tracer->op_end(span, /*failed=*/true);
    return FetchResult{};  // overwritten or removed mid-fetch; caller retries
  }
  // Revalidate size (HEAD — covers logical objects whose payload is empty),
  // then download. Both are real metered backend traffic.
  const auto head_size = backend.head(bucket, key);
  auto data = backend.get(bucket, key);
  if (data == nullptr) {
    if (span != 0) tracer->op_end(span, /*failed=*/true);
    return FetchResult{};  // vanished between etag and get
  }
  // Never cache a delivery that fails its CRC32C: a download corrupted in
  // flight (fault hook) would otherwise be served as a "hit" to every later
  // task on this worker. Logical objects (empty payload, no checksum) have
  // no bytes to check.
  if (!data->empty() && (!crc.has_value() || ppc::crc32c(*data) != *crc)) {
    if (span != 0) tracer->op_end(span, /*failed=*/true);
    return FetchResult{};  // caller retries; the store copy is intact
  }
  const Bytes size = head_size.has_value() ? *head_size : static_cast<Bytes>(data->size());
  {
    std::lock_guard lock(mu_);
    insert_locked(*tag, data, size);
  }
  if (span != 0) tracer->op_end(span, /*failed=*/false);

  FetchResult result;
  result.data = std::move(data);
  result.size = size;
  result.found = true;
  return result;
}

void BlockCache::clear() {
  std::lock_guard lock(mu_);
  lru_.clear();
  entries_.clear();
  cached_bytes_ = 0.0;
}

Bytes BlockCache::bytes_saved() const {
  std::lock_guard lock(mu_);
  return bytes_saved_;
}

Bytes BlockCache::cached_bytes() const {
  std::lock_guard lock(mu_);
  return cached_bytes_;
}

std::size_t BlockCache::cached_blocks() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

}  // namespace ppc::storage
