// Worker-side block cache with content-addressed dedup.
//
// N BLAST workers each running T tasks would pay N*T downloads of the same
// NR database under the naive data plane. This cache sits between a worker
// and its StorageBackend: objects are identified by their etag (content
// address), split into fixed-size blocks, and kept in one block-granular
// LRU. A fetch whose etag is fully resident is served locally (zero backend
// traffic, `bytes_saved` grows); anything else revalidates with a HEAD,
// downloads with a GET, checks the bytes against the store's CRC32C, and
// inserts the blocks — evicting least-recently used blocks of colder
// objects to stay under capacity. A download that fails the check is never
// cached.
//
// Content addressing means dedup is free: two keys with identical bytes
// (or one key fetched by many tasks) share a single cache entry, and an
// overwritten object is detected immediately because its etag changes.
// Logical objects participate too — their (bucket, key, size)-derived etag
// is stable, and the cache accounts their declared size with phantom
// blocks — which is how the DES drivers model per-worker caching of
// multi-GB datasets without materializing them.
//
// Counters (hits/misses/evictions/insertions/bytes_saved) are mirrored
// into an optional MetricsRegistry under "<name>." and every fetch emits a
// "cache.<bucket>.hit" / "cache.<bucket>.miss" trace span (the miss span
// brackets the backend download). Thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace_hook.h"
#include "common/units.h"
#include "runtime/metrics.h"
#include "storage/storage_backend.h"

namespace ppc::storage {

struct BlockCacheConfig {
  /// Total payload bytes the cache may hold.
  Bytes capacity = 256.0 * 1024 * 1024;
  /// LRU granule. Objects occupy ceil(size / block_size) blocks; the last
  /// block is accounted at its partial size.
  Bytes block_size = 4.0 * 1024 * 1024;
  /// Metric scope: counters are registered as "<name>.hits" etc.
  std::string name = "blockcache";
};

class BlockCache {
 public:
  explicit BlockCache(BlockCacheConfig config = {},
                      runtime::MetricsRegistry* metrics = nullptr);

  const BlockCacheConfig& config() const { return config_; }

  /// Installs a trace hook emitting "cache.<bucket>.hit" / ".miss" spans.
  /// Non-owning; nullptr clears.
  void set_tracer(ppc::TraceHook* tracer) { tracer_.store(tracer); }

  struct FetchResult {
    /// The payload (aliases the stored object / cached snapshot); null when
    /// the object is absent or not yet visible.
    std::shared_ptr<const std::string> data;
    /// Logical size of the object (== data->size() for real payloads).
    Bytes size = 0.0;
    /// Served from cache without touching the backend's data path.
    bool hit = false;
    bool found = false;
  };

  /// Fetch-through: serves from cache when the object's etag is fully
  /// resident, otherwise revalidates (HEAD) + downloads (GET) through the
  /// backend and caches the blocks. Objects without a visible etag and
  /// objects larger than the capacity are passed through uncached.
  FetchResult fetch(StorageBackend& backend, const std::string& bucket, const std::string& key);

  /// Drops every cached block (counters are preserved).
  void clear();

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  std::uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  std::uint64_t insertions() const { return insertions_.load(std::memory_order_relaxed); }
  /// Backend bytes avoided by cache hits.
  Bytes bytes_saved() const;
  /// Payload bytes currently resident.
  Bytes cached_bytes() const;
  std::size_t cached_blocks() const;

 private:
  struct Entry;
  struct BlockRef {
    Entry* entry;
    std::size_t index;
  };
  struct Entry {
    std::uint64_t etag = 0;
    std::shared_ptr<const std::string> data;
    Bytes size = 0.0;
    std::size_t total_blocks = 0;
    /// Iterators into lru_ for each still-resident block; end() when that
    /// block was evicted.
    std::vector<std::list<BlockRef>::iterator> block_pos;
    std::size_t present_blocks = 0;
  };

  Bytes block_bytes(const Entry& entry, std::size_t index) const;
  void touch_locked(Entry& entry);
  void erase_entry_locked(Entry& entry);
  void evict_one_locked();
  void insert_locked(std::uint64_t etag, std::shared_ptr<const std::string> data, Bytes size);

  BlockCacheConfig config_;
  std::atomic<ppc::TraceHook*> tracer_{nullptr};

  mutable std::mutex mu_;
  /// MRU at the back, LRU at the front.
  std::list<BlockRef> lru_;
  std::map<std::uint64_t, Entry> entries_;
  Bytes cached_bytes_ = 0.0;
  double bytes_saved_ = 0.0;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> insertions_{0};

  // Looked up once; nullptr when no registry was given.
  runtime::Counter* m_hits_ = nullptr;
  runtime::Counter* m_misses_ = nullptr;
  runtime::Counter* m_evictions_ = nullptr;
  runtime::Counter* m_insertions_ = nullptr;
  runtime::Counter* m_bytes_saved_ = nullptr;
};

}  // namespace ppc::storage
