// Shuffle primitives for the full MapReduce pipeline — the YTsaurus-style
// partition → spill → fetch → external-sort chain between map and reduce.
//
// The design follows the classic Hadoop/YTsaurus data path:
//  * mappers hash-partition keyed output (`partition_of`) and buffer it per
//    reducer; when the buffer exceeds a memory budget, each partition's
//    chunk is sorted and flushed as an immutable *spill object* through the
//    storage::StorageBackend interface (so spills are metered, cacheable,
//    and fault-injectable like every other byte the system moves);
//  * a completed map attempt's spill set is published in the in-memory
//    PartitionMapRegistry — registration IS the commit point, so a mapper
//    that crashed after spilling but before registering simply never
//    existed as far as reducers are concerned (its orphan spills are
//    garbage-collected);
//  * reducers fetch their partition from every registered map output
//    (`fetch_partition`), verifying each spill against its recorded CRC32C
//    checksum — a corrupted or lost fetch is retried and, when the retry
//    budget is exhausted, surfaces as MapOutputLost so the engine can
//    redrive the map task instead of hanging;
//  * the ExternalSorter merges everything under a memory budget: in-memory
//    sort when the partition fits, sorted-run spill + k-way merge when it
//    does not.
//
// Determinism contract: every record carries (map_id, seq) — the producing
// map task and its emission index — and the total order is
// (key, map_id, seq). Map functions are deterministic, so re-executed
// attempts emit identical sequences, which makes the merged stream (and
// therefore reduce output) byte-identical regardless of worker count, spill
// schedule, speculative twins, or mid-shuffle crash/redrive.
//
// Record storage: every stage holds its records in one RecordRun — record
// bytes in arena blocks plus a flat index of {bytes pointer, klen, vlen,
// map_id, seq, 8-byte big-endian key prefix}. A map-side buffer copies each
// emitted pair into its arena once. A fetched spill or re-read sort run is
// decoded to index entries that point into the immutable payload the store
// returned (the run keeps that payload alive), so no key or value is copied
// on the reduce side. Sorting permutes only the index, comparing the cached
// prefix before touching key bytes; the order is exactly (key, map_id, seq).
// The wire format, CRC32C values and budget accounting are unchanged by the
// layout, so spill and run bytes are what the encoder always produced.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/tracer.h"
#include "storage/storage_backend.h"

namespace ppc::mapreduce {

/// One shuffled record as an owning value — what tests and reference models
/// build. (map_id, seq) identifies the emission: map task `map_id` produced
/// it as its `seq`-th key/value pair. The pair breaks ties between equal
/// keys so the merged order is schedule-independent.
struct ShuffleRecord {
  std::string key;
  std::string value;
  std::uint32_t map_id = 0;
  std::uint32_t seq = 0;

  friend bool operator<(const ShuffleRecord& a, const ShuffleRecord& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.map_id != b.map_id) return a.map_id < b.map_id;
    return a.seq < b.seq;
  }
  friend bool operator==(const ShuffleRecord& a, const ShuffleRecord& b) {
    return a.key == b.key && a.map_id == b.map_id && a.seq == b.seq && a.value == b.value;
  }
};

/// A record inside a RecordRun; the views live as long as the run does.
struct RecordView {
  std::string_view key;
  std::string_view value;
  std::uint32_t map_id = 0;
  std::uint32_t seq = 0;
};

/// Approximate in-memory footprint of one buffered record, used against the
/// spill and sort budgets. Matches the reference model in the property tests.
inline Bytes record_footprint(std::size_t key_bytes, std::size_t value_bytes) {
  return static_cast<Bytes>(key_bytes + value_bytes + 16);
}

/// The shuffle's one record container (see "Record storage" above): the
/// map-side partition buffer, a fetched partition, the external sorter's
/// buffer and each re-read sort run are all RecordRuns.
class RecordRun {
 public:
  /// Copies the record's bytes into the run's arena. Keys and values must
  /// each be under 4 GiB.
  void append(std::string_view key, std::string_view value, std::uint32_t map_id,
              std::uint32_t seq);

  /// Decodes a spill/run payload (the encode() wire format) and appends its
  /// records as views into it; the run keeps `payload` alive. Throws
  /// ppc::Error on a malformed payload and then appends nothing.
  void append_decoded(std::shared_ptr<const std::string> payload);

  /// Appends records [begin, end) of `from` as views into its storage,
  /// which this run then keeps alive too. Copies no record bytes.
  void splice(const RecordRun& from, std::size_t begin, std::size_t end);

  /// Sorts the index into total record order (key, map_id, seq).
  void sort();

  /// The records in index order as length-prefixed frames
  /// "<klen> <vlen> <map_id> <seq>\n<key><value>", concatenated. Text
  /// prefixes keep spill payloads debuggable in tests and trace dumps while
  /// still carrying arbitrary binary key/value bytes.
  std::string encode() const;

  /// Drops every record and every kept payload; reuses the arena block.
  void clear();

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  Bytes footprint(std::size_t i) const {
    return record_footprint(index_[i].klen, index_[i].vlen);
  }
  RecordView operator[](std::size_t i) const { return view(index_[i]); }

 private:
  friend class ExternalSorter;

  struct Entry {
    const char* bytes;     // key bytes, then value bytes, in a kept block
    std::uint32_t klen;
    std::uint32_t vlen;
    std::uint32_t map_id;
    std::uint32_t seq;
    std::uint64_t prefix;  // first 8 key bytes, big-endian, zero-padded
  };
  /// Total record order with the prefix as the first, cheapest key test.
  static bool less(const Entry& a, const Entry& b);
  static RecordView view(const Entry& e) {
    return {{e.bytes, e.klen}, {e.bytes + e.klen, e.vlen}, e.map_id, e.seq};
  }

  std::vector<Entry> index_;
  /// Every block an entry may point into: arena blocks and kept payloads.
  std::vector<std::shared_ptr<const std::string>> blocks_;
  /// The arena block append() writes into; never grown past its capacity,
  /// so entry pointers into it stay valid. Not reused by clear() while
  /// another run (a copy, or a splice target) still keeps it.
  std::shared_ptr<std::string> arena_;
};

/// Reducer → partition assignment: FNV-1a of the key modulo the reducer
/// count, the same stable hash every other keyed surface in the repo uses.
int partition_of(std::string_view key, int num_partitions);

/// Spill wire format for owning records (RecordRun::encode on a run of
/// `records` in the given order) and its inverse. Decode throws ppc::Error
/// on a malformed payload: bad or non-canonical digits (a leading zero), a
/// length past the payload end, or a map id / seq above 32 bits.
std::string encode_records(const std::vector<ShuffleRecord>& records);
std::vector<ShuffleRecord> decode_records(const std::string& data);

/// Wire format for reduce outputs (and any plain key→value payload):
/// "<klen> <vlen>\n<key><value>" frames. Decode throws ppc::Error on a
/// malformed payload (a corruption that slipped past the checksum).
std::string encode_pairs(const std::vector<std::pair<std::string, std::string>>& pairs);
std::vector<std::pair<std::string, std::string>> decode_pairs(const std::string& data);

/// Descriptor of one spill object, as published in the partition map.
struct SpillInfo {
  std::string store_key;       // object key inside the shuffle bucket
  Bytes bytes = 0.0;           // encoded payload size
  std::uint32_t checksum = 0;  // crc32c of the encoded payload, always set at spill
  std::uint32_t records = 0;
};

/// A committed map attempt's output: per-partition spill lists, in spill
/// order. partitions.size() == num_reducers.
struct MapOutput {
  int attempt_id = 0;
  std::vector<std::vector<SpillInfo>> partitions;
};

/// Thrown by the fetch path when a map output cannot be served — missing
/// registration (mapper crashed before commit) or a spill that stays
/// corrupt/lost past the retry budget. The engine responds by redriving the
/// map task, never by hanging.
class MapOutputLost : public ppc::Error {
 public:
  explicit MapOutputLost(int map_id, const std::string& why)
      : ppc::Error("map output lost for m" + std::to_string(map_id) + ": " + why),
        map_id_(map_id) {}
  int map_id() const { return map_id_; }

 private:
  int map_id_;
};

/// The shuffle's commit ledger: map_id → committed MapOutput. In-memory and
/// engine-owned — the real Hadoop analog is the JobTracker's map-output
/// locations table. Thread-safe.
class PartitionMapRegistry {
 public:
  /// Publishes (or replaces, on redrive) a map task's output. This is the
  /// commit point for the map side of the shuffle.
  void register_output(int map_id, MapOutput output);

  /// Drops a registration (map-output loss injection / redrive prelude).
  void drop(int map_id);

  std::optional<MapOutput> lookup(int map_id) const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<int, MapOutput> outputs_;
};

/// Shared observability/fault plumbing threaded through the shuffle
/// primitives. All pointers borrowed; null members disable that layer.
struct ShuffleHooks {
  runtime::FaultInjector* faults = nullptr;
  runtime::MetricsRegistry* metrics = nullptr;
  runtime::Tracer* tracer = nullptr;
  std::string track;  // tracer track of the executing slot
};

/// Fault-injection sites owned by the shuffle pipeline. Spill/fetch fire
/// per storage operation (crash kills the attempt, error fails it, delay
/// stalls it); corrupt faults are armed on the storage layer's own
/// "blobstore.shuffle.get" site instead, exercising checksum detection.
namespace sites {
/// Fired before each spill-object put, keyed "m<map_id>:s<spill>".
inline const std::string kSpill = "mapreduce.spill";
/// Fired before each spill-object get on the reduce side, keyed
/// "m<map_id>:r<partition>".
inline const std::string kFetch = "mapreduce.fetch";
/// Fired between "spills durable" and "partition map registered", keyed
/// "<task>:<attempt>" — the crash window satellite 4 is about.
inline const std::string kMapRegister = "mapreduce.map_register";
/// Fired on the executor thread before each reduce attempt, keyed
/// "<partition>:<attempt>".
inline const std::string kReduceAttempt = "mapreduce.reduce_attempt";
}  // namespace sites

/// Map-side shuffle writer: buffers emitted (key, value) pairs per
/// partition, assigns (map_id, seq), and spills sorted runs through the
/// storage backend when the buffered footprint exceeds `spill_budget`
/// (0 = never spill early; everything flushes in finish()).
///
/// Spill objects are keyed "<key_prefix>/p<partition>/s<spill_index>" so an
/// attempt's whole output can be listed (and orphan-collected) by prefix.
/// Each spill is internally sorted by the total record order — the invariant
/// the reduce-side merge relies on.
class MapOutputWriter {
 public:
  MapOutputWriter(storage::StorageBackend& store, std::string bucket, std::string key_prefix,
                  int map_id, int attempt_id, int num_partitions, Bytes spill_budget,
                  const ShuffleHooks& hooks);

  /// Buffers one map-emitted pair; may trigger a spill of all partitions.
  void emit(const std::string& key, std::string value);

  /// Flushes remaining buffers and returns the attempt's MapOutput
  /// (ready for PartitionMapRegistry::register_output).
  MapOutput finish();

  int spills() const { return spill_count_; }
  Bytes spilled_bytes() const { return spilled_bytes_; }
  std::uint32_t records() const { return seq_; }

  /// Deletes every spill object under `key_prefix` — orphan collection for
  /// superseded speculative twins and crashed attempts.
  static void discard(storage::StorageBackend& store, const std::string& bucket,
                      const std::string& key_prefix);

 private:
  void spill_buffers();

  storage::StorageBackend& store_;
  std::string bucket_;
  std::string key_prefix_;
  int map_id_;
  int attempt_id_;
  Bytes spill_budget_;
  ShuffleHooks hooks_;

  std::vector<RecordRun> buffers_;                    // per partition
  std::vector<std::vector<SpillInfo>> spill_lists_;   // per partition
  std::vector<int> partition_spills_;                 // spill index per partition
  Bytes buffered_bytes_ = 0.0;
  Bytes spilled_bytes_ = 0.0;
  int spill_count_ = 0;
  std::uint32_t seq_ = 0;
};

struct FetchOptions {
  /// get() attempts per spill before the fetch declares the output lost.
  int max_attempts = 5;
};

/// Reduce-side fetch of partition `partition` from one committed map
/// output. Verifies every spill payload against its recorded checksum;
/// retries corrupt or missing reads (read-after-write lag, injected
/// corruption) up to `opts.max_attempts` before throwing MapOutputLost.
/// Returns the spills' records concatenated in spill order (each spill
/// internally sorted), as views into the fetched payloads.
RecordRun fetch_partition(storage::StorageBackend& store, const std::string& bucket,
                          const MapOutput& output, int map_id, int partition,
                          const ShuffleHooks& hooks, const FetchOptions& opts = {});

/// External sorter for one reducer's partition. add() buffers records;
/// when the buffered footprint exceeds `memory_budget` (> 0), the buffer is
/// sorted and spilled as a run object "<key_prefix>/run<i>" through the
/// storage backend. for_each_group() merges buffer + runs into one stream
/// in total record order and hands consecutive equal-key groups to the
/// callback as views (valid for the duration of the call).
class ExternalSorter {
 public:
  using GroupFn =
      std::function<void(std::string_view key, const std::vector<std::string_view>& values)>;

  ExternalSorter(storage::StorageBackend& store, std::string bucket, std::string key_prefix,
                 Bytes memory_budget, const ShuffleHooks& hooks);

  /// Buffers every record of `run` (a fetched partition) without copying
  /// its bytes; spills whenever the budget fills, exactly as if the records
  /// were added one by one.
  void add(const RecordRun& run);
  /// Buffers a copy of one record.
  void add(const ShuffleRecord& record);

  /// Merges and groups; calls `fn` once per distinct key, values in
  /// (map_id, seq) order. May be called once.
  void for_each_group(const GroupFn& fn);

  /// Removes this sorter's run objects from the store (call after
  /// for_each_group, including for superseded speculative attempts).
  void cleanup();

  int runs_spilled() const { return runs_spilled_; }
  Bytes spilled_bytes() const { return spilled_bytes_; }
  std::uint64_t records() const { return records_; }

 private:
  void spill_run();

  storage::StorageBackend& store_;
  std::string bucket_;
  std::string key_prefix_;
  Bytes memory_budget_;
  ShuffleHooks hooks_;

  RecordRun buffer_;
  std::vector<std::string> run_keys_;
  Bytes buffered_bytes_ = 0.0;
  Bytes spilled_bytes_ = 0.0;
  int runs_spilled_ = 0;
  std::uint64_t records_ = 0;
  bool finished_ = false;
};

}  // namespace ppc::mapreduce
