#include "mapreduce/shuffle.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "common/crc32c.h"
#include "common/string_util.h"

namespace ppc::mapreduce {

int partition_of(const std::string& key, int num_partitions) {
  PPC_REQUIRE(num_partitions >= 1, "num_partitions must be >= 1");
  return static_cast<int>(fnv1a64(key) % static_cast<std::uint64_t>(num_partitions));
}

std::string encode_records(const std::vector<ShuffleRecord>& records) {
  std::string out;
  std::size_t total = 0;
  for (const auto& r : records) total += r.key.size() + r.value.size() + 32;
  out.reserve(total);
  for (const auto& r : records) {
    out += std::to_string(r.key.size());
    out += ' ';
    out += std::to_string(r.value.size());
    out += ' ';
    out += std::to_string(r.map_id);
    out += ' ';
    out += std::to_string(r.seq);
    out += '\n';
    out += r.key;
    out += r.value;
  }
  return out;
}

namespace {

// Parses an unsigned decimal at `pos`, advancing it past the digits.
// Throws ppc::Error on anything that is not a digit run.
std::uint64_t parse_u64(const std::string& data, std::size_t& pos, const char* what) {
  const std::size_t start = pos;
  std::uint64_t v = 0;
  while (pos < data.size() && data[pos] >= '0' && data[pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(data[pos] - '0');
    ++pos;
  }
  if (pos == start) throw Error(std::string("malformed shuffle frame: bad ") + what);
  return v;
}

void expect_char(const std::string& data, std::size_t& pos, char c) {
  if (pos >= data.size() || data[pos] != c) {
    throw Error("malformed shuffle frame: missing separator");
  }
  ++pos;
}

}  // namespace

std::vector<ShuffleRecord> decode_records(const std::string& data) {
  std::vector<ShuffleRecord> records;
  std::size_t pos = 0;
  while (pos < data.size()) {
    ShuffleRecord r;
    const std::uint64_t klen = parse_u64(data, pos, "key length");
    expect_char(data, pos, ' ');
    const std::uint64_t vlen = parse_u64(data, pos, "value length");
    expect_char(data, pos, ' ');
    r.map_id = static_cast<std::uint32_t>(parse_u64(data, pos, "map id"));
    expect_char(data, pos, ' ');
    r.seq = static_cast<std::uint32_t>(parse_u64(data, pos, "seq"));
    expect_char(data, pos, '\n');
    if (pos + klen + vlen > data.size()) {
      throw Error("malformed shuffle frame: truncated payload");
    }
    r.key = data.substr(pos, klen);
    pos += klen;
    r.value = data.substr(pos, vlen);
    pos += vlen;
    records.push_back(std::move(r));
  }
  return records;
}

std::string encode_pairs(const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out;
  for (const auto& [k, v] : pairs) {
    out += std::to_string(k.size());
    out += ' ';
    out += std::to_string(v.size());
    out += '\n';
    out += k;
    out += v;
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> decode_pairs(const std::string& data) {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t klen = parse_u64(data, pos, "key length");
    expect_char(data, pos, ' ');
    const std::uint64_t vlen = parse_u64(data, pos, "value length");
    expect_char(data, pos, '\n');
    if (pos + klen + vlen > data.size()) {
      throw Error("malformed pair frame: truncated payload");
    }
    std::string k = data.substr(pos, klen);
    pos += klen;
    std::string v = data.substr(pos, vlen);
    pos += vlen;
    pairs.emplace_back(std::move(k), std::move(v));
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// PartitionMapRegistry

void PartitionMapRegistry::register_output(int map_id, MapOutput output) {
  std::lock_guard lock(mu_);
  outputs_[map_id] = std::move(output);
}

void PartitionMapRegistry::drop(int map_id) {
  std::lock_guard lock(mu_);
  outputs_.erase(map_id);
}

std::optional<MapOutput> PartitionMapRegistry::lookup(int map_id) const {
  std::lock_guard lock(mu_);
  const auto it = outputs_.find(map_id);
  if (it == outputs_.end()) return std::nullopt;
  return it->second;
}

std::size_t PartitionMapRegistry::size() const {
  std::lock_guard lock(mu_);
  return outputs_.size();
}

// ---------------------------------------------------------------------------
// MapOutputWriter

MapOutputWriter::MapOutputWriter(storage::StorageBackend& store, std::string bucket,
                                 std::string key_prefix, int map_id, int attempt_id,
                                 int num_partitions, Bytes spill_budget,
                                 const ShuffleHooks& hooks)
    : store_(store),
      bucket_(std::move(bucket)),
      key_prefix_(std::move(key_prefix)),
      map_id_(map_id),
      attempt_id_(attempt_id),
      spill_budget_(spill_budget),
      hooks_(hooks),
      buffers_(static_cast<std::size_t>(num_partitions)),
      spill_lists_(static_cast<std::size_t>(num_partitions)),
      partition_spills_(static_cast<std::size_t>(num_partitions), 0) {
  PPC_REQUIRE(num_partitions >= 1, "shuffle needs at least one partition");
  if (!store_.bucket_exists(bucket_)) store_.create_bucket(bucket_);
}

void MapOutputWriter::emit(const std::string& key, std::string value) {
  ShuffleRecord r;
  r.key = key;
  r.value = std::move(value);
  r.map_id = static_cast<std::uint32_t>(map_id_);
  r.seq = seq_++;
  buffered_bytes_ += record_footprint(r);
  const int p = partition_of(key, static_cast<int>(buffers_.size()));
  buffers_[static_cast<std::size_t>(p)].push_back(std::move(r));
  if (spill_budget_ > 0.0 && buffered_bytes_ >= spill_budget_) spill_buffers();
}

void MapOutputWriter::spill_buffers() {
  for (std::size_t p = 0; p < buffers_.size(); ++p) {
    auto& buf = buffers_[p];
    if (buf.empty()) continue;
    std::sort(buf.begin(), buf.end());
    std::string payload = encode_records(buf);
    SpillInfo info;
    info.store_key = key_prefix_ + "/p" + std::to_string(p) + "/s" +
                     std::to_string(partition_spills_[p]++);
    info.bytes = static_cast<Bytes>(payload.size());
    info.checksum = crc32c(payload);
    info.records = static_cast<std::uint32_t>(buf.size());
    if (hooks_.faults != nullptr &&
        hooks_.faults->fire(sites::kSpill,
                            "m" + std::to_string(map_id_) + ":s" + std::to_string(spill_count_))) {
      throw runtime::InjectedFault("injected crash at " + sites::kSpill);
    }
    runtime::Span span;
    if (hooks_.tracer != nullptr && hooks_.tracer->enabled()) {
      span = hooks_.tracer->span("shuffle.spill", "shuffle", hooks_.track);
      span.arg("partition", std::to_string(p));
      span.arg("bytes", std::to_string(static_cast<long long>(info.bytes)));
    }
    store_.put(bucket_, info.store_key, std::move(payload));
    span.close();
    spilled_bytes_ += info.bytes;
    if (hooks_.metrics != nullptr) {
      hooks_.metrics->counter("mapreduce.shuffle.spills").inc();
      hooks_.metrics->counter("mapreduce.shuffle.spill_bytes")
          .inc(static_cast<std::int64_t>(info.bytes));
    }
    spill_lists_[p].push_back(std::move(info));
    buf.clear();
  }
  ++spill_count_;
  buffered_bytes_ = 0.0;
}

MapOutput MapOutputWriter::finish() {
  bool any = false;
  for (const auto& buf : buffers_) any = any || !buf.empty();
  if (any || spill_count_ == 0) spill_buffers();
  MapOutput out;
  out.attempt_id = attempt_id_;
  out.partitions = std::move(spill_lists_);
  spill_lists_.assign(out.partitions.size(), {});
  return out;
}

void MapOutputWriter::discard(storage::StorageBackend& store, const std::string& bucket,
                              const std::string& key_prefix) {
  if (!store.bucket_exists(bucket)) return;
  for (const auto& key : store.list(bucket, key_prefix + "/")) store.remove(bucket, key);
}

// ---------------------------------------------------------------------------
// fetch_partition

std::vector<ShuffleRecord> fetch_partition(storage::StorageBackend& store,
                                           const std::string& bucket, const MapOutput& output,
                                           int map_id, int partition, const ShuffleHooks& hooks,
                                           const FetchOptions& opts) {
  PPC_REQUIRE(partition >= 0 &&
                  partition < static_cast<int>(output.partitions.size()),
              "partition out of range for this map output");
  std::vector<ShuffleRecord> records;
  const auto& spills = output.partitions[static_cast<std::size_t>(partition)];
  for (const auto& spill : spills) {
    if (hooks.faults != nullptr &&
        hooks.faults->fire(sites::kFetch,
                           "m" + std::to_string(map_id) + ":r" + std::to_string(partition))) {
      throw runtime::InjectedFault("injected crash at " + sites::kFetch);
    }
    runtime::Span span;
    if (hooks.tracer != nullptr && hooks.tracer->enabled()) {
      span = hooks.tracer->span("shuffle.fetch", "shuffle", hooks.track);
      span.arg("map", std::to_string(map_id));
      span.arg("partition", std::to_string(partition));
      span.arg("bytes", std::to_string(static_cast<long long>(spill.bytes)));
    }
    std::shared_ptr<const std::string> data;
    bool ok = false;
    for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
      data = store.get(bucket, spill.store_key);
      if (data != nullptr && crc32c(*data) == spill.checksum) {
        ok = true;
        break;
      }
      if (data != nullptr && hooks.metrics != nullptr) {
        // Checksum mismatch: the store delivered bytes, but not the bytes
        // the mapper wrote (injected corruption / torn read).
        hooks.metrics->counter("mapreduce.shuffle.corrupt_fetches").inc();
      }
    }
    if (!ok) {
      span.arg("outcome", "lost");
      span.close();
      throw MapOutputLost(map_id, "spill " + spill.store_key + " unreadable after " +
                                      std::to_string(opts.max_attempts) + " attempts");
    }
    span.close();
    if (hooks.metrics != nullptr) {
      hooks.metrics->counter("mapreduce.shuffle.fetches").inc();
      hooks.metrics->counter("mapreduce.shuffle.fetched_bytes")
          .inc(static_cast<std::int64_t>(spill.bytes));
    }
    auto decoded = decode_records(*data);
    records.insert(records.end(), std::make_move_iterator(decoded.begin()),
                   std::make_move_iterator(decoded.end()));
  }
  return records;
}

// ---------------------------------------------------------------------------
// ExternalSorter

ExternalSorter::ExternalSorter(storage::StorageBackend& store, std::string bucket,
                               std::string key_prefix, Bytes memory_budget,
                               const ShuffleHooks& hooks)
    : store_(store),
      bucket_(std::move(bucket)),
      key_prefix_(std::move(key_prefix)),
      memory_budget_(memory_budget),
      hooks_(hooks) {
  if (!store_.bucket_exists(bucket_)) store_.create_bucket(bucket_);
}

void ExternalSorter::add(ShuffleRecord record) {
  PPC_CHECK(!finished_, "ExternalSorter::add after for_each_group");
  buffered_bytes_ += record_footprint(record);
  buffer_.push_back(std::move(record));
  ++records_;
  if (memory_budget_ > 0.0 && buffered_bytes_ >= memory_budget_) spill_run();
}

void ExternalSorter::spill_run() {
  if (buffer_.empty()) return;
  std::sort(buffer_.begin(), buffer_.end());
  std::string payload = encode_records(buffer_);
  const std::string key = key_prefix_ + "/run" + std::to_string(runs_spilled_);
  runtime::Span span;
  if (hooks_.tracer != nullptr && hooks_.tracer->enabled()) {
    span = hooks_.tracer->span("shuffle.spill", "shuffle", hooks_.track);
    span.arg("kind", "sort_run");
    span.arg("bytes", std::to_string(payload.size()));
  }
  spilled_bytes_ += static_cast<Bytes>(payload.size());
  store_.put(bucket_, key, std::move(payload));
  span.close();
  run_keys_.push_back(key);
  ++runs_spilled_;
  if (hooks_.metrics != nullptr) hooks_.metrics->counter("mapreduce.shuffle.sort_runs").inc();
  buffer_.clear();
  buffered_bytes_ = 0.0;
}

void ExternalSorter::for_each_group(const GroupFn& fn) {
  PPC_CHECK(!finished_, "ExternalSorter::for_each_group called twice");
  finished_ = true;
  runtime::Span merge_span;
  if (hooks_.tracer != nullptr && hooks_.tracer->enabled()) {
    merge_span = hooks_.tracer->span("shuffle.merge", "shuffle", hooks_.track);
    merge_span.arg("runs", std::to_string(runs_spilled_));
    merge_span.arg("records", std::to_string(records_));
  }

  // Merge sources: the in-memory buffer (sorted) plus every spilled run.
  // Runs are modest (they fit the memory budget each), so each is decoded
  // whole and merged with a k-way heap over (source, index) cursors.
  std::sort(buffer_.begin(), buffer_.end());
  std::vector<std::vector<ShuffleRecord>> sources;
  sources.reserve(run_keys_.size() + 1);
  for (const auto& key : run_keys_) {
    const auto data = store_.get(bucket_, key);
    PPC_CHECK(data != nullptr, "sort run vanished from the shuffle store: " + key);
    sources.push_back(decode_records(*data));
  }
  sources.push_back(std::move(buffer_));
  buffer_.clear();

  struct Cursor {
    std::size_t source = 0;
    std::size_t index = 0;
  };
  auto record_at = [&sources](const Cursor& c) -> const ShuffleRecord& {
    return sources[c.source][c.index];
  };
  auto cursor_gt = [&](const Cursor& a, const Cursor& b) { return record_at(b) < record_at(a); };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(cursor_gt)> heap(cursor_gt);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (!sources[s].empty()) heap.push({s, 0});
  }

  std::string current_key;
  std::vector<std::string> current_values;
  bool have_group = false;
  while (!heap.empty()) {
    const Cursor c = heap.top();
    heap.pop();
    ShuffleRecord& rec = sources[c.source][c.index];
    if (!have_group || rec.key != current_key) {
      if (have_group) fn(current_key, current_values);
      current_key = rec.key;
      current_values.clear();
      have_group = true;
    }
    current_values.push_back(std::move(rec.value));
    if (c.index + 1 < sources[c.source].size()) heap.push({c.source, c.index + 1});
  }
  if (have_group) fn(current_key, current_values);
  merge_span.close();
}

void ExternalSorter::cleanup() {
  for (const auto& key : run_keys_) store_.remove(bucket_, key);
  run_keys_.clear();
}

}  // namespace ppc::mapreduce
