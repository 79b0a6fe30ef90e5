#include "mapreduce/shuffle.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>

#include "common/crc32c.h"
#include "common/string_util.h"

namespace ppc::mapreduce {

int partition_of(std::string_view key, int num_partitions) {
  PPC_REQUIRE(num_partitions >= 1, "num_partitions must be >= 1");
  return static_cast<int>(fnv1a64(key) % static_cast<std::uint64_t>(num_partitions));
}

namespace {

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
/// Arena blocks start small (tests build thousands of tiny runs) and double
/// up to this size; a record larger than a block gets a block of its own.
constexpr std::size_t kFirstBlock = 4096;
constexpr std::size_t kMaxBlock = 1u << 20;

// Parses the canonical decimal the encoders emit at `pos`, advancing past
// the digits: at least one digit, no leading zero, value <= `max`. Anything
// else throws ppc::Error — the frame is corrupt, and a wrapped or
// non-canonical number must not decode into some other record.
std::uint64_t parse_uint(std::string_view data, std::size_t& pos, std::uint64_t max,
                         const char* frame, const char* what) {
  const std::size_t start = pos;
  std::uint64_t v = 0;
  while (pos < data.size() && data[pos] >= '0' && data[pos] <= '9') {
    const auto digit = static_cast<std::uint64_t>(data[pos] - '0');
    if (v > (max - digit) / 10) {
      throw Error(std::string("malformed ") + frame + " frame: " + what + " out of range");
    }
    v = v * 10 + digit;
    ++pos;
  }
  if (pos == start || (data[start] == '0' && pos - start > 1)) {
    throw Error(std::string("malformed ") + frame + " frame: bad " + what);
  }
  return v;
}

void expect_char(std::string_view data, std::size_t& pos, char c, const char* frame) {
  if (pos >= data.size() || data[pos] != c) {
    throw Error(std::string("malformed ") + frame + " frame: missing separator");
  }
  ++pos;
}

// Checks that a body of klen + vlen bytes fits at `pos` without computing
// pos + klen + vlen, which could wrap.
void expect_body(std::string_view data, std::size_t pos, std::uint64_t klen, std::uint64_t vlen,
                 const char* frame) {
  const std::uint64_t left = data.size() - pos;
  if (klen > left || vlen > left - klen) {
    throw Error(std::string("malformed ") + frame + " frame: truncated payload");
  }
}

std::uint64_t key_prefix(std::string_view key) {
  unsigned char bytes[8] = {};
  if (!key.empty()) std::memcpy(bytes, key.data(), std::min<std::size_t>(key.size(), 8));
  std::uint64_t p = 0;
  for (unsigned char b : bytes) p = (p << 8) | b;
  return p;
}

std::size_t decimal_digits(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 10) {
    v /= 10;
    ++n;
  }
  return n;
}

char* put_uint(char* out, std::uint64_t v, char sep) {
  out = std::to_chars(out, out + 20, v).ptr;
  *out = sep;
  return out + 1;
}

}  // namespace

// ---------------------------------------------------------------------------
// RecordRun

void RecordRun::append(std::string_view key, std::string_view value, std::uint32_t map_id,
                       std::uint32_t seq) {
  PPC_REQUIRE(key.size() <= kU32Max && value.size() <= kU32Max,
              "shuffle keys and values must each be under 4 GiB");
  const std::size_t need = key.size() + value.size();
  if (arena_ == nullptr || arena_->capacity() - arena_->size() < need) {
    const std::size_t last = arena_ == nullptr ? 0 : arena_->capacity();
    arena_ = std::make_shared<std::string>();
    arena_->reserve(std::max(need, std::clamp(2 * last, kFirstBlock, kMaxBlock)));
    blocks_.push_back(arena_);
  }
  const char* bytes = arena_->data() + arena_->size();
  arena_->append(key);
  arena_->append(value);
  index_.push_back({bytes, static_cast<std::uint32_t>(key.size()),
                    static_cast<std::uint32_t>(value.size()), map_id, seq, key_prefix(key)});
}

void RecordRun::append_decoded(std::shared_ptr<const std::string> payload) {
  const std::string_view data = *payload;
  const std::size_t first = index_.size();
  try {
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::uint64_t klen = parse_uint(data, pos, kU64Max, "shuffle", "key length");
      expect_char(data, pos, ' ', "shuffle");
      const std::uint64_t vlen = parse_uint(data, pos, kU64Max, "shuffle", "value length");
      expect_char(data, pos, ' ', "shuffle");
      const auto map_id =
          static_cast<std::uint32_t>(parse_uint(data, pos, kU32Max, "shuffle", "map id"));
      expect_char(data, pos, ' ', "shuffle");
      const auto seq = static_cast<std::uint32_t>(parse_uint(data, pos, kU32Max, "shuffle", "seq"));
      expect_char(data, pos, '\n', "shuffle");
      expect_body(data, pos, klen, vlen, "shuffle");
      if (klen > kU32Max || vlen > kU32Max) {
        throw Error("malformed shuffle frame: record over 4 GiB");
      }
      const std::string_view key = data.substr(pos, klen);
      index_.push_back({data.data() + pos, static_cast<std::uint32_t>(klen),
                        static_cast<std::uint32_t>(vlen), map_id, seq, key_prefix(key)});
      pos += klen + vlen;
    }
  } catch (...) {
    index_.resize(first);
    throw;
  }
  if (index_.size() > first) blocks_.push_back(std::move(payload));
}

void RecordRun::splice(const RecordRun& from, std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  blocks_.insert(blocks_.end(), from.blocks_.begin(), from.blocks_.end());
  index_.insert(index_.end(), from.index_.begin() + static_cast<std::ptrdiff_t>(begin),
                from.index_.begin() + static_cast<std::ptrdiff_t>(end));
}

bool RecordRun::less(const Entry& a, const Entry& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  if (a.klen > 8 && b.klen > 8) {
    // The first 8 bytes are equal; the rest decide.
    const int c = std::string_view(a.bytes + 8, a.klen - 8)
                      .compare(std::string_view(b.bytes + 8, b.klen - 8));
    if (c != 0) return c < 0;
  } else if (a.klen != b.klen) {
    // Equal zero-padded prefixes and a key of at most 8 bytes: the shorter
    // key is a prefix of the longer one.
    return a.klen < b.klen;
  }
  if (a.map_id != b.map_id) return a.map_id < b.map_id;
  return a.seq < b.seq;
}

void RecordRun::sort() {
  // A lambda, not the function pointer, so std::sort inlines the compare.
  std::sort(index_.begin(), index_.end(),
            [](const Entry& a, const Entry& b) { return less(a, b); });
}

std::string RecordRun::encode() const {
  std::size_t total = 0;
  for (const Entry& e : index_) {
    total += decimal_digits(e.klen) + decimal_digits(e.vlen) + decimal_digits(e.map_id) +
             decimal_digits(e.seq) + 4 + e.klen + e.vlen;
  }
  std::string out(total, '\0');
  char* p = out.data();
  for (const Entry& e : index_) {
    p = put_uint(p, e.klen, ' ');
    p = put_uint(p, e.vlen, ' ');
    p = put_uint(p, e.map_id, ' ');
    p = put_uint(p, e.seq, '\n');
    std::memcpy(p, e.bytes, std::size_t{e.klen} + e.vlen);
    p += std::size_t{e.klen} + e.vlen;
  }
  return out;
}

void RecordRun::clear() {
  index_.clear();
  blocks_.clear();
  if (arena_ != nullptr && arena_.use_count() == 1) {
    arena_->clear();
    blocks_.push_back(arena_);
  } else {
    arena_.reset();  // another run still views it: never write there again
  }
}

std::string encode_records(const std::vector<ShuffleRecord>& records) {
  RecordRun run;
  for (const auto& r : records) run.append(r.key, r.value, r.map_id, r.seq);
  return run.encode();
}

std::vector<ShuffleRecord> decode_records(const std::string& data) {
  RecordRun run;
  // Borrow `data` for the duration of the call: an owner-less alias.
  run.append_decoded(std::shared_ptr<const std::string>(std::shared_ptr<void>(), &data));
  std::vector<ShuffleRecord> records;
  records.reserve(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    const RecordView r = run[i];
    records.push_back({std::string(r.key), std::string(r.value), r.map_id, r.seq});
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
    const std::uint64_t klen = parse_uint(data, pos, kU64Max, "pair", "key length");
    expect_char(data, pos, ' ', "pair");
    const std::uint64_t vlen = parse_uint(data, pos, kU64Max, "pair", "value length");
    expect_char(data, pos, '\n', "pair");
    expect_body(data, pos, klen, vlen, "pair");
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
  buffered_bytes_ += record_footprint(key.size(), value.size());
  const int p = partition_of(key, static_cast<int>(buffers_.size()));
  buffers_[static_cast<std::size_t>(p)].append(key, value, static_cast<std::uint32_t>(map_id_),
                                               seq_++);
  if (spill_budget_ > 0.0 && buffered_bytes_ >= spill_budget_) spill_buffers();
}

void MapOutputWriter::spill_buffers() {
  for (std::size_t p = 0; p < buffers_.size(); ++p) {
    auto& buf = buffers_[p];
    if (buf.empty()) continue;
    buf.sort();
    std::string payload = buf.encode();
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

RecordRun fetch_partition(storage::StorageBackend& store, const std::string& bucket,
                          const MapOutput& output, int map_id, int partition,
                          const ShuffleHooks& hooks, const FetchOptions& opts) {
  PPC_REQUIRE(partition >= 0 &&
                  partition < static_cast<int>(output.partitions.size()),
              "partition out of range for this map output");
  RecordRun records;
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
    records.append_decoded(std::move(data));
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

void ExternalSorter::add(const RecordRun& run) {
  PPC_CHECK(!finished_, "ExternalSorter::add after for_each_group");
  std::size_t begin = 0;  // first record of `run` not yet in the buffer
  for (std::size_t i = 0; i < run.size(); ++i) {
    buffered_bytes_ += run.footprint(i);
    ++records_;
    if (memory_budget_ > 0.0 && buffered_bytes_ >= memory_budget_) {
      buffer_.splice(run, begin, i + 1);
      begin = i + 1;
      spill_run();
    }
  }
  buffer_.splice(run, begin, run.size());
}

void ExternalSorter::add(const ShuffleRecord& record) {
  PPC_CHECK(!finished_, "ExternalSorter::add after for_each_group");
  buffer_.append(record.key, record.value, record.map_id, record.seq);
  buffered_bytes_ += record_footprint(record.key.size(), record.value.size());
  ++records_;
  if (memory_budget_ > 0.0 && buffered_bytes_ >= memory_budget_) spill_run();
}

void ExternalSorter::spill_run() {
  if (buffer_.empty()) return;
  buffer_.sort();
  std::string payload = buffer_.encode();
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

  // Merge sources: every spilled run, decoded to views into the payload the
  // store returns, plus the sorted in-memory buffer. Each source is sorted,
  // so a k-way heap of cursors yields the total order.
  std::vector<RecordRun> sources(run_keys_.size());
  for (std::size_t r = 0; r < run_keys_.size(); ++r) {
    auto data = store_.get(bucket_, run_keys_[r]);
    PPC_CHECK(data != nullptr, "sort run vanished from the shuffle store: " + run_keys_[r]);
    sources[r].append_decoded(std::move(data));
  }
  buffer_.sort();
  sources.push_back(std::move(buffer_));
  buffer_ = RecordRun();

  using Entry = RecordRun::Entry;
  struct Cursor {
    const Entry* at;
    const Entry* end;
  };
  // Min-heap on the cursors' current records; a cursor that advances is
  // sifted down in place rather than popped and pushed again.
  std::vector<Cursor> heap;
  for (const RecordRun& src : sources) {
    if (!src.empty()) heap.push_back({src.index_.data(), src.index_.data() + src.size()});
  }
  const auto later = [](const Cursor& a, const Cursor& b) { return RecordRun::less(*b.at, *a.at); };
  std::make_heap(heap.begin(), heap.end(), later);
  const auto sift_down = [&heap, &later] {
    std::size_t i = 0;
    for (;;) {
      const std::size_t l = 2 * i + 1;
      if (l >= heap.size()) return;
      std::size_t least = l;
      if (l + 1 < heap.size() && later(heap[l], heap[l + 1])) least = l + 1;
      if (!later(heap[i], heap[least])) return;
      std::swap(heap[i], heap[least]);
      i = least;
    }
  };

  const Entry* group = nullptr;  // first record of the current key group
  std::vector<std::string_view> current_values;
  while (!heap.empty()) {
    const Entry& rec = *heap.front().at;
    if (group == nullptr) {
      group = &rec;
    } else if (rec.prefix != group->prefix ||
               RecordRun::view(rec).key != RecordRun::view(*group).key) {
      fn(RecordRun::view(*group).key, current_values);
      group = &rec;
      current_values.clear();
    }
    current_values.push_back(RecordRun::view(rec).value);
    if (++heap.front().at == heap.front().end) {
      heap.front() = heap.back();
      heap.pop_back();
    }
    sift_down();
  }
  if (group != nullptr) fn(RecordRun::view(*group).key, current_values);
  merge_span.close();
}

void ExternalSorter::cleanup() {
  for (const auto& key : run_keys_) store_.remove(bucket_, key);
  run_keys_.clear();
}

}  // namespace ppc::mapreduce
