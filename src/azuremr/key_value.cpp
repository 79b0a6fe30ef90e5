#include "azuremr/key_value.h"

#include <charconv>

#include "common/error.h"

namespace ppc::azuremr {

std::string encode_records(const std::vector<KeyValue>& records) {
  std::string out;
  for (const KeyValue& kv : records) {
    out += std::to_string(kv.key.size());
    out += ' ';
    out += std::to_string(kv.value.size());
    out += '\n';
    out += kv.key;
    out += kv.value;
  }
  return out;
}

namespace {

// One length field [first, last) in the only form encode_records emits:
// digits only, no leading zero, no overflow.
std::size_t parse_length(const char* first, const char* last) {
  std::size_t v = 0;
  const auto r = std::from_chars(first, last, v);
  PPC_REQUIRE(r.ec == std::errc() && r.ptr == last && (last - first == 1 || *first != '0'),
              "corrupt record lengths");
  return v;
}

}  // namespace

std::vector<KeyValue> decode_records(const std::string& data) {
  std::vector<KeyValue> records;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t space = data.find(' ', pos);
    PPC_REQUIRE(space != std::string::npos, "corrupt record header (no space)");
    const std::size_t newline = data.find('\n', space);
    PPC_REQUIRE(newline != std::string::npos, "corrupt record header (no newline)");
    const std::size_t klen = parse_length(data.data() + pos, data.data() + space);
    const std::size_t vlen = parse_length(data.data() + space + 1, data.data() + newline);
    const std::size_t body = newline + 1;
    // Compared against what is left, so a huge length cannot wrap the sum.
    PPC_REQUIRE(klen <= data.size() - body && vlen <= data.size() - body - klen,
                "truncated record body");
    KeyValue kv;
    kv.key = data.substr(body, klen);
    kv.value = data.substr(body + klen, vlen);
    records.push_back(std::move(kv));
    pos = body + klen + vlen;
  }
  return records;
}

std::size_t partition_of(const std::string& key, std::size_t num_partitions) {
  PPC_REQUIRE(num_partitions >= 1, "need at least one partition");
  // FNV-1a; stable across platforms so shuffle placement is deterministic.
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h % num_partitions);
}

std::map<std::string, std::vector<std::string>> group_by_key(
    const std::vector<KeyValue>& records) {
  std::map<std::string, std::vector<std::string>> grouped;
  for (const KeyValue& kv : records) grouped[kv.key].push_back(kv.value);
  return grouped;
}

}  // namespace ppc::azuremr
