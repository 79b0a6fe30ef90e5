// Key-value records and their wire format for the TwisterAzure-style
// MapReduce framework (src/azuremr) — the paper's §8 future work:
//
//   "we are working on developing a fully-fledged MapReduce framework with
//    iterative-MapReduce support for the Windows Azure Cloud infrastructure
//    using Azure infrastructure services as building blocks"
//
// Map outputs travel through blob storage between the map and reduce
// stages, serialized with a length-prefixed record format that tolerates
// arbitrary bytes in keys and values (unlike the ';'-delimited task codec).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace ppc::azuremr {

struct KeyValue {
  std::string key;
  std::string value;

  bool operator==(const KeyValue&) const = default;
};

/// Serializes records as "<klen> <vlen>\n<key><value>" frames.
std::string encode_records(const std::vector<KeyValue>& records);

/// Inverse of encode_records. Throws ppc::InvalidArgument on corruption:
/// a non-numeric or non-canonical length (a leading zero), or one that runs
/// past the end of the payload.
std::vector<KeyValue> decode_records(const std::string& data);

/// Deterministic partition assignment for a key (shuffle hash).
std::size_t partition_of(const std::string& key, std::size_t num_partitions);

/// Groups records by key, preserving per-key value arrival order.
std::map<std::string, std::vector<std::string>> group_by_key(
    const std::vector<KeyValue>& records);

}  // namespace ppc::azuremr
