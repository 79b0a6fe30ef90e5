// TwisterAzure-style MapReduce job description — the reproduction of the
// paper's §8 future work ("MapReduce in the Clouds for Science" [12]): a
// map+reduce framework built purely from cloud infrastructure services (the
// task queue and the blob store), no master node.
//
// A job is one pass:
//   map     — per input chunk, records out;
//   shuffle — map outputs hash-partitioned by key (mapreduce::partition_of)
//             into one blob per reducer, in the mapreduce::encode_pairs frame;
//   reduce  — per partition, over each key's values in arrival order.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace ppc::azuremr {

/// One map output record: (key, value).
using KeyValue = std::pair<std::string, std::string>;

/// Map: one input chunk -> records. The third argument is always "".
using MapFn = std::function<std::vector<KeyValue>(
    const std::string& input_name, const std::string& input_data, const std::string& unused)>;

/// Reduce: one key and all its values -> output value.
using ReduceFn =
    std::function<std::string(const std::string& key, const std::vector<std::string>& values)>;

struct JobSpec {
  std::string job_id = "mrjob";
  /// (name, data) input chunks, uploaded to the job bucket by run().
  std::vector<std::pair<std::string, std::string>> inputs;
  int num_reduce_tasks = 1;
  MapFn map;
  ReduceFn reduce;

  /// Client-side wait budget per stage (real seconds).
  Seconds stage_timeout = 60.0;
};

struct JobResult {
  bool succeeded = false;
  /// Reduce outputs, key -> reduced value.
  std::map<std::string, std::string> outputs;
};

}  // namespace ppc::azuremr
