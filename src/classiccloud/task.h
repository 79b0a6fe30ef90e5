// Task descriptors and the message codec of the Classic Cloud framework.
//
// §2.1.3: "every message in the queue describes a single task"; "a single
// task comprises of a single input file and a single output file". The task
// message therefore carries the blob keys of its input and output plus a
// task id; the monitoring queue carries small status records. Both are flat
// "key=value;key=value" strings (SQS/Azure Queue messages are short
// strings), the format of ppc::encode_kv, written field by field.
//
// The field order is the wire contract: task messages are
// "in=..;out=..[;shared=k1,k2,..];task=..", monitor records are
// "secs=..;status=..;task=..;worker=..". Queue bodies are metered and
// replayed byte for byte, so the order must not change. Values may not
// contain '=' or ';'. decode_task accepts any field order and unknown keys,
// and rejects exactly what a ppc::decode_kv-based decoder rejects.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace ppc::classiccloud {

struct TaskSpec {
  std::string task_id;
  std::string input_key;   // blob key holding the input file
  std::string output_key;  // blob key the worker must write
  /// Job-wide reference blobs every task needs besides its own input (the
  /// BLAST NR database, the GTM training matrix). Workers fetch these
  /// through their BlockCache, so N tasks on one worker pay one download.
  /// Optional: absent from the wire format when empty, so task messages of
  /// jobs without shared data are unchanged.
  std::vector<std::string> shared_keys;
};

std::string encode_task(const TaskSpec& task);
TaskSpec decode_task(const std::string& body);

/// Status record published to the monitoring queue when a worker finishes a
/// task ("Our implementation uses a monitoring message queue to monitor the
/// progress of the computation").
struct MonitorRecord {
  std::string task_id;
  std::string worker_id;
  std::string status;      // "done" | "failed"
  Seconds duration = 0.0;  // execution time on the worker
};

std::string encode_monitor(const MonitorRecord& record);
MonitorRecord decode_monitor(const std::string& body);

}  // namespace ppc::classiccloud
