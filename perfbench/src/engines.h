// Runs one FileJob on one of the four real-thread engines, with the
// benchmark's own wrappers around the job's function and, when tracing, its
// Probe installed on the engine's storage backend and queues.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "probe.h"
#include "storage/storage_backend.h"

namespace perfbench {

enum class Engine { kClassic, kAzure, kMapReduce, kDryad };

const char* engine_name(Engine engine);

/// Worker threads of every engine: classiccloud / azuremr workers,
/// mapreduce / dryad nodes with one slot each. With the coordinator this
/// fills a 4-CPU host.
inline constexpr int kWorkers = 3;

struct EngineOptions {
  /// classiccloud only: per-worker block cache for the shared files.
  bool block_cache = false;
  /// Installed on the storage backend and queues and used for the compute
  /// brackets when non-null; the caller enables it.
  Probe* probe = nullptr;
};

struct JobRun {
  Engine engine = Engine::kClassic;
  bool succeeded = false;
  /// Job window on the perfbench::now_s() clock. Staging inputs happens
  /// before t0 and collecting outputs after t1.
  double t0 = 0.0;
  double t1 = 0.0;
  double stage_s = 0.0;
  /// file name -> output bytes.
  std::map<std::string, std::string> outputs;
  /// Storage traffic inside the window (classiccloud / azuremr only).
  ppc::storage::TransferMeter meter;
  /// Bytes through the engine's data plane inside the window: the blob
  /// store for classiccloud / azuremr, HDFS or the node shares otherwise.
  double payload_bytes = 0.0;
  /// Storage request/transfer fees plus queue request fees of the window.
  double service_cost = 0.0;
  std::int64_t redeliveries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  double wall() const { return t1 - t0; }
};

JobRun run_file_job(Engine engine, const FileJob& job, const EngineOptions& options);

/// Files whose output is missing or differs from `reference` (by position).
int count_mismatches(const FileJob& job, const JobRun& run,
                     const std::vector<std::string>& reference);

/// Price of `workers` cores busy for `seconds` on the paper's EC2 HCXL
/// instance ($0.68/h for 8 cores), billed by the second.
double core_seconds_cost(int workers, double seconds);

}  // namespace perfbench
