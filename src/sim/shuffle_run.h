// The `ppcloud shuffle` preset of the engine runner.
//
// Runs one shuffle workload ("histogram" or "dedup", see app_job.h) on the
// real-thread mapreduce engine and, on request, verifies the determinism
// contract: a rerun on a different cluster shape (nodes, slots, reducer
// sort budget) must produce the same canonical output bytes.
#pragma once

#include <cstdint>
#include <string>

#include "mapreduce/shuffle_job.h"
#include "sim/app_job.h"

namespace ppc::sim {

struct ShuffleRunConfig {
  std::string app = "histogram";
  std::uint64_t seed = 1;  // input-corpus seed
  int num_files = 6;
  int num_nodes = 3;
  int slots_per_node = 2;
  int num_reducers = 3;
  /// Re-run the job with a different cluster shape (nodes/slots/reducer
  /// budget) and assert canonical output bytes are identical.
  bool verify_determinism = false;
  /// Attach a tracer and keep the Chrome JSON in the report.
  bool trace = false;
};

struct ShuffleRunReport {
  bool succeeded = false;
  std::string app;
  std::uint64_t seed = 0;
  int maps = 0;
  int reducers = 0;
  std::size_t groups = 0;           // distinct keys in the canonical output
  std::string canonical;            // encode_canonical() bytes
  bool determinism_verified = false;
  bool determinism_ok = false;
  mapreduce::ShuffleStats shuffle;
  mapreduce::TaskScheduler::Stats map_stats;
  mapreduce::TaskScheduler::Stats reduce_stats;
  Seconds elapsed = 0.0;
  std::string trace_json;           // empty unless config.trace
  std::size_t trace_spans = 0;

  std::string to_text() const;
};

/// Runs one shuffle job on the real-thread engine, staged with the seeded
/// corpus. Throws on configuration errors.
ShuffleRunReport run_shuffle_job(const ShuffleRunConfig& config);

}  // namespace ppc::sim
