// `ppcloud shuffle`: one shuffle workload ("histogram" or "dedup", see
// app_job.h) on the real-thread mapreduce engine through run_engine and, on
// request, the determinism contract: a rerun on a different cluster shape
// (nodes, slots, reducer sort budget) must produce the same canonical
// output bytes.
#pragma once

#include <cstdint>
#include <string>

#include "sim/app_job.h"
#include "sim/engine_run.h"

namespace ppc::sim {

/// Runs shuffle `job` under `spec`. With `verify`, a successful run is
/// rerun on another cluster shape, and a rerun that fails or moves the
/// canonical bytes is appended to the report's failures. Throws on
/// configuration errors.
RunReport run_shuffle_job(const EngineRunSpec& spec, const AppJob& job, bool verify);

/// The shuffle report of `app`'s job over `files` inputs from corpus `seed`:
/// groups, spill / fetch / sort counts, scheduling, and why it failed.
std::string shuffle_text(const RunReport& report, const EngineRunSpec& spec,
                         const std::string& app, std::uint64_t seed, int files, bool verify);

/// "reproduce with: ppcloud shuffle ..." naming the app, the seed and every
/// option the run changed from the verb's defaults; empty when it succeeded.
std::string shuffle_reproduce_line(const RunReport& report, const EngineRunSpec& spec,
                                   const std::string& app, std::uint64_t seed, int files,
                                   bool verify);

}  // namespace ppc::sim
