// Canned workloads for the engine runner's presets. Input generation is
// seeded, so a job is identical across the runs that compare against each
// other. A job is map-only (one Cap3 / BLAST / GTM call per file, the
// paper's shape) or a shuffle job, which the paper's frameworks cannot
// express:
//  * "histogram" — BLAST hit histogram: map searches each query against the
//    shared database and emits (best-hit subject, query id); reduce counts
//    the queries landing on each database sequence — §5's result table
//    computed as a real group-by;
//  * "dedup" — sequence dedup: reads are keyed by their exact sequence;
//    reduce keeps the first occurrence as the canonical representative and
//    counts the copies.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/shuffle_job.h"

namespace ppc::sim {

/// A workload: (name, bytes) input files plus the user code — the per-file
/// "executable" `fn`, or `map` + `reduce` for a shuffle job.
struct AppJob {
  std::vector<std::pair<std::string, std::string>> files;
  /// Job-wide reference data every task reads besides its own input — the
  /// BLAST sequence database, the GTM training matrix (Cap3 has none).
  /// Substrates with a worker block cache upload these once and fetch them
  /// content-addressed, once per worker instead of once per task.
  std::vector<std::pair<std::string, std::string>> shared_files;
  std::function<std::string(const std::string& name, const std::string& data)> fn;
  /// Shuffle jobs only, instead of `fn`.
  mapreduce::MapKvFn map;
  mapreduce::ReduceFn reduce;
};

/// Builds `num_files` inputs for `app` ("cap3", "blast", "gtm").
///
/// `skew` controls inhomogeneity: 0.0 (default) gives every file the same
/// nominal work; skew s scales file i's work by 1 + s * i / (n - 1), i.e. the
/// last file costs (1 + s)x the first. This reproduces the paper's
/// inhomogeneous-data experiments (§4.2, Figs 12-15), where static
/// partitioning loses to dynamic scheduling precisely because per-file cost
/// varies. Throws InvalidArgument on an unknown app.
AppJob make_app_job(const std::string& app, int num_files, double skew = 0.0);

/// Builds the "histogram" or "dedup" shuffle job over `num_files` input files.
/// One (app, num_files, seed) triple is one job corpus — byte-identical
/// across every run that compares against another. Throws InvalidArgument
/// on an unknown app.
AppJob make_shuffle_app(const std::string& app, int num_files, std::uint64_t seed = 0xC0FFEE);

inline bool is_shuffle_app(const std::string& app) {
  return app == "histogram" || app == "dedup";
}

}  // namespace ppc::sim
