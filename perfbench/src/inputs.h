// Seeded inputs for every workload. The workload seed is the only source of
// randomness: one seed gives byte-identical inputs, and the program under
// test only ever sees the generated files and functions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/workload.h"
#include "mapreduce/shuffle_job.h"
#include "probe.h"

namespace perfbench {

/// A pleasingly parallel job: input files, job-wide reference files, and
/// the per-file "executable" every engine runs.
struct FileJob {
  std::vector<std::pair<std::string, std::string>> files;
  /// Reference data every task reads besides its own input (the BLAST
  /// database, the GTM training matrix).
  std::vector<std::pair<std::string, std::string>> shared_files;
  /// Compute op of each file (kCap3 / kBlast / kGtm) for per-app timings.
  std::vector<Op> kind;
  std::function<std::string(std::size_t file, const std::string& data)> fn;
  std::unordered_map<std::string, std::size_t> index;  // file name -> position

  std::size_t index_of(const std::string& name) const { return index.at(name); }
  double input_bytes() const;
};

/// pp_apps_skewed: `num_files` Cap3/BLAST/GTM files interleaved so every
/// round-robin partition gets each app in turn; file i's work grows
/// linearly so the last file costs about 4x the first.
FileJob make_mixed_job(std::uint64_t seed, int num_files);

/// blast_db_refetch: `num_files` small BLAST query files against a shared
/// database of `db_sequences` proteins (~365 bytes each).
FileJob make_blast_refetch_job(std::uint64_t seed, int num_files, int db_sequences);

/// shuffle_dedup: reads drawn with repetition from a pool of distinct
/// sequences; map emits (sequence, read id), reduce keeps the first
/// occurrence and counts the copies.
struct DedupJob {
  std::vector<std::pair<std::string, std::string>> files;
  ppc::mapreduce::MapKvFn map;
  ppc::mapreduce::ReduceFn reduce;
  double input_bytes = 0.0;
};
DedupJob make_dedup_job(std::uint64_t seed, int num_files, int reads_per_file, int pool_size);

/// Canonical output of the dedup job computed without the engine: every
/// (key, value) emitted by a sequential map pass, std::sort-ed by (key,
/// map id, emission order), grouped, reduced and rendered with
/// mapreduce::encode_canonical.
std::string dedup_reference(const DedupJob& job, std::size_t* groups);

/// des_campaign: `tasks` Cap3 files of 458 reads whose content-dependent
/// work factors are drawn from the seed (lognormal, ~10% spread).
ppc::core::Workload make_des_workload(std::uint64_t seed, int tasks);

}  // namespace perfbench
