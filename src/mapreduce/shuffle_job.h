// Real-thread execution engine for full MapReduce jobs — map, shuffle, and
// reduce on live executor threads, the analog of running Hadoop (not just a
// map-only harness) over the paper's biomedical workloads.
//
// Pipeline (see shuffle.h for the primitives and DESIGN.md §15 for the
// architecture):
//   1. Map phase — the very phase LocalJobRunner runs on job.h's one slot
//      loop, except the user function emits (key, value) pairs into a
//      MapOutputWriter, which hash-partitions and spills through a
//      storage::StorageBackend. The attempt ends at a kMapRegister fault
//      site and commits by registering its partition map — crashing in that
//      window leaves durable but invisible spills, exactly the loss mode
//      reducers must survive. The reduce phase runs on the same loop.
//   2. Reduce phase — each reduce task fetches its partition from every
//      registered map output, external-sorts under a memory budget, applies
//      the user Reducer per key group, and commits "part-NNNNN" to HDFS on
//      first completion (speculative twins discard).
//   3. Map-output loss — a reducer that cannot fetch m's output (missing
//      registration or unreadable spills past the retry budget) redrives
//      map task m synchronously (bounded, metered), then retries the
//      reduce attempt via the normal scheduler re-queue. Jobs never hang on
//      lost shuffle data.
//
// Output determinism: reduce input groups arrive in (key, map_id, seq)
// order, so each part file's bytes depend only on (job inputs, map fn,
// reduce fn, partition count) — not on worker count, spill schedule,
// speculative execution, or injected faults. The chaos campaign and the
// 1000-seed property suite assert exactly this.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"

namespace ppc::mapreduce {

/// The user map function for shuffle jobs: consumes one input file, emits
/// keyed pairs via `emit`. Must be deterministic (emission order included) —
/// the shuffle's byte-identity contract depends on it.
using EmitFn = std::function<void(const std::string& key, std::string value)>;
using MapKvFn = std::function<void(const FileRecord& record, const std::string& contents,
                                   const EmitFn& emit)>;

/// The user reduce function: one call per distinct key, values in
/// (map_id, seq) order; returns the reduced value for the key.
using ReduceFn =
    std::function<std::string(const std::string& key, const std::vector<std::string>& values)>;

/// Test/chaos seam handed to ShuffleJobConfig::between_phases — runs after
/// the map barrier, before any reduce attempt starts.
class ShuffleJobControl {
 public:
  ShuffleJobControl(PartitionMapRegistry& registry, storage::StorageBackend& store,
                    std::string bucket)
      : registry_(registry), store_(store), bucket_(std::move(bucket)) {}

  /// Simulates a mapper node dying after commit: drops m's registration AND
  /// deletes its spill objects. Reducers must redrive m, not hang.
  void lose_map_output(int map_id);

  /// Drops only the registration, leaving spills durable — the
  /// crashed-before-register shape from the reducer's point of view.
  void unregister_map_output(int map_id) { registry_.drop(map_id); }

  PartitionMapRegistry& registry() { return registry_; }

 private:
  PartitionMapRegistry& registry_;
  storage::StorageBackend& store_;
  std::string bucket_;
};

/// A map-only JobConfig (cluster shape, output_dir, the map phase's
/// `scheduler`, faults, metrics, tracer) plus the reduce stage.
struct ShuffleJobConfig : JobConfig {
  int num_reducers = 2;
  /// Job name — namespaces this job's objects in the shuffle bucket.
  std::string job_name = "job";
  /// Map-side buffer budget before a spill flushes every partition
  /// (0 = single spill at finish). Small budgets force multi-spill outputs.
  Bytes map_spill_budget = 4.0 * 1024 * 1024;
  /// Reduce-side external-sort budget (0 = pure in-memory sort).
  Bytes sort_memory_budget = 16.0 * 1024 * 1024;
  /// Synchronous map redrives allowed per map task during the reduce phase.
  int max_map_redrives = 2;
  SchedulerConfig reduce_scheduler;
  /// Spill/fetch go through this backend when set (borrowed); when null the
  /// runner owns a private zero-latency BlobStore and installs
  /// `faults`/`tracer` on it (so blobstore.shuffle.* sites are armable).
  /// Either way the spills live in its "shuffle" bucket.
  storage::StorageBackend* spill_store = nullptr;
  /// Test seam: runs between the map barrier and the reduce phase.
  std::function<void(ShuffleJobControl&)> between_phases;
};

struct ShuffleStats {
  int map_spills = 0;
  Bytes map_spill_bytes = 0.0;
  std::int64_t fetches = 0;
  Bytes fetched_bytes = 0.0;
  std::int64_t corrupt_fetches = 0;
  int sort_runs_spilled = 0;
  /// Bytes written as reduce-side sorted runs (the external sort's share of
  /// spill amplification).
  Bytes sort_run_bytes = 0.0;
  int map_redrives = 0;
  /// Bytes of map output produced (pre-spill, encoded size) — the
  /// denominator of spill amplification.
  Bytes map_output_bytes = 0.0;
  /// Storage-layer cost of moving shuffle bytes (transfer + requests),
  /// from the spill store's meter when the runner owns it.
  Dollars shuffle_storage_cost = 0.0;
};

struct ShuffleJobResult {
  bool succeeded = false;
  /// part name ("part-00000") -> HDFS path of the committed reduce output.
  std::map<std::string, std::string> outputs;
  std::vector<AttemptRecord> map_attempts;
  std::vector<AttemptRecord> reduce_attempts;
  TaskScheduler::Stats map_stats;
  TaskScheduler::Stats reduce_stats;
  ShuffleStats shuffle;
  Seconds elapsed = 0.0;
};

class ShuffleJobRunner {
 public:
  explicit ShuffleJobRunner(minihdfs::MiniHdfs& hdfs);

  /// Runs map + shuffle + reduce to completion. Throws on configuration
  /// errors; attempt-level failures retry per the scheduler configs.
  ShuffleJobResult run(const std::vector<std::string>& input_paths, const MapKvFn& map_fn,
                       const ReduceFn& reduce_fn, const ShuffleJobConfig& config);

 private:
  minihdfs::MiniHdfs& hdfs_;
};

/// Decodes every committed part file of `result` from HDFS and merges the
/// (key → reduced value) frames into one map — the job's canonical output,
/// identical across any partition/worker/spill configuration. Keys are
/// unique across partitions by construction.
std::map<std::string, std::string> canonical_reduced_output(const ShuffleJobResult& result,
                                                            minihdfs::MiniHdfs& hdfs);

/// Canonical output rendered as deterministic bytes (sorted key order) —
/// the byte string the determinism and chaos suites compare.
std::string encode_canonical(const std::map<std::string, std::string>& canonical);

}  // namespace ppc::mapreduce
