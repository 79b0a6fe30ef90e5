// Real-thread execution engine for MapReduce jobs — the analog of running the
// paper's pleasingly-parallel framework on a live Hadoop cluster.
//
// The paper's map function "copies the input file from HDFS to the working
// directory, executes the external program as a process and finally uploads
// the result file to the HDFS" (§2.4). Here the "external program" is a C++
// callable (the Cap3/BLAST/GTM kernels in src/apps), the copy is a
// MiniHdfs::read_from (so locality is accounted), and the upload is a write
// of "output_dir/<name>" pinned to the executing node.
//
// Each simulated cluster node contributes `slots_per_node` executor threads
// that pull from the shared TaskScheduler — dynamic global-queue scheduling,
// exactly the property §4.2 credits for Hadoop's natural load balancing.
//
// One slot loop, detail::run_phase, drives every phase of both runners; a
// phase passes only data (scheduler, fault site, metric names, span label)
// and an attempt body. LocalJobRunner is the map phase with an HDFS-write
// commit. ShuffleJobRunner (shuffle_job.h) is the same map phase with a
// register commit, then a reduce phase: a map-only job is the MapReduce
// job with no reduce stage.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "mapreduce/input_format.h"
#include "mapreduce/scheduler.h"
#include "minihdfs/mini_hdfs.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/tracer.h"

namespace ppc::mapreduce {

/// The user map function: consumes (name, path) + the file bytes, returns
/// the output file bytes. Throwing fails the attempt (it will be retried).
using MapFn =
    std::function<std::string(const FileRecord& record, const std::string& contents)>;

/// Fault-injection site fired on the executor thread right before each map
/// attempt, keyed "<task_id>:<attempt>". An error FaultPlan rule there fails
/// the attempt (retried per the scheduler config); a crash rule kills the
/// slot's current attempt.
namespace sites {
inline const std::string kMapAttempt = "mapreduce.map_attempt";
}  // namespace sites

struct JobConfig {
  int num_nodes = 4;
  int slots_per_node = 2;  // executor threads per node, in every phase
  std::string output_dir = "/out";
  SchedulerConfig scheduler;  // map phase
  /// Fault injection (borrowed, not owned). Null = never.
  runtime::FaultInjector* faults = nullptr;
  /// Engine counters/histograms land here ("mapreduce.*"); null = private.
  std::shared_ptr<runtime::MetricsRegistry> metrics;
  /// Tracer (borrowed, not owned). Null = no tracing. Each executor slot
  /// becomes a track "mr.n<node>.s<slot>"; every attempt gets a task
  /// envelope span (args attempt, node, phase, outcome) with fetch.input /
  /// compute / upload.output children, all with the task's name as trace id
  /// (input file or "part-NNNNN"), plus queue.wait idle spans.
  runtime::Tracer* tracer = nullptr;
};

struct AttemptRecord {
  Assignment assignment;
  Seconds start = 0.0;
  Seconds end = 0.0;
  bool succeeded = false;
  bool output_committed = false;  // false for late speculative twins
  std::string error;
};

struct JobResult {
  bool succeeded = false;
  /// input file name -> HDFS path of the committed output.
  std::map<std::string, std::string> outputs;
  std::vector<AttemptRecord> attempts;
  TaskScheduler::Stats scheduler_stats;
  Seconds elapsed = 0.0;
};

namespace detail {

/// The executor slot running an attempt, as the attempt body sees it.
struct Slot {
  minihdfs::NodeId node = 0;
  std::string track;                  // "mr.n<node>.s<slot>"
  runtime::Tracer* tracer = nullptr;  // set only while the attempt is traced

  /// A span on this slot's track with trace id `task`; inert when untraced.
  runtime::Span span(std::string_view name, std::string_view category,
                     std::string_view task) const;
};

/// A successful attempt's output: `commit` publishes it when the attempt is
/// its task's first completion, `discard` (optional) drops it otherwise.
struct Completion {
  std::function<void()> commit;
  std::function<void()> discard = nullptr;
};

/// One attempt's work; throwing fails the attempt.
using AttemptBody = std::function<Completion(const Assignment& assignment,
                                             const TaskInfo& task, const Slot& slot)>;

/// The data that tells one phase from another.
struct PhaseSpec {
  const char* label;              // the task span's "phase" arg
  const std::string& fault_site;  // fired before each attempt, "<task>:<attempt>"
  const char* attempts_metric;    // counter, every attempt
  const char* completed_metric;   // counter, first completions
  const char* seconds_metric;     // histogram, successful attempt durations
};

inline const PhaseSpec kMapPhase{"map", sites::kMapAttempt, "mapreduce.attempts",
                                 "mapreduce.tasks_completed", "mapreduce.attempt_seconds"};

/// Runs one phase to completion: num_nodes * slots_per_node executor
/// threads pull from `scheduler`, idle ones re-polling every 200 us, and
/// every attempt's record is returned. Failed and superseded attempts count
/// in "mapreduce.failed_attempts" / "mapreduce.wasted_attempts".
std::vector<AttemptRecord> run_phase(TaskScheduler& scheduler, const PhaseSpec& phase,
                                     const AttemptBody& body, const JobConfig& config,
                                     runtime::MetricsRegistry& metrics, const ppc::Clock& clock);

/// One map task per input file (task_id = input index), after validating
/// the cluster shape against `hdfs`. Throws on bad config or missing input.
std::vector<TaskInfo> map_tasks(const minihdfs::MiniHdfs& hdfs,
                                const std::vector<std::string>& input_paths,
                                const JobConfig& config);

/// Reads a map task's input file on the slot's node, under a fetch.input span.
std::string read_input(minihdfs::MiniHdfs& hdfs, const TaskInfo& task, const Slot& slot);

}  // namespace detail

class LocalJobRunner {
 public:
  explicit LocalJobRunner(minihdfs::MiniHdfs& hdfs);

  /// Runs the map-only job to completion. The number of executor threads is
  /// num_nodes * slots_per_node. Throws on configuration errors; task-level
  /// failures are retried per the scheduler config and reported in the
  /// result instead.
  JobResult run(const std::vector<std::string>& input_paths, const MapFn& map_fn,
                const JobConfig& config);

 private:
  minihdfs::MiniHdfs& hdfs_;
};

}  // namespace ppc::mapreduce
