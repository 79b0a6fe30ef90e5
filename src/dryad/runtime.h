// DryadLINQ-analog execution engine and the Select operator.
//
// §2.3: Dryad jobs are data-flow graphs whose vertices are pinned to nodes
// (static placement over data partitioned in advance). The only graph the
// paper's applications build is one Select: a set of independent vertices,
// one per partition, with no edges. The runtime executes such a vertex list
// with real threads: each cluster node contributes `slots_per_node` executor
// threads that run only the vertices pinned to their node, in list order.
// A failed vertex goes to the back of its node's queue, up to a retry budget
// ("re-execution of failed and slow tasks" — slow-task duplication is
// modeled in the simulation driver, where time is explicit).
//
// dryad_select() is the paper's usage: "The DryadLINQ implementation of the
// framework uses the DryadLINQ 'select' operator on the data partitions to
// perform the distributed computations" — one vertex per partition, each
// applying a side-effect-free function to every file in its partition and
// writing results back to the node's shared directory.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dryad/file_share.h"
#include "dryad/partitioned_table.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/tracer.h"

namespace ppc::dryad {

/// Fault-injection site fired before each vertex attempt, keyed
/// "<vertex_id>:<attempt>" (vertex_id is the vertex's index in the run's
/// list). An error or crash FaultPlan rule there fails the attempt
/// (re-executed up to the retry budget, §2.3).
namespace sites {
inline const std::string kVertexAttempt = "dryad.vertex_attempt";
}  // namespace sites

struct RuntimeConfig {
  int num_nodes = 4;
  int slots_per_node = 1;
  int max_attempts = 4;
  /// Fault injection (borrowed, not owned). Null = never.
  runtime::FaultInjector* faults = nullptr;
  /// Engine counters land here ("dryad.*"); null = not recorded.
  std::shared_ptr<runtime::MetricsRegistry> metrics;
  /// Tracer (borrowed, not owned). Null = no tracing. Each executor slot is
  /// a track "dryad.n<node>.s<slot>"; every vertex attempt gets a task
  /// envelope span (trace id = vertex name) and dryad_select adds
  /// fetch.input / compute / upload.output children per file. queue.wait
  /// spans expose the static-placement idle tails of Figs 14-15.
  runtime::Tracer* tracer = nullptr;
};

/// A vertex computation. Runs on an executor thread of its pinned node;
/// throwing fails the attempt (re-run up to the runtime's retry budget).
using VertexFn = std::function<void()>;

struct Vertex {
  std::string name;
  NodeId node = 0;
  VertexFn fn;
};

struct VertexAttempt {
  /// Index of the vertex in the list passed to DryadRuntime::run.
  int vertex_id = 0;
  int attempt = 0;
  NodeId node = 0;
  bool succeeded = false;
  std::string error;
};

struct RunReport {
  bool succeeded = false;
  std::vector<VertexAttempt> attempts;
  Seconds elapsed = 0.0;
};

class DryadRuntime {
 public:
  explicit DryadRuntime(RuntimeConfig config);

  const RuntimeConfig& config() const { return config_; }

  /// Executes the vertices; returns when every vertex succeeded or some
  /// vertex exhausted its retries (the job has then failed). Throws
  /// ppc::InvalidArgument on a vertex pinned outside the cluster or without
  /// a function.
  RunReport run(const std::vector<Vertex>& vertices);

 private:
  RuntimeConfig config_;
};

/// The map-style select: applies `fn(file_name, contents) -> output bytes`
/// to every file of every partition. Outputs are written to the executing
/// node's share as "<file>.out" and also returned keyed by file name.
struct SelectResult {
  RunReport report;
  std::map<std::string, std::string> outputs;
};

SelectResult dryad_select(
    DryadRuntime& runtime, FileShare& share, const PartitionedTable& table,
    const std::function<std::string(const std::string& name, const std::string& contents)>& fn);

}  // namespace ppc::dryad
