#include "sim/shuffle_run.h"

#include <sstream>

#include "sim/engine_run.h"

namespace ppc::sim {

ShuffleRunReport run_shuffle_job(const ShuffleRunConfig& config) {
  const AppJob app_job = make_shuffle_app(config.app, config.num_files, config.seed);

  runtime::Tracer tracer;
  if (config.trace) tracer.enable();

  EngineRunSpec spec;
  spec.substrate = "mapreduce";
  spec.job = config.app + "-" + std::to_string(config.seed);
  spec.num_workers = config.num_nodes;
  spec.slots_per_node = config.slots_per_node;
  spec.num_reducers = config.num_reducers;
  spec.tracer = config.trace ? &tracer : nullptr;
  const EngineRun run = run_engine(spec, app_job);

  ShuffleRunReport report;
  report.app = config.app;
  report.seed = config.seed;
  report.maps = config.num_files;
  report.reducers = config.num_reducers;
  report.succeeded = run.succeeded;
  if (run.succeeded) {
    report.groups = run.outputs.size();
    report.canonical = mapreduce::encode_canonical(run.outputs);
  }
  report.shuffle = run.shuffle;
  report.map_stats = run.map_stats;
  report.reduce_stats = run.reduce_stats;
  report.elapsed = run.elapsed;
  if (config.trace) {
    report.trace_json = tracer.to_chrome_json();
    report.trace_spans = tracer.completed_spans();
  }

  if (config.verify_determinism && report.succeeded) {
    // Different cluster shape, different reducer sort budget (forcing a
    // different spill schedule) — the canonical bytes must not move.
    spec.num_workers = config.num_nodes == 1 ? 2 : 1;
    spec.slots_per_node = config.slots_per_node + 1;
    spec.sort_memory_budget = 0.0;
    spec.tracer = nullptr;
    const EngineRun alt = run_engine(spec, app_job);
    report.determinism_verified = true;
    report.determinism_ok =
        alt.succeeded && mapreduce::encode_canonical(alt.outputs) == report.canonical;
  }
  return report;
}

std::string ShuffleRunReport::to_text() const {
  std::ostringstream os;
  os << "shuffle app=" << app << " seed=" << seed << " maps=" << maps
     << " reducers=" << reducers << (succeeded ? " OK" : " FAILED") << "\n";
  os << "  groups=" << groups << " canonical_bytes=" << canonical.size() << "\n";
  os << "  map: spills=" << shuffle.map_spills << " spill_bytes="
     << static_cast<long long>(shuffle.map_spill_bytes)
     << " redrives=" << shuffle.map_redrives << "\n";
  os << "  shuffle: fetches=" << shuffle.fetches << " bytes="
     << static_cast<long long>(shuffle.fetched_bytes)
     << " corrupt_fetches=" << shuffle.corrupt_fetches
     << " sort_runs=" << shuffle.sort_runs_spilled << "\n";
  os << "  cost: shuffle_storage=$" << shuffle.shuffle_storage_cost << "\n";
  os << "  sched: map(local=" << map_stats.local_assignments
     << " remote=" << map_stats.remote_assignments
     << " spec=" << map_stats.speculative_assignments << ") reduce(spec="
     << reduce_stats.speculative_assignments << ")\n";
  if (determinism_verified) {
    os << "  determinism: " << (determinism_ok ? "byte-identical across cluster shapes" : "MISMATCH")
       << "\n";
  }
  os << "  elapsed=" << elapsed << "s";
  if (!trace_json.empty()) os << " trace_spans=" << trace_spans;
  os << "\n";
  return os.str();
}

}  // namespace ppc::sim
