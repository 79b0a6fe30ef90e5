#include "sim/shuffle_run.h"

#include <sstream>

namespace ppc::sim {

RunReport run_shuffle_job(const EngineRunSpec& spec, const AppJob& job, bool verify) {
  RunReport report = run_engine(spec, job);
  if (!verify || !report.succeeded) return report;
  // Different cluster shape, different reducer sort budget (forcing a
  // different spill schedule) — the canonical bytes must not move.
  EngineRunSpec alt = spec;
  alt.num_workers = spec.num_workers == 1 ? 2 : 1;
  alt.slots_per_node = spec.slots_per_node + 1;
  alt.sort_memory_budget = 0.0;
  alt.trace = false;
  const RunReport rerun = run_engine(alt, job);
  if (!rerun.succeeded || mapreduce::encode_canonical(rerun.outputs) !=
                              mapreduce::encode_canonical(report.outputs)) {
    report.failures.push_back("determinism: MISMATCH across cluster shapes");
    report.succeeded = false;
  }
  return report;
}

std::string shuffle_text(const RunReport& report, const EngineRunSpec& spec,
                         const std::string& app, std::uint64_t seed, int files, bool verify) {
  const mapreduce::ShuffleStats& shuffle = report.shuffle;
  const std::string canonical =
      report.succeeded ? mapreduce::encode_canonical(report.outputs) : "";
  std::ostringstream os;
  os << "shuffle app=" << app << " seed=" << seed << " maps=" << files
     << " reducers=" << spec.num_reducers << (report.succeeded ? " OK" : " FAILED") << "\n";
  for (const auto& failure : report.failures) os << "  FAIL: " << failure << "\n";
  os << "  groups=" << (report.succeeded ? report.outputs.size() : 0)
     << " canonical_bytes=" << canonical.size() << "\n";
  os << "  map: spills=" << shuffle.map_spills << " spill_bytes="
     << static_cast<long long>(shuffle.map_spill_bytes)
     << " redrives=" << shuffle.map_redrives << "\n";
  os << "  shuffle: fetches=" << shuffle.fetches << " bytes="
     << static_cast<long long>(shuffle.fetched_bytes)
     << " corrupt_fetches=" << shuffle.corrupt_fetches
     << " sort_runs=" << shuffle.sort_runs_spilled << "\n";
  os << "  cost: shuffle_storage=$" << shuffle.shuffle_storage_cost << "\n";
  os << "  sched: map(local=" << report.map_stats.local_assignments
     << " remote=" << report.map_stats.remote_assignments
     << " spec=" << report.map_stats.speculative_assignments << ") reduce(spec="
     << report.reduce_stats.speculative_assignments << ")\n";
  if (verify && report.succeeded) {
    os << "  determinism: byte-identical across cluster shapes\n";
  }
  os << "  elapsed=" << report.wall_seconds << "s";
  if (!report.chrome_json.empty()) os << " trace_spans=" << report.spans;
  os << "\n";
  return os.str();
}

std::string shuffle_reproduce_line(const RunReport& report, const EngineRunSpec& spec,
                                   const std::string& app, std::uint64_t seed, int files,
                                   bool verify) {
  if (report.succeeded) return "";
  // The defaults of `ppcloud shuffle`: 6 files on 3 nodes x 2 slots, 3 reducers.
  std::string line = "reproduce with: ppcloud shuffle --app " + app +
                     " --seed " + std::to_string(seed);
  if (files != 6) line += " --files " + std::to_string(files);
  if (spec.num_workers != 3) line += " --nodes " + std::to_string(spec.num_workers);
  if (spec.slots_per_node != 2) line += " --slots " + std::to_string(spec.slots_per_node);
  if (spec.num_reducers != 3) line += " --reducers " + std::to_string(spec.num_reducers);
  if (verify) line += " --verify 1";
  return line + "\n";
}

}  // namespace ppc::sim
