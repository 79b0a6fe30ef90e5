#include "sim/trace_run.h"

#include <utility>

#include "common/string_util.h"
#include "sim/app_job.h"
#include "sim/engine_run.h"

namespace ppc::sim {

TraceRunReport run_traced_job(const TraceRunConfig& config) {
  TraceRunReport report;
  report.substrate = config.substrate;
  report.app = config.app;

  const AppJob app = make_app_job(config.app, config.num_files, config.skew);
  runtime::Tracer tracer;
  tracer.enable();
  EngineRunSpec spec;
  spec.substrate = config.substrate;
  spec.job = "trace";
  spec.storage = config.storage;
  spec.enable_cache = config.enable_cache;
  spec.num_workers = config.num_workers;
  spec.tracer = &tracer;
  spec.monitor_period = config.monitor_period;
  EngineRun run = run_engine(spec, app);
  tracer.disable();

  report.succeeded = run.succeeded;
  report.files_processed = run.outputs.size();
  report.failures = std::move(run.failures);
  report.monitor_json = std::move(run.monitor_json);
  report.spans = tracer.completed_spans();
  report.chrome_json = tracer.to_chrome_json();
  report.summary_table = tracer.summary_table();
  report.load = tracer.load_report();
  return report;
}

std::string TraceRunReport::to_text() const {
  std::string out = "trace run: substrate=" + substrate + " app=" + app + " -> " +
                    (succeeded ? "OK" : "FAIL") + " (" + std::to_string(files_processed) +
                    " files, " + std::to_string(spans) + " spans)\n";
  for (const auto& failure : failures) out += "  FAIL: " + failure + "\n";
  out += load.to_text();
  out += summary_table;
  return out;
}

std::string imbalance_comparison(const std::vector<TraceRunReport>& reports) {
  std::string out =
      "scheduling comparison (same job per substrate; imbalance = max/mean worker busy)\n";
  out += "  substrate     makespan(s)  imbalance  worst-idle-tail\n";
  for (const TraceRunReport& r : reports) {
    double worst_tail = 0.0;
    for (const runtime::WorkerLoad& w : r.load.workers) {
      if (w.idle_tail_fraction > worst_tail) worst_tail = w.idle_tail_fraction;
    }
    std::string name = r.substrate;
    name.resize(12, ' ');
    out += "  " + name + "  " + ppc::format_fixed(r.load.makespan, 3) + "        " +
           ppc::format_fixed(r.load.imbalance, 2) + "       " +
           ppc::format_fixed(worst_tail, 2) + "\n";
  }
  return out;
}

}  // namespace ppc::sim
