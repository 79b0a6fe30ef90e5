#include "sim/trace_run.h"

#include "common/string_util.h"

namespace ppc::sim {

std::string trace_text(const RunReport& report, const std::string& substrate,
                       const std::string& app) {
  std::string out = "trace run: substrate=" + substrate + " app=" + app + " -> " +
                    (report.succeeded ? "OK" : "FAIL") + " (" +
                    std::to_string(report.outputs.size()) + " files, " +
                    std::to_string(report.spans) + " spans)\n";
  for (const auto& failure : report.failures) out += "  FAIL: " + failure + "\n";
  out += report.load.to_text();
  out += report.summary_table;
  return out;
}

std::string imbalance_comparison(const std::vector<std::string>& substrates,
                                 const std::vector<RunReport>& reports) {
  std::string out =
      "scheduling comparison (same job per substrate; imbalance = max/mean worker busy)\n";
  out += "  substrate     makespan(s)  imbalance  worst-idle-tail\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const runtime::LoadReport& load = reports[i].load;
    double worst_tail = 0.0;
    for (const runtime::WorkerLoad& w : load.workers) {
      if (w.idle_tail_fraction > worst_tail) worst_tail = w.idle_tail_fraction;
    }
    std::string name = substrates.at(i);
    name.resize(12, ' ');
    out += "  " + name + "  " + ppc::format_fixed(load.makespan, 3) + "        " +
           ppc::format_fixed(load.imbalance, 2) + "       " +
           ppc::format_fixed(worst_tail, 2) + "\n";
  }
  return out;
}

}  // namespace ppc::sim
