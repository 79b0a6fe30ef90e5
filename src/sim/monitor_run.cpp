#include "sim/monitor_run.h"

#include <cstdio>

#include "common/error.h"

namespace ppc::sim {

std::pair<std::string, const cloud::InstanceType*> des_model(const std::string& s) {
  const bool classic = s == "classiccloud" || s == "azuremr";
  PPC_REQUIRE(classic || s == "mapreduce" || s == "dryad", "unknown substrate: " + s);
  const cloud::InstanceType& type = s == "classiccloud" ? cloud::ec2_hcxl()
                                    : s == "azuremr"    ? cloud::azure_large()
                                    : s == "mapreduce"  ? cloud::bare_metal_idataplex_node()
                                                        : cloud::bare_metal_hpcs_node();
  return {classic ? "classic" : s == "mapreduce" ? "hadoop" : "dryad", &type};
}

std::string monitor_text(const RunReport& report, const std::string& substrate) {
  const core::RunResult& r = report.result;
  char line[256];
  std::snprintf(line, sizeof(line),
                "=== monitor: %s (%s) — %d/%d tasks, makespan %.1fs, %llu samples ===\n",
                substrate.c_str(), r.framework.c_str(), r.completed, r.tasks, r.makespan,
                static_cast<unsigned long long>(report.samples));
  return line + report.dashboard + (report.degraded ? "verdict: DEGRADED\n" : "verdict: healthy\n");
}

}  // namespace ppc::sim
