// perfbench — the repo benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints one detail line (stamps, sample counts, percentiles, per-engine
// numbers) and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits non-zero without a result line on bad arguments, on a workload that
// needs more threads than this host has CPUs, or on an internal error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunArgs;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pp_apps_skewed|blast_db_refetch|shuffle_dedup|des_campaign> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument: " + key).c_str());
    opts[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every option takes a value");
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (opts.count(required) == 0) return usage((std::string("missing --") + required).c_str());
  }

  RunArgs args;
  args.workload = opts["workload"];
  try {
    args.seed = std::stoull(opts["seed"]);
    args.seconds = std::stod(opts["seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds must be numbers");
  }
  if (opts["trace"] != "0" && opts["trace"] != "1") return usage("--trace must be 0 or 1");
  args.trace = opts["trace"] == "1";
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) return usage("--seconds must be in (0, 120]");

  using Runner = Outcome (*)(const RunArgs&);
  const std::map<std::string, Runner> workloads = {
      {"pp_apps_skewed", perfbench::run_pp_apps_skewed},
      {"blast_db_refetch", perfbench::run_blast_db_refetch},
      {"shuffle_dedup", perfbench::run_shuffle_dedup},
      {"des_campaign", perfbench::run_des_campaign},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return usage(("unknown workload: " + args.workload).c_str());

  const int cpus = perfbench::usable_cpus();
  const int threads = perfbench::workload_threads(args.workload);
  if (threads > cpus) {
    std::fprintf(stderr,
                 "perfbench: %s is configured with %d threads but this host has %d CPUs; "
                 "refusing to run\n",
                 args.workload.c_str(), threads, cpus);
    return 3;
  }

  Outcome out;
  try {
    out = it->second(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  if (args.trace) {
    perfbench::complete_per_layer(out);
  } else {
    out.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  }
  std::set<std::string> names;
  for (const auto& m : out.metrics) names.insert(m.name);
  if (!args.trace) {
    for (const auto& name : perfbench::end_to_end_names()) {
      if (names.count(name) == 0) out.fail("end-to-end metric not reported: " + name);
    }
  }

  std::string problems = "[";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    problems += (i > 0 ? ", " : "") + perfbench::json_escape(out.problems[i]);
  }
  problems += "]";
  perfbench::JsonObject stamp;
  stamp.str("workload", args.workload)
      .integer("seed", static_cast<long long>(args.seed))
      .num("seconds", args.seconds)
      .boolean("trace", args.trace)
      .integer("nproc", cpus)
      .integer("threads", threads)
      .str("git_sha", env_or("PERFBENCH_GIT_SHA", "unknown"))
      .str("source_digest", env_or("PERFBENCH_SOURCE_DIGEST", "unknown"))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .raw("problems", problems)
      .raw("detail", out.detail.dump());
  std::printf("%s\n", stamp.dump().c_str());

  perfbench::JsonObject metrics;
  for (const auto& m : out.metrics) {
    perfbench::JsonObject v;
    v.num("value", m.value).str("unit", m.unit);
    metrics.raw(m.name, v.dump());
  }
  perfbench::JsonObject result;
  result.boolean("correct", out.problems.empty())
      .integer("attempted", out.attempted)
      .integer("failed", out.failed)
      .raw("metrics", metrics.dump());
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
