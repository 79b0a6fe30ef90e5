// Metric names, thread budgets, and the direct fnv1a64 measurement.
#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "workloads.h"

namespace perfbench {

int workload_threads(const std::string& workload) {
  // Three workers or slots plus the coordinator for the real-thread
  // workloads; the DES drivers are single-threaded.
  return workload == "des_campaign" ? 1 : 4;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "tasks_per_s", "job_s", "parallel_eff", "mb_per_s", "sim_cost_usd", "setup_s",
      "peak_rss_mb"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"apps.cap3.task_ms", "ms"},
        {"apps.blast.task_ms", "ms"},
        {"apps.gtm.task_ms", "ms"},
        {"apps.compute_share", "ratio"},
    };
    for (const char* engine : {"classiccloud", "azuremr", "mapreduce", "dryad"}) {
      const std::string e = engine;
      n.push_back({e + ".job_s", "s"});
      n.push_back({e + ".imbalance", "ratio"});
      n.push_back({e + ".idle_tail_frac", "ratio"});
      n.push_back({e + ".overhead_share", "ratio"});
    }
    const std::pair<const char*, const char*> rest[] = {
        {"storage.get_ms", "ms"},
        {"storage.put_ms", "ms"},
        {"storage.gets", "count"},
        {"storage.puts", "count"},
        {"storage.mb_out", "MB"},
        {"storage.busy_share", "ratio"},
        {"storage.checksum_share", "ratio"},
        {"common.fnv1a64.gb_per_s", "GB/s"},
        {"storage.block_cache.hit_ratio", "ratio"},
        {"storage.block_cache.fetch_us", "us"},
        {"cloudq.op_us", "us"},
        {"cloudq.empty_receive_ratio", "ratio"},
        {"cloudq.busy_share", "ratio"},
        {"runtime.task_lifecycle.redeliveries", "count"},
        {"mapreduce.shuffle.map_s", "s"},
        {"mapreduce.shuffle.reduce_s", "s"},
        {"mapreduce.shuffle.map_fn_s", "s"},
        {"mapreduce.shuffle.reduce_fn_s", "s"},
        {"mapreduce.shuffle.spill_put_ms", "ms"},
        {"mapreduce.shuffle.fetch_get_ms", "ms"},
        {"mapreduce.shuffle.sort_self_s", "s"},
        {"mapreduce.shuffle.spill_amplification", "ratio"},
        {"mapreduce.shuffle.sort_runs", "count"},
        {"core.classic_sim.tasks_per_s", "1/s"},
        {"core.elastic_sim.tasks_per_s", "1/s"},
        {"core.mapreduce_sim.tasks_per_s", "1/s"},
        {"core.dryad_sim.tasks_per_s", "1/s"},
        {"core.api_requests", "count"},
        {"runtime.tracer.overhead_ratio", "ratio"},
    };
    for (const auto& [name, unit] : rest) n.push_back({name, unit});
    return n;
  }();
  return names;
}

void complete_per_layer(Outcome& out) {
  std::set<std::string> have;
  for (const Metric& m : out.metrics) have.insert(m.name);
  std::string missing;
  for (const auto& [name, unit] : per_layer_names()) {
    if (have.count(name) != 0) continue;
    out.add(name, 0.0, unit);
    missing += (missing.empty() ? "" : " ") + name;
  }
  out.detail.str("not_exercised", missing);
}

double measure_fnv_gb_per_s(std::uint64_t* buffer_bytes, std::uint64_t* llc) {
  // At least 4x the last-level cache, capped at 256 MiB to bound memory;
  // fnv1a64 is a byte-serial multiply chain, so the rate is compute-bound.
  constexpr std::uint64_t kCap = 256ull << 20;
  const std::uint64_t cache = llc_bytes();
  const std::uint64_t size = std::min(kCap, std::max<std::uint64_t>(4 * cache, 64ull << 20));
  std::string buffer(size, '\0');
  ppc::Rng rng(0xF1A5);
  for (std::size_t i = 0; i + 8 <= buffer.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(buffer.data() + i, &v, sizeof(v));
  }
  std::vector<double> rates;
  volatile std::uint64_t sink = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const double t0 = now_s();
    sink = sink + ppc::fnv1a64(buffer);
    rates.push_back(static_cast<double>(size) / 1e9 / (now_s() - t0));
  }
  if (buffer_bytes != nullptr) *buffer_bytes = size;
  if (llc != nullptr) *llc = cache;
  return median(rates);
}

}  // namespace perfbench
