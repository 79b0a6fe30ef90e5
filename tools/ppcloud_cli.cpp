// ppcloud — command-line front end to the library.
//
//   ppcloud catalog                      print Tables 1-2 (instance types)
//   ppcloud features                     print Table 3 (framework features)
//   ppcloud experiment <id> [backend]    regenerate a paper experiment or
//                                        ablation (src/core/experiments.cpp):
//                                        fig3 fig5 fig7 fig9 fig10 fig12
//                                        fig14 table4 table4-deadline
//                                        variability ablation-visibility
//                                        ablation-scheduling
//                                        ablation-inhomogeneity
//                                        azure-linearity; the figures and
//                                        table4 take an optional backend,
//                                        object (default), sharedfs,
//                                        parallelfs or all (one block per
//                                        backend)
//   ppcloud simulate [options]           one simulated run, any app on any
//                                        framework and deployment:
//     --app cap3|blast|gtm               (default cap3)
//     --framework classic|hadoop|dryad   (default classic)
//     --type <catalog name>              (default EC2-HCXL; see `catalog`)
//     --instances N --workers W          (default 2 x 8)
//     --threads T                        threads per worker (default 1)
//     --files N                          task count (default 256)
//     --reads R / --queries Q / --points P   per-file work
//     --visibility S                     visibility timeout (classic only)
//     --storage object|sharedfs|parallelfs  data plane (default object;
//                                        hadoop/dryad stage inputs through
//                                        non-object backends)
//     --shared-mb M                      job-wide shared dataset of M MB
//                                        (the BLAST NR database, the GTM
//                                        training matrix; default 0)
//     --cache 1                          per-worker block cache for the
//                                        shared dataset (classic only)
//     --seed S                           RNG seed (default 42)
//   ppcloud assemble --reads N [--seed S]
//                                        run the real Cap3-style assembler
//                                        on a simulated read set, print the
//                                        report
//   ppcloud chaos [options]              run a seeded chaos campaign: the
//                                        same small job fault-free and under
//                                        an injected fault schedule, outputs
//                                        must match byte for byte:
//     --seed N                           fault-schedule seed (default 42)
//     --substrate classiccloud|azuremr|mapreduce|all   (default all)
//     --app cap3|blast|gtm               (default cap3); also
//            histogram|dedup             full-shuffle workloads (mapreduce
//                                        substrate only)
//     --shuffle 1                        shorthand: app=histogram,
//                                        substrate=mapreduce — chase faults
//                                        through spill/fetch/sort/reduce
//     --storage object|sharedfs|parallelfs  data plane (default object)
//     --cache 1                          worker block cache (classiccloud)
//     --files N --workers W              job size (default 4 x 3)
//     --json 1                           also print the metrics snapshot
//     --trace-dir DIR                    on failure, write the chaos run's
//                                        Chrome trace next to the
//                                        reproducing-seed message
//     --monitor-dir DIR                  attach a wall-clock Monitor to the
//                                        chaos run and write its time-series
//                                        JSON to DIR (period 0.05s)
//   ppcloud shuffle [options]            run a full MapReduce shuffle job
//                                        (partition → spill → fetch →
//                                        external sort → reduce) on the
//                                        real-thread engine, print the
//                                        shuffle report:
//     --app histogram|dedup              BLAST hit histogram / sequence
//                                        dedup (default histogram)
//     --seed S                           input-corpus seed (default 1)
//     --files N --nodes W --slots K      job size (default 6 x 3 x 2)
//     --reducers R                       reduce partitions (default 3)
//     --verify 1                         re-run on a different cluster shape
//                                        and require byte-identical output
//     --trace-dir DIR                    write the run's Chrome trace JSON
//   ppcloud trace [options]              run one traced job, print the
//                                        per-worker load report + per-task
//                                        summary table:
//     --substrate classiccloud|azuremr|mapreduce|dryad|all   (default all;
//                                        "all" appends the static-vs-dynamic
//                                        scheduling comparison)
//     --app cap3|blast|gtm               (default cap3)
//     --storage object|sharedfs|parallelfs  data plane (default object)
//     --cache 1                          worker block cache (classiccloud)
//     --files N --workers W              job size (default 12 x 4)
//     --skew S                           per-file work skew (default 3.0)
//     --out FILE                         write Chrome trace_event JSON for
//                                        ui.perfetto.dev (single substrate)
//     --monitor-dir DIR                  attach a wall-clock Monitor to the
//                                        run and write its time-series JSON
//                                        to DIR (period 0.05s)
//   ppcloud monitor [options]            run one DES job per substrate with
//                                        the time-series monitor attached to
//                                        the *simulation* clock; prints the
//                                        sparkline dashboard (queue depth,
//                                        utilization, cost rate) and the
//                                        alarm verdict. Deterministic: the
//                                        same options give byte-identical
//                                        --json output:
//     --substrate classiccloud|azuremr|mapreduce|dryad|all   (default all)
//     --app cap3|blast|gtm               (default cap3)
//     --files N                          task count (default 32)
//     --instances N --workers W          deployment (default 2 x 4)
//     --skew S                           per-file work skew (default 2.0)
//     --seed S                           RNG seed (default 42)
//     --period S                         sample period, sim-seconds (def. 5)
//     --alarm "RULE"                     alarm rule, parse_alarm grammar
//                                        (e.g. "queue.tasks.depth > 100 for
//                                        60s"); default: the stall rule
//     --stall-worker W --stall-at T --stall-duration D
//                                        park worker W at sim time T for D
//                                        seconds (classiccloud/azuremr)
//     --json PATH                        write Monitor JSON (single substr.)
//     --prom PATH                        write Prometheus text exposition
//   ppcloud campaign [options]           end-to-end Cap3 campaign through the
//                                        Classic Cloud DES driver with batched
//                                        receives/acks and a sim-clock
//                                        Monitor; PASS requires every task
//                                        completed, queue drained, no alarm,
//                                        wall budget met, and a byte-identical
//                                        monitor series on re-run:
//     --tasks N                          Cap3 files (default 1000000)
//     --instances N --workers W          deployment (default 32 x 8)
//     --receive-batch B --shards S       queue batching/sharding (def. 10, 8)
//     --seed S                           RNG seed (default 42)
//     --period S                         monitor period, sim-s (default 600)
//     --wall-budget S                    real-seconds budget (default 300)
//     --verify 0|1                       determinism re-run (default 1)
//     --out FILE                         write the Monitor JSON artifact
//   ppcloud autoscale [options]          elastic-fleet campaign: a deadline/
//                                        budget SchedulerPolicy sizes the
//                                        cheapest static on-demand comparator,
//                                        then the Autoscaler runs the same job
//                                        on a half-spot fleet under seeded
//                                        revocation storms; PASS requires zero
//                                        lost tasks, deadline met, the elastic
//                                        bill under the static one, real spot
//                                        savings, quiet alarms, and a byte-
//                                        identical monitor series on re-run:
//     --tasks N                          Cap3 files (default 100000)
//     --instances N --workers W          reference fleet, also the elastic
//                                        max (default 32 x 8 EC2-HCXL)
//     --deadline S                       sim-seconds; -1 derives 1.25x the
//                                        reference estimate (default -1)
//     --budget D                         Autoscaler spend cap; -1 = uncapped
//     --spot-fraction F                  target spot share (default 0.5)
//     --storms N                         revocation storms (default 2)
//     --revocation-rate P                per-spot-instance storm kill
//                                        probability (default 0.2)
//     --revocation-notice S              drain notice, 0 = hard kill (def. 90)
//     --receive-batch B --shards S       queue batching/sharding (def. 10, 8)
//     --seed S --period S                RNG seed, monitor period
//     --wall-budget S --verify 0|1       like campaign
//     --check 0|1                        nonzero exit on FAIL (default 1)
//     --out FILE                         write the Monitor JSON artifact
//     --fleet-csv FILE                   write fleet-size-vs-time CSV
//
// `ppcloud chaos` additionally takes --revocation-storm 0|1: arm correlated
// spot-revocation rules on top of the sampled plan (absorbed as crashes by
// the real-thread substrates; extra redelivery headroom is applied).
//
// Every verb rejects an option it does not read (`simulate --instance 4`,
// or --reads with --app blast) and exits 1 naming it, before anything runs.
//
// Exit status: 0 on success, 1 on bad usage (an unknown verb or option),
// a failed run (a failed chaos campaign prints the seed that reproduces it)
// or a requested artifact (--out, --json, --prom, --fleet-csv, --trace-dir,
// --monitor-dir) that could not be written.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "apps/cap3/assembler.h"
#include "apps/cap3/read_simulator.h"
#include "common/error.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/experiments.h"
#include "core/feature_matrix.h"
#include "runtime/metrics.h"
#include "sim/autoscale_run.h"
#include "sim/chaos_campaign.h"
#include "sim/des_run.h"
#include "sim/monitor_run.h"
#include "sim/saturation.h"
#include "sim/shuffle_run.h"
#include "sim/trace_run.h"
#include "storage/storage_backend.h"

using namespace ppc;
using namespace ppc::core;

namespace {

/// The --key value pairs after a verb. Every lookup marks its key read; a
/// verb calls reject_unread() once it has read all it takes, so a misspelled
/// or unused option fails the verb instead of being silently ignored.
class Options {
 public:
  Options(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      PPC_REQUIRE(key.size() > 2 && key[0] == '-' && key[1] == '-', "expected --option: " + key);
      PPC_REQUIRE(i + 1 < argc, "missing value for " + key);
      values_[key.substr(2)] = argv[++i];
    }
  }

  /// The value of --key, or null when absent.
  const std::string* find(const std::string& key) const {
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  void reject_unread() const {
    for (const auto& [key, value] : values_) {
      if (!read_.contains(key)) throw InvalidArgument("unknown option --" + key);
    }
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

std::string opt(const Options& opts, const std::string& key, const std::string& fallback) {
  const std::string* value = opts.find(key);
  return value == nullptr ? fallback : *value;
}

/// Numeric option `key` as a T, or `fallback` when absent. The whole value
/// must parse and fit T ("8x", "abc", "-1" for an unsigned, an overflow, a
/// non-finite double are all rejected) — InvalidArgument names the option
/// and the value.
template <typename T>
T opt_num(const Options& opts, const std::string& key, T fallback) {
  const std::string* given = opts.find(key);
  if (given == nullptr) return fallback;
  const std::string& text = *given;
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    const char* kind = std::is_floating_point_v<T> ? "a finite number"
                       : std::is_signed_v<T>       ? "an integer"
                                                   : "a non-negative integer";
    throw InvalidArgument("invalid --" + key + " '" + text + "': expected " + kind +
                          " in range");
  }
  return value;
}

/// Writes a requested artifact and prints "<what>: <path>". A failed write
/// prints "ppcloud: could not write <path>" and returns false; every verb
/// then exits non-zero.
bool write_artifact(const std::string& path, const std::string& data, const std::string& what) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr && std::fwrite(data.data(), 1, data.size(), f) == data.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (ok) {
    std::printf("%s: %s\n", what.c_str(), path.c_str());
  } else {
    std::fprintf(stderr, "ppcloud: could not write %s\n", path.c_str());
  }
  return ok;
}

/// --substrate (default "all"), with "all" expanded to `all`.
std::vector<std::string> substrate_list(const Options& opts, std::vector<std::string> all) {
  const std::string substrate = opt(opts, "substrate", "all");
  return substrate == "all" ? all : std::vector<std::string>{substrate};
}

int cmd_simulate(const Options& opts) {
  const std::string app = opt(opts, "app", "cap3");
  const unsigned seed = opt_num(opts, "seed", 42u);
  // Per-file work: Cap3 reads, BLAST queries or GTM points.
  const char* work = app == "blast" ? "queries" : app == "gtm" ? "points" : "reads";
  Workload workload =
      sim::make_des_workload(app, opt_num<int>(opts, "files", 256), seed, 0.0,
                             opt_num<int>(opts, work, -1));
  const Deployment d = make_deployment(
      cloud::find_type(opt(opts, "type", "EC2-HCXL")), opt_num<int>(opts, "instances", 2),
      opt_num<int>(opts, "workers", 8), opt_num<int>(opts, "threads", 1));
  const double shared_mb = opt_num(opts, "shared-mb", 0.0);
  PPC_REQUIRE(shared_mb >= 0.0, "--shared-mb must be >= 0");
  workload.shared_input_size = shared_mb * 1024.0 * 1024.0;

  sim::DesRunSpec spec;
  spec.framework = opt(opts, "framework", "classic");
  spec.params.seed = seed;
  spec.params.visibility_timeout = opt_num(opts, "visibility", 7200.0);
  spec.params.storage = storage::parse_storage_kind(opt(opts, "storage", "object"));
  spec.params.enable_block_cache = opt(opts, "cache", "0") != "0";
  spec.params.stage_inputs = spec.params.storage != storage::StorageKind::kObject;
  opts.reject_unread();
  const sim::DesRunReport run = sim::run_des(workload, d, spec);

  // Eq 1 / Eq 2 come from the registry every framework publishes into,
  // not from the per-substrate result struct.
  const RunResult& r = run.result;
  const runtime::MetricsRegistry& metrics = *run.metrics;
  const std::string prefix = r.framework + ".";
  Table table("Simulation result");
  table.set_header({"Metric", "Value"});
  table.add_row({"Framework", r.framework});
  table.add_row({"Deployment", r.deployment_label});
  table.add_row({"Tasks completed",
                 std::to_string(metrics.counter_value(prefix + "completed")) + "/" +
                     std::to_string(metrics.counter_value(prefix + "tasks"))});
  table.add_row({"Makespan", format_duration(metrics.gauge(prefix + "makespan_seconds"))});
  table.add_row({"Parallel efficiency (Eq 1)",
                 Table::num(metrics.gauge(prefix + "parallel_efficiency"), 3)});
  table.add_row({"Per-core time per task (Eq 2)",
                 Table::num(metrics.gauge(prefix + "per_core_task_seconds"), 1) + " s"});
  table.add_row({"Duplicate executions",
                 std::to_string(metrics.counter_value(prefix + "duplicate_executions"))});
  if (r.compute_cost_hour_units > 0.0) {
    table.add_row({"Compute cost (hour units)", "$" + Table::num(r.compute_cost_hour_units, 2)});
    table.add_row({"Compute cost (amortized)", "$" + Table::num(r.compute_cost_amortized, 2)});
    table.add_row({"Queue request cost", "$" + Table::num(r.queue_request_cost, 4)});
  }
  table.add_row({"Storage backend", r.storage_backend});
  if (r.storage_service_cost > 0.0) {
    table.add_row({"FS server cost", "$" + Table::num(r.storage_service_cost, 2)});
  }
  if (r.cache_hits + r.cache_misses > 0) {
    table.add_row({"Block cache hits/misses", std::to_string(r.cache_hits) + "/" +
                                                  std::to_string(r.cache_misses)});
    table.add_row({"Cache bytes saved",
                   Table::num(r.cache_bytes_saved / (1024.0 * 1024.0), 1) + " MB"});
  }
  table.print();
  return r.completed == r.tasks ? 0 : 1;
}

int cmd_assemble(const Options& opts) {
  Rng rng(opt_num(opts, "seed", 42u));
  const int reads = opt_num<int>(opts, "reads", 200);
  opts.reject_unread();
  const std::string fasta = apps::cap3::make_cap3_input(static_cast<std::size_t>(reads), rng);
  std::fputs(apps::cap3::assemble_fasta_file(fasta).c_str(), stdout);
  return 0;
}

int cmd_chaos(const Options& opts) {
  sim::ChaosConfig base;
  base.seed = opt_num<std::uint64_t>(opts, "seed", 42);
  base.app = opt(opts, "app", "cap3");
  base.num_files = opt_num<int>(opts, "files", 4);
  base.num_workers = opt_num<int>(opts, "workers", 3);
  base.storage = opt(opts, "storage", "object");
  base.enable_cache = opt(opts, "cache", "0") != "0";
  base.revocation_storm = opt(opts, "revocation-storm", "0") != "0";
  const bool print_json = opt(opts, "json", "0") != "0";
  const std::string monitor_dir = opt(opts, "monitor-dir", "");
  if (!monitor_dir.empty()) base.monitor_period = 0.05;

  // --shuffle 1: chase faults through the full shuffle pipeline instead of
  // the map-only corpus. Shuffle apps only exist on the mapreduce substrate.
  if (opt(opts, "shuffle", "0") != "0" && !sim::is_shuffle_app(base.app)) {
    base.app = "histogram";
  }

  std::vector<std::string> substrates =
      substrate_list(opts, {"classiccloud", "azuremr", "mapreduce"});
  if (sim::is_shuffle_app(base.app)) substrates = {"mapreduce"};

  const std::string trace_dir = opt(opts, "trace-dir", "");
  opts.reject_unread();

  bool all_ok = true;
  for (const std::string& s : substrates) {
    sim::ChaosConfig config = base;
    config.substrate = s;
    const sim::ChaosReport report = sim::run_chaos_campaign(config);
    std::fputs(report.to_text().c_str(), stdout);
    if (print_json) std::printf("%s\n", report.metrics_json.c_str());
    if (!monitor_dir.empty() && !report.monitor_json.empty() &&
        !write_artifact(monitor_dir + "/chaos-monitor-" + s + ".json", report.monitor_json,
                        "chaos-run monitor series")) {
      all_ok = false;
    }
    if (!report.passed) {
      all_ok = false;
      std::printf("reproduce with: ppcloud chaos --seed %llu --substrate %s --app %s%s\n",
                  static_cast<unsigned long long>(report.seed), s.c_str(),
                  base.app.c_str(),
                  base.revocation_storm ? " --revocation-storm 1" : "");
      if (!trace_dir.empty() && !report.trace_json.empty()) {
        write_artifact(trace_dir + "/chaos-trace-" + s + "-seed" +
                           std::to_string(report.seed) + ".json",
                       report.trace_json,
                       "chaos-run trace (" + std::to_string(report.trace_spans) + " spans)");
      }
    }
  }
  return all_ok ? 0 : 1;
}

int cmd_shuffle(const Options& opts) {
  sim::ShuffleRunConfig config;
  config.app = opt(opts, "app", "histogram");
  config.seed = opt_num<std::uint64_t>(opts, "seed", 1);
  config.num_files = opt_num<int>(opts, "files", 6);
  config.num_nodes = opt_num<int>(opts, "nodes", 3);
  config.slots_per_node = opt_num<int>(opts, "slots", 2);
  config.num_reducers = opt_num<int>(opts, "reducers", 3);
  config.verify_determinism = opt(opts, "verify", "0") != "0";
  const std::string trace_dir = opt(opts, "trace-dir", "");
  config.trace = !trace_dir.empty();
  opts.reject_unread();

  const sim::ShuffleRunReport report = sim::run_shuffle_job(config);
  std::fputs(report.to_text().c_str(), stdout);
  bool ok = report.succeeded;
  if (!trace_dir.empty() && !report.trace_json.empty() &&
      !write_artifact(trace_dir + "/shuffle-trace-" + config.app + "-seed" +
                          std::to_string(config.seed) + ".json",
                      report.trace_json,
                      "shuffle trace (" + std::to_string(report.trace_spans) + " spans)")) {
    ok = false;
  }
  if (report.determinism_verified && !report.determinism_ok) {
    std::printf("reproduce with: ppcloud shuffle --app %s --seed %llu --verify 1\n",
                config.app.c_str(), static_cast<unsigned long long>(config.seed));
    ok = false;
  }
  return ok ? 0 : 1;
}

int cmd_trace(const Options& opts) {
  sim::TraceRunConfig base;
  base.app = opt(opts, "app", "cap3");
  base.num_files = opt_num<int>(opts, "files", 12);
  base.num_workers = opt_num<int>(opts, "workers", 4);
  base.skew = opt_num(opts, "skew", 3.0);
  base.storage = opt(opts, "storage", "object");
  base.enable_cache = opt(opts, "cache", "0") != "0";
  const std::string out_path = opt(opts, "out", "");
  const std::string monitor_dir = opt(opts, "monitor-dir", "");
  if (!monitor_dir.empty()) base.monitor_period = 0.05;

  const std::vector<std::string> substrates =
      substrate_list(opts, {"classiccloud", "azuremr", "mapreduce", "dryad"});
  PPC_REQUIRE(out_path.empty() || substrates.size() == 1,
              "--out needs a single --substrate");
  opts.reject_unread();

  bool all_ok = true;
  std::vector<sim::TraceRunReport> reports;
  for (const std::string& s : substrates) {
    sim::TraceRunConfig config = base;
    config.substrate = s;
    sim::TraceRunReport report = sim::run_traced_job(config);
    std::fputs(report.to_text().c_str(), stdout);
    if (!report.succeeded) all_ok = false;
    if (!monitor_dir.empty() && !report.monitor_json.empty() &&
        !write_artifact(monitor_dir + "/trace-monitor-" + s + ".json", report.monitor_json,
                        "trace-run monitor series")) {
      all_ok = false;
    }
    if (!out_path.empty() &&
        !write_artifact(out_path, report.chrome_json,
                        "trace (" + std::to_string(report.spans) + " spans)")) {
      all_ok = false;
    }
    reports.push_back(std::move(report));
  }
  if (reports.size() > 1) std::fputs(sim::imbalance_comparison(reports).c_str(), stdout);
  return all_ok ? 0 : 1;
}

int cmd_monitor(const Options& opts) {
  sim::MonitorRunConfig base;
  base.app = opt(opts, "app", "cap3");
  base.num_files = opt_num<int>(opts, "files", 32);
  base.instances = opt_num<int>(opts, "instances", 2);
  base.workers_per_instance = opt_num<int>(opts, "workers", 4);
  base.skew = opt_num(opts, "skew", 2.0);
  base.seed = opt_num(opts, "seed", 42u);
  base.period = opt_num(opts, "period", 5.0);
  base.stall_worker = opt_num<int>(opts, "stall-worker", -1);
  base.stall_at = opt_num(opts, "stall-at", -1.0);
  base.stall_duration = opt_num(opts, "stall-duration", 0.0);
  if (const std::string* alarm = opts.find("alarm")) base.alarms = {*alarm};
  const std::string json_path = opt(opts, "json", "");
  const std::string prom_path = opt(opts, "prom", "");

  const std::vector<std::string> substrates =
      substrate_list(opts, {"classiccloud", "azuremr", "mapreduce", "dryad"});
  PPC_REQUIRE((json_path.empty() && prom_path.empty()) || substrates.size() == 1,
              "--json/--prom need a single --substrate");
  opts.reject_unread();

  bool all_ok = true;
  for (const std::string& s : substrates) {
    sim::MonitorRunConfig config = base;
    config.substrate = s;
    const sim::MonitorRunReport report = sim::run_monitored_job(config);
    std::fputs(report.to_text().c_str(), stdout);
    if (report.completed != report.tasks) all_ok = false;
    if (!json_path.empty() &&
        !write_artifact(json_path, report.monitor_json, "monitor series")) {
      all_ok = false;
    }
    if (!prom_path.empty() &&
        !write_artifact(prom_path, report.prometheus, "prometheus exposition")) {
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

/// The nine options `campaign` and `autoscale` share.
template <typename Config>
void parse_campaign_options(const Options& opts, Config& config) {
  config.tasks = opt_num<int>(opts, "tasks", config.tasks);
  config.instances = opt_num<int>(opts, "instances", config.instances);
  config.workers_per_instance = opt_num<int>(opts, "workers", config.workers_per_instance);
  config.receive_batch = opt_num<int>(opts, "receive-batch", config.receive_batch);
  config.queue_shards = opt_num<int>(opts, "shards", config.queue_shards);
  config.seed = opt_num(opts, "seed", config.seed);
  config.monitor_period = opt_num(opts, "period", config.monitor_period);
  config.wall_budget = opt_num(opts, "wall-budget", config.wall_budget);
  config.verify_determinism = opt(opts, "verify", "1") != "0";
}

int cmd_autoscale(const Options& opts) {
  sim::AutoscaleCampaignConfig config;
  parse_campaign_options(opts, config);
  config.deadline = opt_num(opts, "deadline", config.deadline);
  config.budget = opt_num(opts, "budget", config.budget);
  config.spot_fraction = opt_num(opts, "spot-fraction", config.spot_fraction);
  config.storms = opt_num<int>(opts, "storms", config.storms);
  config.revocation_rate = opt_num(opts, "revocation-rate", config.revocation_rate);
  config.revocation_notice = opt_num(opts, "revocation-notice", config.revocation_notice);
  const bool check = opt(opts, "check", "1") != "0";
  const std::string out_path = opt(opts, "out", "");
  const std::string csv_path = opt(opts, "fleet-csv", "");
  opts.reject_unread();

  const sim::AutoscaleReport report = sim::run_autoscale_campaign(config);
  std::fputs(report.to_text().c_str(), stdout);
  if (!out_path.empty() &&
      !write_artifact(out_path, report.monitor_json, "autoscale monitor series")) {
    return 1;
  }
  if (!csv_path.empty() &&
      !write_artifact(csv_path, report.fleet_series_csv(), "fleet size series")) {
    return 1;
  }
  return (report.passed || !check) ? 0 : 1;
}

int cmd_campaign(const Options& opts) {
  sim::CampaignConfig config;
  parse_campaign_options(opts, config);
  const std::string out_path = opt(opts, "out", "");
  opts.reject_unread();

  const sim::CampaignReport report = sim::run_million_task_campaign(config);
  std::fputs(report.to_text().c_str(), stdout);
  if (!out_path.empty() &&
      !write_artifact(out_path, report.monitor_json, "campaign monitor series")) {
    return 1;
  }
  return report.passed ? 0 : 1;
}

int usage() {
  std::fputs(
      "usage: ppcloud <catalog|features|assemble|simulate|experiment|chaos|shuffle|trace|"
      "monitor|campaign|autoscale> [options]\n"
      "see the header comment of tools/ppcloud_cli.cpp or README.md for details\n",
      stderr);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "experiment") {
      if (argc < 3) return usage();
      if (argc > 4) return usage();
      core::run_experiment(argv[2], argc == 4 ? argv[3] : "");
      return 0;
    }
    const Options opts(argc, argv, 2);
    if (command == "catalog" || command == "features") {
      opts.reject_unread();
      if (command == "catalog") {
        core::print_catalog();
      } else {
        feature_matrix_table().print();
      }
      return 0;
    }
    if (command == "simulate") return cmd_simulate(opts);
    if (command == "assemble") return cmd_assemble(opts);
    if (command == "chaos") return cmd_chaos(opts);
    if (command == "shuffle") return cmd_shuffle(opts);
    if (command == "trace") return cmd_trace(opts);
    if (command == "monitor") return cmd_monitor(opts);
    if (command == "campaign") return cmd_campaign(opts);
    if (command == "autoscale") return cmd_autoscale(opts);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppcloud: %s\n", e.what());
    return 1;
  }
}
