// Renderers for the paper's evaluation and its ablations, and the id table
// of `ppcloud experiment`. The numbers come from core/experiments.h (the
// data API tests/core/test_shapes.cpp checks) and, for the ablation sweeps,
// straight from the DES drivers. EXPERIMENTS.md quotes this output and
// tests/golden/ pins it byte for byte.
//
// Set PPC_CSV_DIR=<dir> to additionally dump every instance-type and
// scaling series as a CSV file named after its table title, for plotting
// the figures with an external tool.
#include "experiments.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cloud/instance_types.h"
#include "common/error.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/drivers.h"
#include "core/experiments.h"
#include "runtime/metrics.h"
#include "storage/storage_backend.h"

namespace ppc::tools {
namespace {

using core::AppKind;
using core::Deployment;
using core::ExecutionModel;
using core::RunResult;
using core::SimRunParams;
using core::Workload;
using Backends = std::vector<storage::StorageKind>;

// --- Shared renderers --------------------------------------------------------

/// "Cap3 compute time (Fig 4)" -> "cap3_compute_time_fig_4".
std::string csv_slug(const std::string& title) {
  std::string slug;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

/// Writes header + rows to $PPC_CSV_DIR/<slug>.csv when the env var is set.
void maybe_write_csv(const std::string& title, const std::string& header,
                     const std::vector<std::string>& rows) {
  const char* dir = std::getenv("PPC_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + csv_slug(title) + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << header << '\n';
  for (const auto& row : rows) out << row << '\n';
  std::printf("(csv written to %s)\n", path.c_str());
}

/// The rows `run(backend)` returns for each backend, concatenated.
template <typename Run>
auto over_backends(const Backends& backends, Run run) {
  decltype(run(backends.front())) rows;
  for (const auto backend : backends) {
    const auto part = run(backend);
    rows.insert(rows.end(), part.begin(), part.end());
  }
  return rows;
}

void print_instance_type_rows(const std::string& title,
                              const std::vector<core::InstanceTypeRow>& rows) {
  Table table(title);
  table.set_header({"Deployment", "Storage", "Compute time", "Cost (hour units) $",
                    "Amortized cost $", "FS servers $"});
  std::vector<std::string> csv_rows;
  for (const auto& r : rows) {
    table.add_row({r.label, r.storage, format_duration(r.compute_time),
                   Table::num(r.cost_hour_units, 2), Table::num(r.cost_amortized, 2),
                   r.storage_service_cost > 0 ? Table::num(r.storage_service_cost, 2) : "-"});
    csv_rows.push_back(r.label + "," + r.storage + "," + Table::num(r.compute_time, 1) + "," +
                       Table::num(r.cost_hour_units, 4) + "," + Table::num(r.cost_amortized, 4) +
                       "," + Table::num(r.storage_service_cost, 4));
  }
  table.print();
  maybe_write_csv(title,
                  "deployment,storage,compute_time_s,cost_hour_units,cost_amortized,"
                  "fs_server_cost",
                  csv_rows);
}

void print_scaling_points(const std::string& title, const std::vector<core::ScalingPoint>& points) {
  Table table(title);
  table.set_header({"Framework", "Deployment", "Storage", "Files", "Parallel efficiency (Eq 1)",
                    "Per-core time per file s (Eq 2)", "Makespan"});
  std::vector<std::string> csv_rows;
  for (const auto& p : points) {
    table.add_row({p.framework, p.deployment, p.storage, std::to_string(p.files),
                   Table::num(p.efficiency, 3), Table::num(p.per_core_task_seconds, 1),
                   format_duration(p.makespan)});
    csv_rows.push_back(p.framework + "," + p.deployment + "," + p.storage + "," +
                       std::to_string(p.files) + "," + Table::num(p.efficiency, 4) + "," +
                       Table::num(p.per_core_task_seconds, 2) + "," +
                       Table::num(p.makespan, 1));
  }
  table.print();
  maybe_write_csv(title, "framework,deployment,storage,files,efficiency,per_core_task_s,makespan_s",
                  csv_rows);
}

void print_instance_catalog(const std::string& title,
                            const std::vector<cloud::InstanceType>& types) {
  Table table(title);
  table.set_header({"Instance Type", "Memory GB", "ECU", "CPU cores", "Clock GHz", "Cost/hour $",
                    "Mem/core GB", "Mem BW GB/s"});
  for (const auto& t : types) {
    table.add_row({t.name, Table::num(t.memory_gb, 1),
                   t.ec2_compute_units > 0 ? std::to_string(t.ec2_compute_units) : "-",
                   std::to_string(t.cpu_cores), Table::num(t.clock_ghz, 2),
                   Table::num(t.cost_per_hour, 2), Table::num(t.memory_per_core_gb(), 2),
                   Table::num(t.memory_bandwidth_gbps, 1)});
  }
  table.print();
}

SimRunParams fixed_params(unsigned seed) {
  SimRunParams params;
  params.seed = seed;
  params.provider_variability = false;
  return params;
}

// --- Figures 3/4, 7/8, 12/13: one app on the EC2 instance types -------------

// Paper shape: HM4XL fastest (3.25 GHz); HCXL most cost-effective; L and XL
// tie (same clock); memory is not a Cap3 bottleneck.
void fig3(const Backends& backends) {
  std::puts("== Figures 3 & 4: Cap3 on EC2 instance types ==");
  std::puts("Workload: 200 files x 200 reads, 16 cores, Classic Cloud (simulated)\n");
  print_instance_type_rows("Cap3 compute time (Fig 4) and cost (Fig 3)",
                           over_backends(backends, [](storage::StorageKind b) {
                             return core::run_cap3_ec2_instance_study(42, b);
                           }));
  std::puts("\nExpected shape: HM4XL fastest; HCXL cheapest; L ≈ XL (memory no bottleneck).");
}

// Paper shape: XL ≈ HCXL despite the clock gap (memory compensates); HM4XL
// fastest but expensive; HCXL most cost-effective.
void fig7(const Backends& backends) {
  std::puts("== Figures 7 & 8: BLAST on EC2 instance types ==");
  std::puts("Workload: 64 query files x 100 queries, 16 cores, NR-like 8.7 GB database\n");
  print_instance_type_rows("BLAST compute time (Fig 8) and cost (Fig 7)",
                           over_backends(backends, [](storage::StorageKind b) {
                             return core::run_blast_ec2_instance_study(42, b);
                           }));
  std::puts("\nExpected shape: XL ≈ HCXL; HM4XL fastest (clock + full DB residency);");
  std::puts("HCXL again the most cost-effective choice.");
}

// Paper shape: memory (size and bandwidth) is the bottleneck; HM4XL best
// performance; HCXL still the most economical.
void fig12(const Backends& backends) {
  std::puts("== Figures 12 & 13: GTM Interpolation on EC2 instance types ==");
  std::puts("Workload: 264 files x 100k points (26.4M points, 166-d), 16 cores\n");
  print_instance_type_rows("GTM compute time (Fig 13) and cost (Fig 12)",
                           over_backends(backends, [](storage::StorageKind b) {
                             return core::run_gtm_ec2_instance_study(42, b);
                           }));
  std::puts("\nExpected shape: HM4XL fastest; Large beats HCXL/XL (fewer cores per memory");
  std::puts("bus); HCXL remains the economical choice.");
}

// Figure 9: the (workers per instance) x (threads per worker) grid of each
// Azure type, 8 cores total. Paper shape: Large/XL best (the 8.7 GB
// database fits in memory); Small worst; pure threads slightly slower than
// multiple worker processes.
void fig9(const Backends& backends) {
  std::puts("== Figure 9: BLAST on Azure instance types (workers x threads grid) ==");
  std::puts("Workload: 8 query files x 100 queries; 8 cores total per configuration\n");
  Table table("BLAST time to process 8 query files");
  table.set_header({"Configuration (type - instances x workers [x threads])", "Storage",
                    "Compute time", "Amortized cost $"});
  for (const auto backend : backends) {
    for (const auto& r : core::run_blast_azure_instance_study(42, backend)) {
      table.add_row({r.label, storage::to_string(backend), format_duration(r.compute_time),
                     Table::num(r.cost_amortized, 3)});
    }
  }
  table.print();
  std::puts("\nExpected shape: Small slowest -> XL fastest (memory ladder); within a type,");
  std::puts("all-threads configurations trail all-process configurations slightly.");
}

// --- Figures 5/6, 10/11, 14/15: scalability across the four frameworks ------

// Deployments per §4.2: EC2 = 16 HCXL (128 workers), Azure = 128 Small,
// Hadoop and DryadLINQ on the 32-node x 8-core bare-metal cluster
// (DryadLINQ under Windows, hence the ~12.5% faster Cap3 binary).
void fig5(const Backends& backends) {
  std::puts("== Figures 5 & 6: Cap3 scalability across frameworks ==\n");
  print_scaling_points("Cap3 parallel efficiency (Fig 5) / per-core file time (Fig 6)",
                       over_backends(backends, [](storage::StorageKind b) {
                         return core::run_cap3_scaling_study(42, {512, 1024, 2048, 3072, 4096},
                                                             b);
                       }));
  std::puts("\nExpected shape: comparable efficiency (within ~20%) for all four frameworks;");
  std::puts("Windows environments (DryadLINQ, Azure) see the faster Cap3 binary in Fig 6.");
}

// The inhomogeneous 128-file base set scaled 1-6x (§5.2). EC2 = 16 HCXL,
// Azure = 16 Large, Hadoop on iDataplex 8-core nodes, DryadLINQ on 16-core
// HPCS nodes. EC2 HCXL trails: under 1 GB of memory per core.
void fig10(const Backends& backends) {
  std::puts("== Figures 10 & 11: BLAST scalability across frameworks ==\n");
  print_scaling_points("BLAST parallel efficiency (Fig 10) / per-core query-file time (Fig 11)",
                       over_backends(backends, [](storage::StorageKind b) {
                         return core::run_blast_scaling_study(42, {1, 2, 3, 4, 5, 6}, b);
                       }));
  std::puts("\nExpected shape: rising, near-linear efficiency; Azure leads, EC2 trails.");
}

// The PubChem subset size swept on ~64 busy cores per framework (§6.2).
// Efficiencies are lower than Cap3/BLAST because GTM is memory-bandwidth
// bound.
void fig14(const Backends& backends) {
  std::puts("== Figures 14 & 15: GTM Interpolation scalability across frameworks ==\n");
  print_scaling_points("GTM parallel efficiency (Fig 14) / per-core file time (Fig 15)",
                       over_backends(backends, [](storage::StorageKind b) {
                         return core::run_gtm_scaling_study(42, {88, 176, 264}, b);
                       }));
  std::puts("\nExpected shape: Azure Small leads, DryadLINQ's 16-core nodes trail,");
  std::puts("EC2 Large is the best EC2 choice; overall efficiencies below Cap3's.");
}

// --- Table 4 and its deadline sweep -------------------------------------------

void print_queue_batching(const billing::QueueBatchingSavings& b) {
  std::printf("  (queue batching: %llu requests vs %llu unbatched — $%.4f vs $%.4f, "
              "%.1fx fewer requests)\n\n",
              static_cast<unsigned long long>(b.requests),
              static_cast<unsigned long long>(b.unbatched_requests), b.cost, b.unbatched_cost,
              b.request_reduction());
}

// Paper values: EC2 total $11.13 (compute $10.88), Azure total $15.77
// (compute $15.36); owned 32-node/24-core cluster $8.25 / $9.43 / $11.01 at
// 80 / 70 / 60% utilization.
void table4(const Backends& backends) {
  std::puts("== Table 4: cost comparison, assembling 4096 Cap3 files ==\n");
  for (const auto backend : backends) {
    const auto report = core::run_table4_cost_comparison(42, backend);
    std::printf("-- storage backend: %s --\n", report.storage_backend.c_str());

    report.ec2.to_table().print();
    std::printf("  (EC2 makespan: %s on 16 x HCXL)\n", format_duration(report.ec2_makespan).c_str());
    print_queue_batching(report.ec2_queue_batching);
    report.azure.to_table().print();
    std::printf("  (Azure makespan: %s on 128 x Small)\n",
                format_duration(report.azure_makespan).c_str());
    print_queue_batching(report.azure_queue_batching);

    Table cluster("Owned cluster (32 node x 24 core, $500k/3y + $150k/y)");
    cluster.set_header({"Utilization", "Job cost $"});
    for (const auto& [util, cost] : report.cluster_costs) {
      cluster.add_row({Table::num(util * 100, 0) + "%", Table::num(cost, 2)});
    }
    cluster.print();
    std::printf("  (Hadoop job consumed %.1f core-hours on the cluster)\n",
                report.cluster_core_hours);
  }
  std::puts("\nPaper: EC2 $11.13, Azure $15.77, cluster $8.25/$9.43/$11.01 at 80/70/60%.");
}

void table4_deadline(const Backends&) {
  std::printf("cheapest config meeting deadline D (4096 Cap3 files; spot discount %.0f%%)\n",
              cloud::kDefaultSpotDiscount * 100);
  auto describe = [](const cloud::FleetPlan& p) {
    if (!p.feasible) return std::string("infeasible (") + p.note + ")";
    std::string s = std::to_string(p.instances) + " x " + p.type.name;
    if (p.spot_instances > 0) s += " (" + std::to_string(p.spot_instances) + " spot)";
    char buf[64];
    std::snprintf(buf, sizeof(buf), ", est $%.2f in %.0fs", p.est_cost, p.est_makespan);
    return s + buf;
  };
  for (const auto& row : core::run_table4_deadline_sweep()) {
    std::printf("D=%6.0fs  on-demand: %-44s  half-spot: %s\n", row.deadline,
                describe(row.on_demand).c_str(), describe(row.half_spot).c_str());
  }
}

// --- §3: sustained performance variability ------------------------------------

// The paper reports std-devs of 1.56% (AWS) and 2.25% (Azure) over a week
// of repeated runs with no day-of-week or time-of-day correlation.
void variability(const Backends&) {
  std::puts("== §3: sustained performance variability (repeated Cap3 runs) ==\n");
  const auto report = core::run_sustained_variability_study(42, /*samples=*/28);
  Table table("Coefficient of variation of repeated run times");
  table.set_header({"Provider", "Measured CV %", "Paper std-dev %"});
  table.add_row({"Amazon EC2 (HCXL)", Table::num(report.ec2_cv * 100, 2), "1.56"});
  table.add_row({"Windows Azure (Small)", Table::num(report.azure_cv * 100, 2), "2.25"});
  table.print();
  std::printf("  (%d samples per provider, seed-varied 'times of day')\n",
              report.samples_per_provider);
}

// --- Ablations ------------------------------------------------------------------

// The visibility timeout (§2.1.3): too short and healthy tasks get
// double-processed (wasted compute, extra cost); long enough and only
// genuine failures re-run. Cap3 tasks take ~105 s.
void ablation_visibility(const Backends&) {
  std::puts("== Ablation: SQS/Azure Queue visibility timeout vs duplicate work ==");
  std::puts("Workload: 256 Cap3 files x 458 reads on 2 x HCXL (16 workers), task ~105 s\n");

  const Workload workload = core::make_cap3_workload(256, 458);
  const Deployment d = core::make_deployment(cloud::ec2_hcxl(), 2, 8);
  const ExecutionModel model(AppKind::kCap3);

  Table table("Visibility timeout sweep");
  table.set_header({"Visibility timeout s", "Makespan", "Duplicate executions",
                    "Parallel efficiency (Eq 1)", "Amortized compute $"});
  for (double timeout : {30.0, 60.0, 90.0, 120.0, 240.0, 600.0, 3600.0}) {
    SimRunParams params = fixed_params(42);
    params.visibility_timeout = timeout;
    // Efficiency and duplicate work are read back from the run's
    // MetricsRegistry — the same counters/gauges every substrate publishes.
    runtime::MetricsRegistry metrics;
    params.metrics = &metrics;
    const RunResult r = core::run_classic_cloud_sim(workload, d, model, params);
    const std::string prefix = r.framework + ".";
    table.add_row({Table::num(timeout, 0), format_duration(r.makespan),
                   std::to_string(metrics.counter_value(prefix + "duplicate_executions")),
                   Table::num(metrics.gauge(prefix + "parallel_efficiency"), 3),
                   Table::num(r.compute_cost_amortized, 2)});
  }
  table.print();
  std::puts("\nExpected: timeouts below the ~105 s task time trigger redeliveries and");
  std::puts("duplicate executions; generous timeouts eliminate them at no cost. All runs");
  std::puts("complete every task — at-least-once delivery never loses work.");
}

// Dynamic global-queue scheduling vs static partitioning on inhomogeneous
// data — the mechanism behind §4.2's "better natural load balancing in
// Hadoop than in DryadLINQ" — plus speculative execution against
// stragglers, the static partitioning policy (round-robin vs size-balanced
// LPT), and a task-granularity sweep.
void ablation_scheduling(const Backends&) {
  std::puts("== Ablation: dynamic vs static scheduling on inhomogeneous BLAST data ==");
  std::puts("Workload: 192 query files (inhomogeneous base x1.5) on 8 nodes x 8 cores;");
  std::puts("3% of executions become 8x stragglers (tail-dominated regime)\n");

  const Workload workload = core::make_blast_workload(192, 100, 11);
  const Deployment d = core::make_deployment(cloud::bare_metal_idataplex_node(), 8, 8);
  const ExecutionModel model(AppKind::kBlast);
  SimRunParams base = fixed_params(3);
  base.straggler_prob = 0.03;
  base.straggler_factor = 8.0;

  Table table("Scheduling policy comparison");
  table.set_header({"Scheduler", "Makespan", "Efficiency (Eq 1)", "Duplicates/wasted"});
  auto add = [&](const std::string& name, const RunResult& r, const std::string& wasted) {
    table.add_row({name, format_duration(r.makespan), Table::num(r.parallel_efficiency, 3),
                   wasted});
  };
  const RunResult speculative = core::run_mapreduce_sim(workload, d, model, base);
  add("Dynamic global queue + speculation (Hadoop)", speculative,
      std::to_string(speculative.scheduler_stats.wasted_attempts));
  SimRunParams no_speculation = base;
  no_speculation.scheduler.speculative_execution = false;
  add("Dynamic global queue, no speculation",
      core::run_mapreduce_sim(workload, d, model, no_speculation), "0");
  add("Static round-robin partitions (DryadLINQ)", core::run_dryad_sim(workload, d, model, base),
      "0");
  SimRunParams lpt = base;
  lpt.dryad_partition_by_size = true;
  add("Static size-balanced (LPT) partitions", core::run_dryad_sim(workload, d, model, lpt), "0");
  table.print();

  std::puts("\n== Task granularity sweep (§6.2: GTM tasks are finer-grained) ==");
  std::puts("Same total GTM work (26.4M points) split into varying file counts, 8 x HCXL\n");
  Table gran("Task granularity vs overhead and balance");
  gran.set_header({"Files", "Points/file", "Makespan", "Efficiency (Eq 1)"});
  const ExecutionModel gtm_model(AppKind::kGtm);
  const Deployment gtm_d = core::make_deployment(cloud::ec2_hcxl(), 8, 8);
  for (int files : {66, 132, 264, 528, 1056, 2112, 4224, 8448}) {
    const double points = 26.4e6 / files;
    const RunResult r = core::run_classic_cloud_sim(core::make_gtm_workload(files, points),
                                                    gtm_d, gtm_model, fixed_params(5));
    gran.add_row({std::to_string(files), Table::num(points, 0), format_duration(r.makespan),
                  Table::num(r.parallel_efficiency, 3)});
  }
  gran.print();
  std::puts("\nExpected: coarse tasks leave cores idle at the tail; very fine tasks pay");
  std::puts("per-task transfer/queue overhead — \"sufficiently coarser grain task");
  std::puts("decompositions\" (§8) sit in the middle.");
}

// Data inhomogeneity vs scheduling policy (§4.2 and its reference [13]):
// the per-file BLAST work CV is swept on one node layout. The paper also
// assumes the cloud frameworks balance load like Hadoop because they share
// its dynamic global-queue architecture; the Classic Cloud column tests
// that assumption.
void ablation_inhomogeneity(const Backends&) {
  std::puts("== Ablation: data inhomogeneity vs scheduling policy (§4.2 / [13]) ==");
  std::puts("Workload: 256 BLAST query files on 8 nodes x 8 cores; per-file work CV swept\n");

  const Deployment bare = core::make_deployment(cloud::bare_metal_idataplex_node(), 8, 8);
  const Deployment cloud_d = core::make_deployment(cloud::ec2_hcxl(), 8, 8);
  const ExecutionModel model(AppKind::kBlast);

  auto cell = [](const RunResult& r) {
    return format_duration(r.makespan) + " (" + Table::num(r.parallel_efficiency, 2) + ")";
  };
  Table table("Makespan (and efficiency) vs inhomogeneity");
  table.set_header({"Work CV", "Hadoop (dynamic)", "Dryad (static RR)", "Dryad (static LPT)",
                    "ClassicCloud-EC2 (dynamic)"});
  for (double cv : {0.0, 0.15, 0.3, 0.45, 0.6}) {
    const Workload w = core::make_blast_workload(256, 100, /*seed=*/17, 128, cv);
    const SimRunParams params = fixed_params(9);
    SimRunParams lpt = params;
    lpt.dryad_partition_by_size = true;
    table.add_row({Table::num(cv, 2), cell(core::run_mapreduce_sim(w, bare, model, params)),
                   cell(core::run_dryad_sim(w, bare, model, params)),
                   cell(core::run_dryad_sim(w, bare, model, lpt)),
                   cell(core::run_classic_cloud_sim(w, cloud_d, model, params))});
  }
  table.print();
  std::puts("\nExpected: at CV=0 all schedulers tie; as inhomogeneity grows, the static");
  std::puts("partitions fall behind the dynamic global queues, and the Classic Cloud");
  std::puts("framework tracks Hadoop (same dynamic-queue architecture, §4.2).");
}

// §3: "the performance of the Azure instance types for [Cap3 and GTM]
// scaled linearly with the price", so the paper shows no Azure twin of
// Figures 3-4 and 12-13. At a fixed 16-core total the runtime should be
// flat across the type ladder, unlike BLAST (Figure 9).
void azure_linearity_app(const char* title, AppKind app, const Workload& workload) {
  const ExecutionModel model(app);
  struct Config {
    const cloud::InstanceType& type;
    int instances;
    int workers;
  };
  const Config configs[] = {
      {cloud::azure_small(), 16, 1},
      {cloud::azure_medium(), 8, 2},
      {cloud::azure_large(), 4, 4},
      {cloud::azure_xlarge(), 2, 8},
  };
  Table table(title);
  table.set_header({"Deployment", "Compute time", "Amortized cost $", "Cost x time product"});
  for (const Config& c : configs) {
    const Deployment d = core::make_deployment(c.type, c.instances, c.workers);
    const RunResult r = core::run_classic_cloud_sim(workload, d, model, fixed_params(42));
    table.add_row({d.label, format_duration(r.makespan), Table::num(r.compute_cost_amortized, 3),
                   Table::num(r.compute_cost_amortized * r.makespan / 1000.0, 2)});
  }
  table.print();
  std::printf("\n");
}

void azure_linearity(const Backends&) {
  std::puts("== Azure linearity check (§3: why Figures 3-4/12-13 have no Azure twin) ==");
  std::puts("16 cores total on each Azure type ladder rung\n");
  azure_linearity_app("Cap3 (200 files x 200 reads)", AppKind::kCap3,
                      core::make_cap3_workload(200, 200));
  azure_linearity_app("GTM Interpolation (264 files x 100k points)", AppKind::kGtm,
                      core::make_gtm_workload(264));

  std::puts("Cap3: times are flat across the ladder (CPU-bound; same cores and clock)");
  std::puts("  => cost scales exactly with price: no interesting Azure figure. Confirmed.");
  std::puts("GTM: per-core memory bandwidth differs slightly across Azure types, so the");
  std::puts("  flatness is approximate — Small's unshared bus is marginally best,");
  std::puts("  consistent with §6.2's Azure-Small efficiency observation.");
}

// --- The id table ----------------------------------------------------------------

struct Study {
  const char* id;
  bool takes_backend;
  void (*run)(const Backends&);
};

constexpr Study kStudies[] = {
    {"fig3", true, fig3},
    {"fig5", true, fig5},
    {"fig7", true, fig7},
    {"fig9", true, fig9},
    {"fig10", true, fig10},
    {"fig12", true, fig12},
    {"fig14", true, fig14},
    {"table4", true, table4},
    {"table4-deadline", false, table4_deadline},
    {"variability", false, variability},
    {"ablation-visibility", false, ablation_visibility},
    {"ablation-scheduling", false, ablation_scheduling},
    {"ablation-inhomogeneity", false, ablation_inhomogeneity},
    {"azure-linearity", false, azure_linearity},
};

Backends parse_backends(const std::string& arg) {
  if (arg.empty()) return {storage::StorageKind::kObject};
  if (arg == "all") {
    return {std::begin(storage::kAllStorageKinds), std::end(storage::kAllStorageKinds)};
  }
  return {storage::parse_storage_kind(arg)};
}

}  // namespace

void print_catalog() {
  std::puts("== Reproduction of Table 1 (selected EC2 instance types) and");
  std::puts("== Table 2 (Azure instance types), plus model-derived columns\n");
  print_instance_catalog("Table 1: Amazon EC2", cloud::ec2_catalog());
  print_instance_catalog("Table 2: Windows Azure", cloud::azure_catalog());
  print_instance_catalog("Bare-metal baseline nodes (scalability sections)",
                         {cloud::bare_metal_cap3_node(), cloud::bare_metal_idataplex_node(),
                          cloud::bare_metal_hpcs_node(), cloud::bare_metal_gtm_hadoop_node(),
                          cloud::bare_metal_cost_cluster_node()});
}

void run_experiment(const std::string& id, const std::string& backend) {
  for (const Study& study : kStudies) {
    if (id != study.id) continue;
    if (!study.takes_backend && !backend.empty()) {
      throw InvalidArgument("experiment " + id + " takes no storage backend");
    }
    study.run(parse_backends(backend));
    return;
  }
  std::string known;
  for (const Study& study : kStudies) known += std::string(known.empty() ? "" : " ") + study.id;
  throw InvalidArgument("unknown experiment: " + id + " (expected one of: " + known + ")");
}

}  // namespace ppc::tools
