// The studies, their renderers and the id table of `ppcloud experiment`.
// The instance-type and scaling figures are rows of two tables; the other
// studies are functions named in the id table.
#include "core/experiments.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "cloud/instance_types.h"
#include "common/error.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/units.h"
#include "runtime/metrics.h"
#include "storage/storage_backend.h"

namespace ppc::core {
namespace {

using Backends = std::vector<storage::StorageKind>;

/// A run seeded with `seed` on the `backend` data plane, every other knob at
/// its default.
SimRunParams seeded(unsigned seed, storage::StorageKind backend = storage::StorageKind::kObject) {
  SimRunParams params;
  params.seed = seed;
  params.storage = backend;
  return params;
}

/// The ablations' runs: no §3 provider variability, so only the swept knob
/// moves the result.
SimRunParams fixed_params(unsigned seed) {
  SimRunParams params = seeded(seed);
  params.provider_variability = false;
  return params;
}

/// The figure of `figures` named `id`.
template <typename Figures>
const auto& find_figure(const Figures& figures, const std::string& id) {
  for (const auto& f : figures) {
    if (id == f.id) return f;
  }
  throw InvalidArgument("no such figure: " + id);
}

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

void print_instance_type_rows(const std::string& title, const std::vector<InstanceTypeRow>& rows) {
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

void print_scaling_points(const std::string& title, const std::vector<ScalingPoint>& points) {
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

// --- Figures 3/4, 7/8, 12/13: one app on the EC2 instance types -------------

struct InstanceTypeFigure {
  const char* id;
  Workload (*workload)(unsigned seed);
  const char* banner;    // heading lines
  const char* title;     // table title; the CSV file is named after it
  const char* expected;  // the paper's shape, printed under the table
};

const InstanceTypeFigure kInstanceTypeFigures[] = {
    // Paper shape: HM4XL fastest (3.25 GHz); HCXL most cost-effective; L and
    // XL tie (same clock); memory is not a Cap3 bottleneck.
    {"fig3",
     [](unsigned) { return make_cap3_workload(/*files=*/200, /*reads_per_file=*/200); },
     "== Figures 3 & 4: Cap3 on EC2 instance types ==\n"
     "Workload: 200 files x 200 reads, 16 cores, Classic Cloud (simulated)",
     "Cap3 compute time (Fig 4) and cost (Fig 3)",
     "Expected shape: HM4XL fastest; HCXL cheapest; L ≈ XL (memory no bottleneck)."},
    // Paper shape: XL ≈ HCXL despite the clock gap (memory compensates);
    // HM4XL fastest but expensive; HCXL most cost-effective.
    {"fig7",
     [](unsigned seed) {
       return make_blast_workload(/*files=*/64, /*queries_per_file=*/100, seed);
     },
     "== Figures 7 & 8: BLAST on EC2 instance types ==\n"
     "Workload: 64 query files x 100 queries, 16 cores, NR-like 8.7 GB database",
     "BLAST compute time (Fig 8) and cost (Fig 7)",
     "Expected shape: XL ≈ HCXL; HM4XL fastest (clock + full DB residency);\n"
     "HCXL again the most cost-effective choice."},
    // Paper shape: memory (size and bandwidth) is the bottleneck; HM4XL best
    // performance; HCXL still the most economical.
    {"fig12", [](unsigned) { return make_gtm_workload(/*files=*/264); },
     "== Figures 12 & 13: GTM Interpolation on EC2 instance types ==\n"
     "Workload: 264 files x 100k points (26.4M points, 166-d), 16 cores",
     "GTM compute time (Fig 13) and cost (Fig 12)",
     "Expected shape: HM4XL fastest; Large beats HCXL/XL (fewer cores per memory\n"
     "bus); HCXL remains the economical choice."},
};

void print_instance_type_figure(const std::string& id, const Backends& backends) {
  const InstanceTypeFigure& f = find_figure(kInstanceTypeFigures, id);
  std::printf("%s\n\n", f.banner);
  print_instance_type_rows(f.title, over_backends(backends, [&](storage::StorageKind b) {
                             return run_instance_type_figure(id, 42, b);
                           }));
  std::printf("\n%s\n", f.expected);
}

// --- Figures 5/6, 10/11, 14/15: scalability across the four frameworks ------

/// Windows flavor of the Cap3 bare-metal node (the same 32x8 cluster runs
/// DryadLINQ under Windows HPCS, §4.2).
cloud::InstanceType windows_variant(const cloud::InstanceType& type) {
  cloud::InstanceType t = type;
  t.platform = cloud::Platform::kWindows;
  t.name = type.name + "-Win";
  return t;
}

struct FrameworkSetup {
  const char* framework;  // core::simulate's framework name
  Deployment deployment;
};

struct ScalingFigure {
  const char* id;
  std::vector<FrameworkSetup> setups;
  std::vector<int> sizes;  // the figure's sweep
  Workload (*workload)(int size, unsigned seed);
  const char* banner;
  const char* title;
  const char* expected;
};

const std::vector<ScalingFigure>& scaling_figures() {
  static const std::vector<ScalingFigure> figures = {
      // §4.2: EC2 = 16 HCXL (128 workers), Azure = 128 Small, Hadoop and
      // DryadLINQ on the 32-node x 8-core bare-metal cluster (DryadLINQ
      // under Windows, hence the ~12.5% faster Cap3 binary); replicated
      // 458-read files.
      {"fig5",
       {{"classic", make_deployment(cloud::ec2_hcxl(), 16, 8)},
        {"classic", make_deployment(cloud::azure_small(), 128, 1)},
        {"hadoop", make_deployment(cloud::bare_metal_cap3_node(), 32, 8)},
        {"dryad", make_deployment(windows_variant(cloud::bare_metal_cap3_node()), 32, 8)}},
       {512, 1024, 2048, 3072, 4096},
       [](int files, unsigned) { return make_cap3_workload(files, 458); },
       "== Figures 5 & 6: Cap3 scalability across frameworks ==",
       "Cap3 parallel efficiency (Fig 5) / per-core file time (Fig 6)",
       "Expected shape: comparable efficiency (within ~20%) for all four frameworks;\n"
       "Windows environments (DryadLINQ, Azure) see the faster Cap3 binary in Fig 6."},
      // §5.2: the inhomogeneous 128-file base set scaled 1-6x. EC2 = 16
      // HCXL, Azure = 16 Large, Hadoop on iDataplex 8-core nodes, DryadLINQ
      // on 16-core HPCS nodes. EC2 HCXL trails: under 1 GB of memory per
      // core.
      {"fig10",
       {{"classic", make_deployment(cloud::ec2_hcxl(), 16, 8)},
        {"classic", make_deployment(cloud::azure_large(), 16, 4)},
        {"hadoop", make_deployment(cloud::bare_metal_idataplex_node(), 16, 8)},
        {"dryad", make_deployment(cloud::bare_metal_hpcs_node(), 8, 16)}},
       {1, 2, 3, 4, 5, 6},
       [](int k, unsigned seed) { return make_blast_workload(128 * k, 100, seed, 128); },
       "== Figures 10 & 11: BLAST scalability across frameworks ==",
       "BLAST parallel efficiency (Fig 10) / per-core query-file time (Fig 11)",
       "Expected shape: rising, near-linear efficiency; Azure leads, EC2 trails."},
      // §6.2: the PubChem subset size swept on ~64 busy cores per framework:
      // EC2 Large / HCXL / HM4XL tested separately, Azure Small, Hadoop on
      // the 48 GB nodes (8 cores used), Dryad on 16-core nodes. Efficiencies
      // are lower than Cap3/BLAST because GTM is memory-bandwidth bound.
      {"fig14",
       {{"classic", make_deployment(cloud::ec2_large(), 32, 2)},
        {"classic", make_deployment(cloud::ec2_hcxl(), 8, 8)},
        {"classic", make_deployment(cloud::ec2_hm4xl(), 8, 8)},
        {"classic", make_deployment(cloud::azure_small(), 64, 1)},
        {"hadoop", make_deployment(cloud::bare_metal_gtm_hadoop_node(), 8, 8)},
        {"dryad", make_deployment(cloud::bare_metal_hpcs_node(), 4, 16)}},
       {88, 176, 264},
       [](int files, unsigned) { return make_gtm_workload(files); },
       "== Figures 14 & 15: GTM Interpolation scalability across frameworks ==",
       "GTM parallel efficiency (Fig 14) / per-core file time (Fig 15)",
       "Expected shape: Azure Small leads, DryadLINQ's 16-core nodes trail,\n"
       "EC2 Large is the best EC2 choice; overall efficiencies below Cap3's."},
  };
  return figures;
}

void print_scaling_figure(const std::string& id, const Backends& backends) {
  const ScalingFigure& f = find_figure(scaling_figures(), id);
  std::printf("%s\n\n", f.banner);
  print_scaling_points(f.title, over_backends(backends, [&](storage::StorageKind b) {
                         return run_scaling_figure(id, 42, {}, b);
                       }));
  std::printf("\n%s\n", f.expected);
}

// Figure 9: the (workers per instance) x (threads per worker) grid of each
// Azure type, 8 cores total. Paper shape: Large/XL best (the 8.7 GB
// database fits in memory); Small worst; pure threads slightly slower than
// multiple worker processes.
void fig9(const std::string&, const Backends& backends) {
  std::puts("== Figure 9: BLAST on Azure instance types (workers x threads grid) ==");
  std::puts("Workload: 8 query files x 100 queries; 8 cores total per configuration\n");
  Table table("BLAST time to process 8 query files");
  table.set_header({"Configuration (type - instances x workers [x threads])", "Storage",
                    "Compute time", "Amortized cost $"});
  for (const auto backend : backends) {
    for (const auto& r : run_blast_azure_instance_study(42, backend)) {
      table.add_row({r.label, storage::to_string(backend), format_duration(r.compute_time),
                     Table::num(r.cost_amortized, 3)});
    }
  }
  table.print();
  std::puts("\nExpected shape: Small slowest -> XL fastest (memory ladder); within a type,");
  std::puts("all-threads configurations trail all-process configurations slightly.");
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
void table4(const std::string&, const Backends& backends) {
  std::puts("== Table 4: cost comparison, assembling 4096 Cap3 files ==\n");
  for (const auto backend : backends) {
    const auto report = run_table4_cost_comparison(42, backend);
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

void table4_deadline(const std::string&, const Backends&) {
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
  for (const auto& row : run_table4_deadline_sweep()) {
    std::printf("D=%6.0fs  on-demand: %-44s  half-spot: %s\n", row.deadline,
                describe(row.on_demand).c_str(), describe(row.half_spot).c_str());
  }
}

// --- §3: sustained performance variability ------------------------------------

// The paper reports std-devs of 1.56% (AWS) and 2.25% (Azure) over a week
// of repeated runs with no day-of-week or time-of-day correlation.
void variability(const std::string&, const Backends&) {
  std::puts("== §3: sustained performance variability (repeated Cap3 runs) ==\n");
  const auto report = run_sustained_variability_study(42, /*samples=*/28);
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
void ablation_visibility(const std::string&, const Backends&) {
  std::puts("== Ablation: SQS/Azure Queue visibility timeout vs duplicate work ==");
  std::puts("Workload: 256 Cap3 files x 458 reads on 2 x HCXL (16 workers), task ~105 s\n");

  const Workload workload = make_cap3_workload(256, 458);
  const Deployment d = make_deployment(cloud::ec2_hcxl(), 2, 8);

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
    const RunResult r = simulate("classic", workload, d, params);
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
void ablation_scheduling(const std::string&, const Backends&) {
  std::puts("== Ablation: dynamic vs static scheduling on inhomogeneous BLAST data ==");
  std::puts("Workload: 192 query files (inhomogeneous base x1.5) on 8 nodes x 8 cores;");
  std::puts("3% of executions become 8x stragglers (tail-dominated regime)\n");

  const Workload workload = make_blast_workload(192, 100, 11);
  const Deployment d = make_deployment(cloud::bare_metal_idataplex_node(), 8, 8);
  SimRunParams base = fixed_params(3);
  base.straggler_prob = 0.03;
  base.straggler_factor = 8.0;

  Table table("Scheduling policy comparison");
  table.set_header({"Scheduler", "Makespan", "Efficiency (Eq 1)", "Duplicates/wasted"});
  auto add = [&](const std::string& name, const RunResult& r, const std::string& wasted) {
    table.add_row({name, format_duration(r.makespan), Table::num(r.parallel_efficiency, 3),
                   wasted});
  };
  const RunResult speculative = simulate("hadoop", workload, d, base);
  add("Dynamic global queue + speculation (Hadoop)", speculative,
      std::to_string(speculative.scheduler_stats.wasted_attempts));
  SimRunParams no_speculation = base;
  no_speculation.scheduler.speculative_execution = false;
  add("Dynamic global queue, no speculation", simulate("hadoop", workload, d, no_speculation),
      "0");
  add("Static round-robin partitions (DryadLINQ)", simulate("dryad", workload, d, base), "0");
  SimRunParams lpt = base;
  lpt.dryad_partition_by_size = true;
  add("Static size-balanced (LPT) partitions", simulate("dryad", workload, d, lpt), "0");
  table.print();

  std::puts("\n== Task granularity sweep (§6.2: GTM tasks are finer-grained) ==");
  std::puts("Same total GTM work (26.4M points) split into varying file counts, 8 x HCXL\n");
  Table gran("Task granularity vs overhead and balance");
  gran.set_header({"Files", "Points/file", "Makespan", "Efficiency (Eq 1)"});
  const Deployment gtm_d = make_deployment(cloud::ec2_hcxl(), 8, 8);
  for (int files : {66, 132, 264, 528, 1056, 2112, 4224, 8448}) {
    const double points = 26.4e6 / files;
    const RunResult r =
        simulate("classic", make_gtm_workload(files, points), gtm_d, fixed_params(5));
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
void ablation_inhomogeneity(const std::string&, const Backends&) {
  std::puts("== Ablation: data inhomogeneity vs scheduling policy (§4.2 / [13]) ==");
  std::puts("Workload: 256 BLAST query files on 8 nodes x 8 cores; per-file work CV swept\n");

  const Deployment bare = make_deployment(cloud::bare_metal_idataplex_node(), 8, 8);
  const Deployment cloud_d = make_deployment(cloud::ec2_hcxl(), 8, 8);

  auto cell = [](const RunResult& r) {
    return format_duration(r.makespan) + " (" + Table::num(r.parallel_efficiency, 2) + ")";
  };
  Table table("Makespan (and efficiency) vs inhomogeneity");
  table.set_header({"Work CV", "Hadoop (dynamic)", "Dryad (static RR)", "Dryad (static LPT)",
                    "ClassicCloud-EC2 (dynamic)"});
  for (double cv : {0.0, 0.15, 0.3, 0.45, 0.6}) {
    const Workload w = make_blast_workload(256, 100, /*seed=*/17, 128, cv);
    const SimRunParams params = fixed_params(9);
    SimRunParams lpt = params;
    lpt.dryad_partition_by_size = true;
    table.add_row({Table::num(cv, 2), cell(simulate("hadoop", w, bare, params)),
                   cell(simulate("dryad", w, bare, params)),
                   cell(simulate("dryad", w, bare, lpt)),
                   cell(simulate("classic", w, cloud_d, params))});
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
void azure_linearity_app(const char* title, const Workload& workload) {
  const Deployment layouts[] = {
      make_deployment(cloud::azure_small(), 16, 1),
      make_deployment(cloud::azure_medium(), 8, 2),
      make_deployment(cloud::azure_large(), 4, 4),
      make_deployment(cloud::azure_xlarge(), 2, 8),
  };
  Table table(title);
  table.set_header({"Deployment", "Compute time", "Amortized cost $", "Cost x time product"});
  for (const Deployment& d : layouts) {
    const RunResult r = simulate("classic", workload, d, fixed_params(42));
    table.add_row({d.label, format_duration(r.makespan), Table::num(r.compute_cost_amortized, 3),
                   Table::num(r.compute_cost_amortized * r.makespan / 1000.0, 2)});
  }
  table.print();
  std::printf("\n");
}

void azure_linearity(const std::string&, const Backends&) {
  std::puts("== Azure linearity check (§3: why Figures 3-4/12-13 have no Azure twin) ==");
  std::puts("16 cores total on each Azure type ladder rung\n");
  azure_linearity_app("Cap3 (200 files x 200 reads)", make_cap3_workload(200, 200));
  azure_linearity_app("GTM Interpolation (264 files x 100k points)", make_gtm_workload(264));

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
  void (*run)(const std::string& id, const Backends&);
};

constexpr Study kStudies[] = {
    {"fig3", true, print_instance_type_figure},
    {"fig5", true, print_scaling_figure},
    {"fig7", true, print_instance_type_figure},
    {"fig9", true, fig9},
    {"fig10", true, print_scaling_figure},
    {"fig12", true, print_instance_type_figure},
    {"fig14", true, print_scaling_figure},
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

std::vector<InstanceTypeRow> run_instance_type_figure(const std::string& id, unsigned seed,
                                                      storage::StorageKind backend) {
  const Workload workload = find_figure(kInstanceTypeFigures, id).workload(seed);
  // The four 16-core EC2 layouts of §3: "HCXL - 2 X 8 means two
  // High-CPU-Extra-Large instances were used with 8 workers per instance."
  const Deployment layouts[] = {
      make_deployment(cloud::ec2_large(), 8, 2),
      make_deployment(cloud::ec2_xlarge(), 4, 4),
      make_deployment(cloud::ec2_hcxl(), 2, 8),
      make_deployment(cloud::ec2_hm4xl(), 2, 8),
  };
  std::vector<InstanceTypeRow> rows;
  for (const Deployment& d : layouts) {
    const RunResult r = simulate("classic", workload, d, seeded(seed, backend));
    rows.push_back({d.label, r.storage_backend, r.makespan, r.compute_cost_hour_units,
                    r.compute_cost_amortized, r.storage_service_cost});
  }
  return rows;
}

std::vector<AzureBlastRow> run_blast_azure_instance_study(unsigned seed,
                                                          storage::StorageKind backend) {
  // §5.1 / Figure 9: 8 query files, 8 cores total, every (workers x threads)
  // factorization of each instance type's core count.
  const Deployment layouts[] = {
      make_deployment(cloud::azure_small(), 8, 1, 1),
      make_deployment(cloud::azure_medium(), 4, 2, 1),
      make_deployment(cloud::azure_medium(), 4, 1, 2),
      make_deployment(cloud::azure_large(), 2, 4, 1),
      make_deployment(cloud::azure_large(), 2, 2, 2),
      make_deployment(cloud::azure_large(), 2, 1, 4),
      make_deployment(cloud::azure_xlarge(), 1, 8, 1),
      make_deployment(cloud::azure_xlarge(), 1, 4, 2),
      make_deployment(cloud::azure_xlarge(), 1, 2, 4),
      make_deployment(cloud::azure_xlarge(), 1, 1, 8),
  };
  // A controlled homogeneous 8-file set: the figure compares platforms, so
  // content inhomogeneity would only blur the memory/threading effects.
  const Workload workload = make_blast_workload(/*files=*/8, /*queries_per_file=*/100, seed,
                                                /*base_set=*/128, /*inhomogeneity_cv=*/0.0);
  std::vector<AzureBlastRow> rows;
  for (const Deployment& d : layouts) {
    const RunResult r = simulate("classic", workload, d, seeded(seed, backend));
    rows.push_back({d.label, r.makespan, r.compute_cost_amortized});
  }
  return rows;
}

std::vector<ScalingPoint> run_scaling_figure(const std::string& id, unsigned seed,
                                             const std::vector<int>& sizes,
                                             storage::StorageKind backend) {
  const ScalingFigure& f = find_figure(scaling_figures(), id);
  SimRunParams params = seeded(seed, backend);
  // FS rows also model the MapReduce/Dryad input distribution through the
  // backend; the object default keeps the baseline (pre-placed).
  params.stage_inputs = backend != storage::StorageKind::kObject;
  std::vector<Workload> workloads;
  for (int size : sizes.empty() ? f.sizes : sizes) workloads.push_back(f.workload(size, seed));
  std::vector<ScalingPoint> points;
  for (const FrameworkSetup& setup : f.setups) {
    for (const Workload& w : workloads) {
      const RunResult r = simulate(setup.framework, w, setup.deployment, params);
      points.push_back({r.framework, setup.deployment.label, r.storage_backend,
                        static_cast<int>(w.size()), r.parallel_efficiency,
                        r.per_core_task_seconds, r.makespan});
    }
  }
  return points;
}

Table4Report run_table4_cost_comparison(unsigned seed, storage::StorageKind backend) {
  Table4Report report;
  report.storage_backend = storage::to_string(backend);
  const Workload workload = make_cap3_workload(/*files=*/4096, /*reads_per_file=*/458);

  Bytes total_in = 0.0, total_out = 0.0;
  for (const SimTask& t : workload.tasks) {
    total_in += t.input_size;
    total_out += t.output_size;
  }
  const double gb_in = to_gigabytes(total_in);
  const double gb_out = to_gigabytes(total_out);
  const bool fs_backend = backend != storage::StorageKind::kObject;

  // One cloud's bill: compute and queue lines, then its data-plane lines.
  // An FS data plane bills flat capacity plus server-hours instead of
  // per-GB transfer and per-request fees.
  auto cloud_bill = [&](const Deployment& d, unsigned run_seed, billing::CostReport& bill,
                        billing::QueueBatchingSavings& batching) {
    const RunResult r = simulate("classic", workload, d, seeded(run_seed, backend));
    bill.add("Compute Cost (hour units)", r.compute_cost_hour_units);
    bill.add("Queue messages", r.queue_request_cost);
    batching = billing::queue_batching_savings(r.queue_api_requests, r.queue_unbatched_requests);
    if (fs_backend) {
      bill.add("FS storage (1 month)", billing::storage_cost(total_in, 1.0, 0.10));
      bill.add("FS servers", r.storage_service_cost);
    }
    return r.makespan;
  };

  // EC2: 16 HCXL instances, 128 workers. The paper charges EC2 only for
  // transfer in (results stay in-region).
  report.ec2_makespan = cloud_bill(make_deployment(cloud::ec2_hcxl(), 16, 8), seed, report.ec2,
                                   report.ec2_queue_batching);
  if (!fs_backend) {
    report.ec2.add("Storage (1 month)", billing::storage_cost(total_in, 1.0, 0.14));
    report.ec2.add("Data transfer in", billing::transfer_cost(gb_in, 0.0, 0.10, 0.0));
  }

  // Azure: 128 Small instances.
  report.azure_makespan = cloud_bill(make_deployment(cloud::azure_small(), 128, 1), seed + 1,
                                     report.azure, report.azure_queue_batching);
  if (!fs_backend) {
    report.azure.add("Storage (1 month)", billing::storage_cost(total_in, 1.0, 0.15));
    report.azure.add("Data transfer in/out", billing::transfer_cost(gb_in, gb_out, 0.10, 0.15));
  }

  // Owned cluster (§4.3): run the Hadoop analog on the 32-node 24-core
  // cluster and amortize purchase + maintenance over utilized core-hours.
  const Deployment d = make_deployment(cloud::bare_metal_cost_cluster_node(), 32, 24);
  const RunResult r = simulate("hadoop", workload, d, seeded(seed + 2));
  report.cluster_core_hours = r.makespan * d.total_cores_used() / 3600.0;
  const billing::OwnedClusterModel cluster;
  for (double util : {0.8, 0.7, 0.6}) {
    report.cluster_costs.emplace_back(util, cluster.job_cost(report.cluster_core_hours, util));
  }
  return report;
}

std::vector<DeadlineSweepRow> run_table4_deadline_sweep(
    const std::vector<Seconds>& deadlines) {
  const Workload workload = make_cap3_workload(/*files=*/4096, /*reads_per_file=*/458);
  const ExecutionModel model(AppKind::kCap3);
  Seconds t1 = 0.0;
  for (const SimTask& t : workload.tasks) {
    t1 += model.expected_sequential(t, cloud::ec2_hcxl());
  }
  const std::vector<cloud::InstanceType> catalog = {
      cloud::ec2_large(), cloud::ec2_hcxl(), cloud::ec2_hm4xl(),
      cloud::azure_small(), cloud::azure_large()};

  std::vector<DeadlineSweepRow> rows;
  for (Seconds deadline : deadlines) {
    DeadlineSweepRow row;
    row.deadline = deadline;
    cloud::PolicyRequest request;
    request.t1_seconds = t1;
    request.deadline = deadline;
    row.on_demand = cloud::SchedulerPolicy(request).cheapest(catalog);
    request.spot_fraction = 0.5;
    row.half_spot = cloud::SchedulerPolicy(request).cheapest(catalog);
    rows.push_back(row);
  }
  return rows;
}

VariabilityReport run_sustained_variability_study(unsigned seed, int samples) {
  PPC_REQUIRE(samples >= 2, "need at least two samples");
  // Repeat a fixed Cap3 computation at "different times of day" (different
  // seeds -> different provider-condition draws) and report the CV of the
  // measured compute times, as Gunarathne et al [12] / §3 did over a week.
  const Workload workload = make_cap3_workload(64, 200);
  VariabilityReport report;
  report.samples_per_provider = samples;

  auto cv_for = [&](const Deployment& d, unsigned base_seed) {
    ppc::RunningStats stats;
    for (int i = 0; i < samples; ++i) {
      stats.add(simulate("classic", workload, d, seeded(base_seed + i)).makespan);
    }
    return stats.coefficient_of_variation();
  };
  report.ec2_cv = cv_for(make_deployment(cloud::ec2_hcxl(), 2, 8), seed);
  report.azure_cv = cv_for(make_deployment(cloud::azure_small(), 16, 1), seed + 1000);
  return report;
}

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
    study.run(id, parse_backends(backend));
    return;
  }
  std::string known;
  for (const Study& study : kStudies) known += std::string(known.empty() ? "" : " ") + study.id;
  throw InvalidArgument("unknown experiment: " + id + " (expected one of: " + known + ")");
}

}  // namespace ppc::core
