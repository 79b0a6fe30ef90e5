// Per-figure experiment functions: each regenerates one table/figure of the
// paper's evaluation and returns the rows/series the figure plots. The
// `ppcloud experiment` prints these; EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "billing/cost_model.h"
#include "cloud/scheduler_policy.h"
#include "core/drivers.h"

namespace ppc::core {

// --- Instance-type studies (Figures 3/4, 7/8, 12/13): 16 cores, EC2 ---
//
// Every study accepts a trailing storage backend selector. The default
// (object store) reproduces the checked-in baselines byte-for-byte; the
// shared/parallel-FS variants re-run the same figure with the data plane
// swapped, producing the per-backend rows of `ppcloud experiment <id> all`.

struct InstanceTypeRow {
  std::string label;        // "EC2-HCXL - 2x8"
  std::string storage;      // backend the data plane ran on
  Seconds compute_time = 0.0;
  Dollars cost_hour_units = 0.0;
  Dollars cost_amortized = 0.0;
  Dollars storage_service_cost = 0.0;  // FS server-hours (object: 0)
};

/// Figures 3 & 4: Cap3, 200 files x 200 reads on 16 cores.
std::vector<InstanceTypeRow> run_cap3_ec2_instance_study(
    unsigned seed = 42, storage::StorageKind backend = storage::StorageKind::kObject);

/// Figures 7 & 8: BLAST, 64 query files x 100 queries on 16 cores.
std::vector<InstanceTypeRow> run_blast_ec2_instance_study(
    unsigned seed = 42, storage::StorageKind backend = storage::StorageKind::kObject);

/// Figures 12 & 13: GTM Interpolation, 264 files x 100k points on 16 cores.
std::vector<InstanceTypeRow> run_gtm_ec2_instance_study(
    unsigned seed = 42, storage::StorageKind backend = storage::StorageKind::kObject);

// --- Figure 9: BLAST on Azure, workers x threads grid, 8 cores total ---

struct AzureBlastRow {
  std::string label;  // "Azure-Large x2: 2x2" (instances: workers x threads)
  Seconds compute_time = 0.0;
  Dollars cost_amortized = 0.0;
};

std::vector<AzureBlastRow> run_blast_azure_instance_study(
    unsigned seed = 42, storage::StorageKind backend = storage::StorageKind::kObject);

// --- Scalability studies (Figures 5/6, 10/11, 14/15) ---

struct ScalingPoint {
  std::string framework;
  std::string deployment;
  std::string storage;  // "local" for unstaged MapReduce/Dryad rows
  int files = 0;
  double efficiency = 0.0;            // Figure 5/10/14
  Seconds per_core_task_seconds = 0;  // Figure 6/11/15
  Seconds makespan = 0.0;
};

/// Figures 5 & 6: Cap3, replicated 458-read files across four frameworks
/// (EC2 16xHCXL, Azure 128xSmall, Hadoop & DryadLINQ on the 32x8-core
/// bare-metal cluster). Non-object backends also stage MapReduce/Dryad
/// inputs through the selected backend.
std::vector<ScalingPoint> run_cap3_scaling_study(
    unsigned seed = 42, const std::vector<int>& file_counts = {512, 1024, 2048, 3072, 4096},
    storage::StorageKind backend = storage::StorageKind::kObject);

/// Figures 10 & 11: BLAST, the inhomogeneous 128-file set replicated 1-6x
/// (EC2 16xHCXL, Azure 16xLarge, Hadoop on iDataplex, Dryad on HPCS).
std::vector<ScalingPoint> run_blast_scaling_study(
    unsigned seed = 42, const std::vector<int>& replications = {1, 2, 3, 4, 5, 6},
    storage::StorageKind backend = storage::StorageKind::kObject);

/// Figures 14 & 15: GTM Interpolation on ~64 cores per framework, sweeping
/// the PubChem subset size (files of 100k points).
std::vector<ScalingPoint> run_gtm_scaling_study(
    unsigned seed = 42, const std::vector<int>& file_counts = {88, 176, 264},
    storage::StorageKind backend = storage::StorageKind::kObject);

// --- Table 4: cost to assemble 4096 Cap3 files ---

struct Table4Report {
  billing::CostReport ec2{"EC2 (16 x HCXL)"};
  billing::CostReport azure{"Azure (128 x Small)"};
  /// The queue-batching win: the "Queue messages" line as billed (batch
  /// APIs) vs what the same traffic costs one request per message.
  billing::QueueBatchingSavings ec2_queue_batching;
  billing::QueueBatchingSavings azure_queue_batching;
  /// (utilization, job cost) for the owned cluster at 80/70/60%.
  std::vector<std::pair<double, Dollars>> cluster_costs;
  std::string storage_backend = "object";
  Seconds ec2_makespan = 0.0;
  Seconds azure_makespan = 0.0;
  double cluster_core_hours = 0.0;
};

/// With a shared/parallel-FS backend the per-GB storage/transfer line items
/// are replaced by the FS line items: flat per-GB-month storage plus the
/// metered server-hours for the job.
Table4Report run_table4_cost_comparison(
    unsigned seed = 42, storage::StorageKind backend = storage::StorageKind::kObject);

// --- Table 4 extension: the cheapest config meeting deadline D ---

/// One deadline's winners from the SchedulerPolicy catalog sweep: the
/// all-on-demand plan next to the half-spot plan (kDefaultSpotDiscount),
/// so the table shows what the spot market is worth at each deadline.
struct DeadlineSweepRow {
  Seconds deadline = 0.0;
  cloud::FleetPlan on_demand;
  cloud::FleetPlan half_spot;
};

/// Sweeps "cheapest config meeting deadline D" for the Table 4 job (4096
/// Cap3 files) over the paper's rentable catalog (EC2 Large/HCXL/HM4XL,
/// Azure Small/Large). T1 is the job's modelled sequential work on one
/// EC2-HCXL core. Tight deadlines can be infeasible for every type; such
/// rows carry infeasible plans with the blocking constraint in `note`.
std::vector<DeadlineSweepRow> run_table4_deadline_sweep(
    const std::vector<Seconds>& deadlines = {3600.0, 7200.0, 14400.0, 28800.0,
                                             57600.0});

// --- §3: sustained performance variability ---

struct VariabilityReport {
  double ec2_cv = 0.0;    // coefficient of variation of repeated runs
  double azure_cv = 0.0;  // paper: 1.56% and 2.25%
  int samples_per_provider = 0;
};

VariabilityReport run_sustained_variability_study(unsigned seed = 42, int samples = 28);

}  // namespace ppc::core
