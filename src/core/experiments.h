// The paper's evaluation: Tables 1-4, Figures 3-15, the §3 variability
// study and the ablations DESIGN.md calls out. Each study returns the rows
// its figure plots (tests/core/test_shapes.cpp checks their shape) and is
// rendered once behind `ppcloud experiment <id>`; EXPERIMENTS.md quotes that
// output and tests/golden/ pins it byte for byte. Every DES run goes through
// core::simulate.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "billing/cost_model.h"
#include "cloud/scheduler_policy.h"
#include "core/drivers.h"

namespace ppc::core {

// Every figure accepts a trailing storage backend selector. The default
// (object store) reproduces the checked-in baselines byte-for-byte; the
// shared/parallel-FS variants re-run the same figure with the data plane
// swapped, producing the per-backend rows of `ppcloud experiment <id> all`.

// --- Instance-type figures (3/4 Cap3, 7/8 BLAST, 12/13 GTM): 16 cores, EC2 ---

struct InstanceTypeRow {
  std::string label;        // "EC2-HCXL - 2x8"
  std::string storage;      // backend the data plane ran on
  Seconds compute_time = 0.0;
  Dollars cost_hour_units = 0.0;
  Dollars cost_amortized = 0.0;
  Dollars storage_service_cost = 0.0;  // FS server-hours (object: 0)
};

/// The rows of instance-type figure `id` ("fig3", "fig7" or "fig12"): the
/// figure's workload on each of the four 16-core EC2 layouts. Throws
/// InvalidArgument for any other id.
std::vector<InstanceTypeRow> run_instance_type_figure(
    const std::string& id, unsigned seed = 42,
    storage::StorageKind backend = storage::StorageKind::kObject);

// --- Figure 9: BLAST on Azure, workers x threads grid, 8 cores total ---

struct AzureBlastRow {
  std::string label;  // "Azure-Large x2: 2x2" (instances: workers x threads)
  Seconds compute_time = 0.0;
  Dollars cost_amortized = 0.0;
};

std::vector<AzureBlastRow> run_blast_azure_instance_study(
    unsigned seed = 42, storage::StorageKind backend = storage::StorageKind::kObject);

// --- Scaling figures (5/6 Cap3, 10/11 BLAST, 14/15 GTM) ---

struct ScalingPoint {
  std::string framework;
  std::string deployment;
  std::string storage;  // "local" for unstaged MapReduce/Dryad rows
  int files = 0;
  double efficiency = 0.0;            // Figure 5/10/14
  Seconds per_core_task_seconds = 0;  // Figure 6/11/15
  Seconds makespan = 0.0;
};

/// The points of scaling figure `id` ("fig5", "fig10" or "fig14"): each of
/// the figure's framework setups over `sizes` — Cap3 and GTM file counts,
/// BLAST replications of the inhomogeneous 128-file base set; empty takes
/// the figure's own sweep. Non-object backends also stage the
/// MapReduce/Dryad inputs through the selected backend. Throws
/// InvalidArgument for any other id.
std::vector<ScalingPoint> run_scaling_figure(
    const std::string& id, unsigned seed = 42, const std::vector<int>& sizes = {},
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

// --- `ppcloud catalog` and `ppcloud experiment` ---

/// Tables 1 and 2 plus the bare-metal baseline nodes.
void print_catalog();

/// Prints experiment `id` for `backend` (object, sharedfs, parallelfs or
/// all; empty when none was given). A study that runs on a storage backend
/// defaults to `object`; `all` prints its rows for every backend. With
/// PPC_CSV_DIR=<dir> set, every instance-type and scaling series is also
/// written to <dir>/<table title slug>.csv for plotting. Throws
/// InvalidArgument for an unknown id or backend, or for a backend given to
/// a study that takes none.
void run_experiment(const std::string& id, const std::string& backend);

}  // namespace ppc::core
