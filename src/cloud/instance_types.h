// Instance-type catalogs reproducing Table 1 (Amazon EC2) and Table 2
// (Windows Azure) of the paper, plus the bare-metal clusters named in the
// scalability sections (§4.2, §5.2, §6.2).
//
// Clock rates follow the paper's text: EC2 compute unit ≈ 1.0-1.2 GHz; the
// paper's stated actual clocks are ~2.0 GHz (L, XL), ~2.5 GHz (HCXL),
// ~3.25 GHz (HM4XL); Azure cores are "speculated ... approximately 1.5 GHz
// to 1.7 GHz" but §2.1.2 observes 8 Azure Small ≈ 1 HCXL (20 compute units),
// so we give Azure an *effective* per-core clock of 2.5 GHz for work-rate
// purposes, matching that observation.
//
// Memory bandwidth is not in the paper; we assign 2010-plausible per-socket
// figures chosen so that bandwidth *per busy core* reproduces the GTM
// ordering of §6.2 (Azure Small best, EC2 Large > HCXL ≈ XL, 16-core Dryad
// nodes worst).
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace ppc::cloud {

enum class Provider { kAmazonEC2, kWindowsAzure, kBareMetal };
enum class Platform { kLinux, kWindows };

std::string to_string(Provider p);
std::string to_string(Platform p);

struct InstanceType {
  std::string name;  // catalog key, e.g. "EC2-HCXL"
  Provider provider = Provider::kAmazonEC2;
  Platform platform = Platform::kLinux;
  int cpu_cores = 1;          // "actual CPU cores" column of Table 1
  double clock_ghz = 2.0;     // effective per-core clock for work-rate math
  double memory_gb = 1.0;
  Dollars cost_per_hour = 0.0;
  int ec2_compute_units = 0;  // Table 1 column; 0 for Azure / bare metal
  bool is_64bit = true;
  double memory_bandwidth_gbps = 6.4;  // per instance, shared by its cores
  /// Spot/preemptible market instance: same hardware at a discounted
  /// `cost_per_hour`, revocable by the provider at any time (the elastic
  /// fleet delivers revocations with a short notice window).
  bool spot = false;
  /// The on-demand rate the spot price was discounted from; 0 unless `spot`.
  Dollars on_demand_cost_per_hour = 0.0;

  /// Memory per core in GB — the quantity §5.1/§6 reason about.
  double memory_per_core_gb() const { return memory_gb / cpu_cores; }

  /// Memory bandwidth available per busy core when `busy` cores are active.
  double bandwidth_per_busy_core(int busy) const;

  /// The rate an on-demand instance of this hardware bills at — the
  /// counterfactual side of the spot-savings line item.
  Dollars undiscounted_rate() const {
    return spot ? on_demand_cost_per_hour : cost_per_hour;
  }
};

// --- Table 1: selected EC2 instance types ---
const InstanceType& ec2_small();   // 32-bit only; excluded from the studies
const InstanceType& ec2_large();   // L : 7.5 GB, 4 ECU, 2 x ~2 GHz, $0.34/h
const InstanceType& ec2_xlarge();  // XL: 15 GB, 8 ECU, 4 x ~2 GHz, $0.68/h
const InstanceType& ec2_hcxl();    // HCXL: 7 GB, 20 ECU, 8 x ~2.5 GHz, $0.68/h
const InstanceType& ec2_hm4xl();   // HM4XL: 68.4 GB, 26 ECU, 8 x ~3.25 GHz, $2.00/h

// --- Table 2: Azure instance types ---
const InstanceType& azure_small();   // 1 core, 1.7 GB, $0.12/h
const InstanceType& azure_medium();  // 2 cores, 3.5 GB, $0.24/h
const InstanceType& azure_large();   // 4 cores, 7 GB, $0.48/h
const InstanceType& azure_xlarge();  // 8 cores, 15 GB, $0.96/h

// --- Bare-metal clusters used for the Hadoop / DryadLINQ baselines ---
/// §4.2: 32 node x 8 core (2.5 GHz), 16 GB/node (Cap3 Hadoop + Dryad).
const InstanceType& bare_metal_cap3_node();
/// §5.2: iDataplex, 2 x 4-core Xeon E5410 2.33 GHz, 16 GB (Hadoop BLAST).
const InstanceType& bare_metal_idataplex_node();
/// §5.2: Windows HPC, 16 core AMD Opteron 2.3 GHz, 16 GB (Dryad BLAST/GTM).
const InstanceType& bare_metal_hpcs_node();
/// §6.2: 24 core Intel Xeon 2.4 GHz, 48 GB, configured to use 8 cores
/// (Hadoop GTM).
const InstanceType& bare_metal_gtm_hadoop_node();
/// §4.3: the owned cluster of the cost comparison — 32 node x 24 core,
/// 48 GB/node, Infiniband.
const InstanceType& bare_metal_cost_cluster_node();

/// All Table 1 rows (the four 64-bit study types).
std::vector<InstanceType> ec2_catalog();

/// All Table 2 rows.
std::vector<InstanceType> azure_catalog();

/// Looks up any catalog type by name; throws ppc::InvalidArgument if absent.
const InstanceType& find_type(const std::string& name);

/// Default spot discount: spot capacity clears at ~30% of the on-demand
/// rate (the historical EC2 spot-market average for steady bids).
inline constexpr double kDefaultSpotDiscount = 0.7;

/// The spot-market variant of `on_demand`: identical hardware, name suffixed
/// "-spot", `spot` set, billed at (1 - kDefaultSpotDiscount) x the on-demand
/// rate. Throws for bare-metal types (no spot market).
InstanceType spot_variant(const InstanceType& on_demand);

}  // namespace ppc::cloud
