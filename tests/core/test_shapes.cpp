// Shape tests: the qualitative claims of every figure/table in the paper's
// evaluation must hold in our reproduction. These are the project's
// headline assertions — EXPERIMENTS.md quotes the numbers these tests pin.
#include <gtest/gtest.h>

#include <map>

#include "core/experiments.h"

namespace ppc::core {
namespace {

template <typename Rows>
std::map<std::string, typename Rows::value_type> by_label(const Rows& rows) {
  std::map<std::string, typename Rows::value_type> out;
  for (const auto& r : rows) out.emplace(r.label, r);
  return out;
}

// --- Figures 3 & 4: Cap3 on EC2 instance types ---

class Cap3InstanceStudy : public ::testing::Test {
 protected:
  static const std::vector<InstanceTypeRow>& rows() {
    static const auto r = run_instance_type_figure("fig3", 42);
    return r;
  }
};

TEST_F(Cap3InstanceStudy, HasAllFourDeployments) {
  ASSERT_EQ(rows().size(), 4u);
}

TEST_F(Cap3InstanceStudy, Hm4xlIsFastest) {
  const auto m = by_label(rows());
  const auto& hm4xl = m.at("EC2-HM4XL - 2x8");
  for (const auto& [label, row] : m) {
    if (label != "EC2-HM4XL - 2x8") {
      EXPECT_LT(hm4xl.compute_time, row.compute_time) << label;
    }
  }
}

TEST_F(Cap3InstanceStudy, HcxlIsMostCostEffective) {
  const auto m = by_label(rows());
  const auto& hcxl = m.at("EC2-HCXL - 2x8");
  for (const auto& [label, row] : m) {
    if (label != "EC2-HCXL - 2x8") {
      EXPECT_LT(hcxl.cost_hour_units, row.cost_hour_units + 1e-9) << label;
      EXPECT_LT(hcxl.cost_amortized, row.cost_amortized) << label;
    }
  }
}

TEST_F(Cap3InstanceStudy, MemoryIsNotABottleneck) {
  // L (7.5 GB) and XL (15 GB) share the clock: times within a few percent.
  const auto m = by_label(rows());
  const double ratio = m.at("EC2-L - 8x2").compute_time / m.at("EC2-XL - 4x4").compute_time;
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST_F(Cap3InstanceStudy, HourUnitCostsMatchCatalogRates) {
  const auto m = by_label(rows());
  EXPECT_NEAR(m.at("EC2-L - 8x2").cost_hour_units, 8 * 0.34, 1e-9);
  EXPECT_NEAR(m.at("EC2-XL - 4x4").cost_hour_units, 4 * 0.68, 1e-9);
  EXPECT_NEAR(m.at("EC2-HCXL - 2x8").cost_hour_units, 2 * 0.68, 1e-9);
  EXPECT_NEAR(m.at("EC2-HM4XL - 2x8").cost_hour_units, 2 * 2.00, 1e-9);
}

// --- Figures 7 & 8: BLAST on EC2 instance types ---

class BlastInstanceStudy : public ::testing::Test {
 protected:
  static const std::vector<InstanceTypeRow>& rows() {
    static const auto r = run_instance_type_figure("fig7", 42);
    return r;
  }
};

TEST_F(BlastInstanceStudy, XlComparableToHcxlDespiteClock) {
  const auto m = by_label(rows());
  const double ratio =
      m.at("EC2-XL - 4x4").compute_time / m.at("EC2-HCXL - 2x8").compute_time;
  EXPECT_NEAR(ratio, 1.0, 0.15) << "§5.1: memory compensates for clock";
}

TEST_F(BlastInstanceStudy, Hm4xlFastestButExpensive) {
  const auto m = by_label(rows());
  const auto& hm4xl = m.at("EC2-HM4XL - 2x8");
  const auto& hcxl = m.at("EC2-HCXL - 2x8");
  EXPECT_LT(hm4xl.compute_time, hcxl.compute_time);
  EXPECT_GT(hm4xl.cost_hour_units, hcxl.cost_hour_units);
}

TEST_F(BlastInstanceStudy, HcxlMostCostEffective) {
  const auto m = by_label(rows());
  const auto& hcxl = m.at("EC2-HCXL - 2x8");
  for (const auto& [label, row] : m) {
    if (label != "EC2-HCXL - 2x8") {
      EXPECT_LT(hcxl.cost_amortized, row.cost_amortized) << label;
    }
  }
}

// --- Figure 9: BLAST on Azure types ---

class BlastAzureStudy : public ::testing::Test {
 protected:
  static const std::vector<AzureBlastRow>& rows() {
    static const auto r = run_blast_azure_instance_study(42);
    return r;
  }
  static double time_of(const std::string& label) {
    for (const auto& r : rows()) {
      if (r.label == label) return r.compute_time;
    }
    ADD_FAILURE() << "missing configuration " << label;
    return 0.0;
  }
};

TEST_F(BlastAzureStudy, LargeAndXlDeliverBestPerformance) {
  // §5.1: "Azure Large and Extra-Large instances deliver the best
  // performance for BLAST" (the database fits in memory).
  const double small = time_of("Azure-Small - 8x1");
  const double large = time_of("Azure-Large - 2x4");
  const double xl = time_of("Azure-XL - 1x8");
  EXPECT_LT(large, small);
  EXPECT_LT(xl, small);
}

TEST_F(BlastAzureStudy, MemoryLadderMonotone) {
  EXPECT_GT(time_of("Azure-Small - 8x1"), time_of("Azure-Medium - 4x2"));
  EXPECT_GT(time_of("Azure-Medium - 4x2"), time_of("Azure-Large - 2x4"));
}

TEST_F(BlastAzureStudy, PureThreadsSlightlySlowerThanProcesses) {
  // §5.1: "Using pure BLAST threads ... delivered slightly lesser
  // performance than using multiple workers."
  const double processes = time_of("Azure-XL - 1x8");
  const double threads = time_of("Azure-XL - 1x1x8t");
  EXPECT_GT(threads, processes);
  EXPECT_LT(threads, processes * 1.5) << "only *slightly* lesser";
  const double large_procs = time_of("Azure-Large - 2x4");
  const double large_threads = time_of("Azure-Large - 2x1x4t");
  EXPECT_GT(large_threads, large_procs);
}

// --- Figures 12 & 13: GTM on EC2 instance types ---

class GtmInstanceStudy : public ::testing::Test {
 protected:
  static const std::vector<InstanceTypeRow>& rows() {
    static const auto r = run_instance_type_figure("fig12", 42);
    return r;
  }
};

TEST_F(GtmInstanceStudy, Hm4xlBestPerformance) {
  const auto m = by_label(rows());
  const auto& hm4xl = m.at("EC2-HM4XL - 2x8");
  for (const auto& [label, row] : m) {
    if (label != "EC2-HM4XL - 2x8") {
      EXPECT_LT(hm4xl.compute_time, row.compute_time) << label;
    }
  }
}

TEST_F(GtmInstanceStudy, MemoryBandwidthIsTheBottleneck) {
  // Large (2 busy cores per bus) beats HCXL (8 busy cores) despite HCXL's
  // higher clock — the §6.1 signature.
  const auto m = by_label(rows());
  EXPECT_LT(m.at("EC2-L - 8x2").compute_time, m.at("EC2-HCXL - 2x8").compute_time);
}

TEST_F(GtmInstanceStudy, HcxlStillMostEconomical) {
  const auto m = by_label(rows());
  const auto& hcxl = m.at("EC2-HCXL - 2x8");
  for (const auto& [label, row] : m) {
    if (label != "EC2-HCXL - 2x8") {
      EXPECT_LE(hcxl.cost_amortized, row.cost_amortized + 1e-9) << label;
    }
  }
}

// --- Figures 5/6, 10/11, 14/15: scalability studies ---

std::map<std::string, std::vector<ScalingPoint>> group_by_framework(
    const std::vector<ScalingPoint>& points) {
  std::map<std::string, std::vector<ScalingPoint>> out;
  for (const auto& p : points) out[p.framework].push_back(p);
  return out;
}

class Cap3Scaling : public ::testing::Test {
 protected:
  static const std::vector<ScalingPoint>& points() {
    static const auto p = run_scaling_figure("fig5", 42, {512, 1024, 2048});
    return p;
  }
};

TEST_F(Cap3Scaling, AllFourFrameworksPresent) {
  const auto groups = group_by_framework(points());
  EXPECT_TRUE(groups.contains("ClassicCloud-EC2"));
  EXPECT_TRUE(groups.contains("ClassicCloud-Azure"));
  EXPECT_TRUE(groups.contains("Hadoop"));
  EXPECT_TRUE(groups.contains("DryadLINQ"));
}

TEST_F(Cap3Scaling, EfficienciesComparableWithin20Percent) {
  // §4.2: "all four implementations exhibit comparable parallel efficiency
  // (within 20%) with low parallelization overheads."
  for (const auto& [framework, series] : group_by_framework(points())) {
    for (const auto& p : series) {
      EXPECT_GT(p.efficiency, 0.70) << framework << " @ " << p.files;
      EXPECT_LE(p.efficiency, 1.0) << framework << " @ " << p.files;
    }
  }
}

TEST_F(Cap3Scaling, EfficiencyImprovesOrHoldsWithScale) {
  for (const auto& [framework, series] : group_by_framework(points())) {
    ASSERT_GE(series.size(), 2u);
    EXPECT_GE(series.back().efficiency, series.front().efficiency - 0.05) << framework;
  }
}

class BlastScaling : public ::testing::Test {
 protected:
  static const std::vector<ScalingPoint>& points() {
    static const auto p = run_scaling_figure("fig10", 42, {1, 2, 3});
    return p;
  }
};

TEST_F(BlastScaling, NearLinearScalabilityWithin20Percent) {
  // §5.2: "near-linear scalability with comparable performance (within 20%
  // efficiency)". The smallest scale (one wave of the inhomogeneous base
  // set) is tail-dominated; efficiency must recover as the set grows.
  std::map<int, std::pair<double, double>> eff_range;  // files -> (min, max)
  for (const auto& [framework, series] : group_by_framework(points())) {
    for (const auto& p : series) {
      EXPECT_GT(p.efficiency, 0.45) << framework << " @ " << p.files;
      auto& [lo, hi] = eff_range.try_emplace(p.files, 1.0, 0.0).first->second;
      lo = std::min(lo, p.efficiency);
      hi = std::max(hi, p.efficiency);
    }
    // Near-linear: efficiency at the largest set is healthy.
    EXPECT_GT(series.back().efficiency, 0.62) << framework;
  }
  // "comparable performance (within 20% efficiency)": the framework spread
  // stays bounded at every scale (the paper's figure spans roughly a
  // 20-percentage-point band once past the first replication).
  for (const auto& [files, range] : eff_range) {
    EXPECT_LT(range.second - range.first, 0.25) << "at " << files << " files";
    EXPECT_GT(range.first / range.second, 0.70) << "at " << files << " files";
  }
}

TEST_F(BlastScaling, WindowsEnvironmentsLeadEfficiency) {
  // §5.2: "BLAST on Windows environments (Azure and DryadLINQ) exhibit the
  // better overall efficiency", with EC2 HCXL lowest (1 GB/core).
  const auto groups = group_by_framework(points());
  auto mean_eff = [&](const std::string& fw) {
    double s = 0;
    for (const auto& p : groups.at(fw)) s += p.efficiency;
    return s / groups.at(fw).size();
  };
  EXPECT_GT(mean_eff("ClassicCloud-Azure"), mean_eff("ClassicCloud-EC2"));
  EXPECT_GT(mean_eff("DryadLINQ"), mean_eff("ClassicCloud-EC2"));
}

class GtmScaling : public ::testing::Test {
 protected:
  static const std::vector<ScalingPoint>& points() {
    static const auto p = run_scaling_figure("fig14", 42, {88, 176});
    return p;
  }
};

TEST_F(GtmScaling, EfficienciesLowerThanCap3) {
  // §6.2: memory-bound GTM yields "lower efficiency numbers".
  bool saw_low = false;
  for (const auto& p : points()) {
    EXPECT_LE(p.efficiency, 1.0) << p.framework;
    if (p.efficiency < 0.8) saw_low = true;
  }
  EXPECT_TRUE(saw_low);
}

TEST_F(GtmScaling, AzureSmallBestAndDryadWorst) {
  const auto groups = group_by_framework(points());
  auto mean_eff = [&](const std::string& fw) {
    double s = 0;
    for (const auto& p : groups.at(fw)) s += p.efficiency;
    return s / groups.at(fw).size();
  };
  const double azure = mean_eff("ClassicCloud-Azure");
  const double dryad = mean_eff("DryadLINQ");
  for (const auto& [fw, _] : groups) {
    if (fw != "ClassicCloud-Azure") {
      EXPECT_GE(azure, mean_eff(fw) - 1e-9) << "Azure Small must lead (§6.2), lost to " << fw;
    }
    if (fw != "DryadLINQ") {
      EXPECT_LE(dryad, mean_eff(fw) + 1e-9) << "16-core Dryad nodes must trail (§6.2)";
    }
  }
}

TEST_F(GtmScaling, Ec2LargeBestAmongEc2Choices) {
  const auto groups = group_by_framework(points());
  std::map<std::string, double> ec2_eff;
  for (const auto& p : points()) {
    if (p.framework == "ClassicCloud-EC2") {
      ec2_eff[p.deployment] += p.efficiency;
    }
  }
  ASSERT_EQ(ec2_eff.size(), 3u);  // Large, HCXL, HM4XL deployments
  const double large = ec2_eff.at("EC2-L - 32x2");
  for (const auto& [label, eff] : ec2_eff) {
    if (label != "EC2-L - 32x2") {
      EXPECT_GT(large, eff) << label;
    }
  }
}

// --- Table 4 ---

class Table4 : public ::testing::Test {
 protected:
  static const Table4Report& report() {
    static const auto r = run_table4_cost_comparison(42);
    return r;
  }
};

TEST_F(Table4, Ec2TotalNearPaper) {
  // Paper: $11.13. Compute must dominate at $10.88 (16 HCXL, one hour).
  EXPECT_NEAR(report().ec2.total(), 11.13, 0.35);
  EXPECT_NEAR(report().ec2.items()[0].amount, 10.88, 1e-9);
  EXPECT_LE(report().ec2_makespan, 3600.0) << "must fit one billing hour";
}

TEST_F(Table4, AzureTotalNearPaper) {
  // Paper: $15.77 with compute at $15.36 (128 Small, one hour).
  EXPECT_NEAR(report().azure.total(), 15.77, 0.45);
  EXPECT_NEAR(report().azure.items()[0].amount, 15.36, 1e-9);
  EXPECT_LE(report().azure_makespan, 3600.0);
}

TEST_F(Table4, QueueCostIsNegligible) {
  EXPECT_LT(report().ec2.items()[1].amount, 0.10);
  EXPECT_LT(report().azure.items()[1].amount, 0.10);
}

TEST_F(Table4, ClusterCheaperAtHighUtilizationGapNarrowsAtLow) {
  const auto& cluster = report().cluster_costs;
  ASSERT_EQ(cluster.size(), 3u);
  const double ec2_total = report().ec2.total();
  EXPECT_LT(cluster[0].second, ec2_total);  // 80% util beats the cloud
  EXPECT_LT(cluster[0].second, cluster[1].second);
  EXPECT_LT(cluster[1].second, cluster[2].second);
  // Paper: at 60% the cluster (≈$11) approaches the EC2 total (≈$11.13).
  EXPECT_GT(cluster[2].second / ec2_total, 0.6);
}

// --- §3 variability ---

TEST(SustainedVariability, MatchesPaperStdDevs) {
  const auto report = run_sustained_variability_study(42, 24);
  // Paper: 1.56% (AWS) and 2.25% (Azure); we accept the right ballpark and
  // ordering.
  EXPECT_GT(report.ec2_cv, 0.003);
  EXPECT_LT(report.ec2_cv, 0.04);
  EXPECT_GT(report.azure_cv, 0.005);
  EXPECT_LT(report.azure_cv, 0.06);
}

}  // namespace
}  // namespace ppc::core
