#include "apps/cap3/assembler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/cap3/read_simulator.h"
#include "common/error.h"
#include "common/rng.h"

namespace ppc::apps::cap3 {
namespace {

TEST(Trimming, RemovesLowercaseTails) {
  std::size_t trimmed = 0;
  EXPECT_EQ(trim_poor_regions("nnACGTnn", &trimmed), "ACGT");
  EXPECT_EQ(trimmed, 4u);
  EXPECT_EQ(trim_poor_regions("ACGT"), "ACGT");
  EXPECT_EQ(trim_poor_regions("acgt"), "");
  EXPECT_EQ(trim_poor_regions(""), "");
}

TEST(Trimming, InteriorLowercaseKept) {
  // Only *tails* are trimmed (interior low quality would be CAP3's business
  // to correct via consensus).
  EXPECT_EQ(trim_poor_regions("AAccAA"), "AAccAA");
}

class AssemblerTest : public ::testing::Test {
 protected:
  AssemblerConfig config_;

  std::vector<FastaRecord> simulated_reads(std::size_t n, double error_rate, unsigned seed,
                                           std::string* genome = nullptr) {
    ppc::Rng rng(seed);
    ReadSimConfig sim;
    sim.genome_length = 4000;
    sim.num_reads = n;
    sim.read_length_mean = 400;
    sim.error_rate = error_rate;
    sim.poor_tail_prob = 0.3;
    auto ds = simulate_shotgun(sim, rng);
    if (genome != nullptr) *genome = ds.genome;
    return ds.reads;
  }
};

TEST_F(AssemblerTest, TwoOverlappingReadsMergeIntoOneContig) {
  //           0123456789...
  // genome:   the two reads overlap by 60 bases
  ppc::Rng rng(11);
  const std::string genome = random_genome(200, rng);
  const FastaRecord a{"a", genome.substr(0, 120)};
  const FastaRecord b{"b", genome.substr(60, 140)};
  const auto result = assemble({a, b}, config_);
  ASSERT_EQ(result.contigs.size(), 1u);
  EXPECT_EQ(result.contigs[0].consensus, genome);
  EXPECT_EQ(result.contigs[0].read_ids.size(), 2u);
  EXPECT_TRUE(result.singletons.empty());
}

TEST_F(AssemblerTest, NonOverlappingReadsStaySingletons) {
  ppc::Rng rng(12);
  // Two unrelated random sequences share no significant overlap.
  const FastaRecord a{"a", random_genome(300, rng)};
  const FastaRecord b{"b", random_genome(300, rng)};
  const auto result = assemble({a, b}, config_);
  EXPECT_TRUE(result.contigs.empty());
  EXPECT_EQ(result.singletons.size(), 2u);
}

TEST_F(AssemblerTest, ContainedReadJoinsItsContainer) {
  ppc::Rng rng(13);
  const std::string genome = random_genome(300, rng);
  const FastaRecord big{"big", genome};
  const FastaRecord inside{"inside", genome.substr(100, 120)};
  const auto result = assemble({big, inside}, config_);
  ASSERT_EQ(result.contigs.size(), 1u);
  EXPECT_EQ(result.contigs[0].read_ids.size(), 2u);
  EXPECT_EQ(result.stats.contained_reads, 1u);
}

TEST_F(AssemblerTest, ReconstructsGenomeFromCleanShotgunReads) {
  std::string genome;
  const auto reads = simulated_reads(150, /*error_rate=*/0.0, /*seed=*/21, &genome);
  const auto result = assemble(reads, config_);
  ASSERT_FALSE(result.contigs.empty());
  // At 15x coverage the biggest contig should recover most of the genome,
  // and its consensus must be a genuine genome substring.
  const Contig& best = result.contigs.front();
  EXPECT_GT(best.consensus.size(), genome.size() / 2);
  EXPECT_NE(genome.find(best.consensus), std::string::npos)
      << "consensus of error-free reads must match the genome exactly";
}

TEST_F(AssemblerTest, ConsensusCorrectsSequencingErrors) {
  std::string genome;
  const auto reads = simulated_reads(200, /*error_rate=*/0.005, /*seed=*/22, &genome);
  const auto result = assemble(reads, config_);
  ASSERT_FALSE(result.contigs.empty());
  const Contig& best = result.contigs.front();
  ASSERT_GT(best.consensus.size(), 500u);
  // Align the consensus back to the genome (it should appear nearly
  // verbatim; majority voting fixes isolated errors). Count mismatches at
  // the best alignment offset found via a seed.
  const std::string seed = best.consensus.substr(best.consensus.size() / 2, 30);
  const auto pos = genome.find(seed);
  if (pos != std::string::npos) {
    const std::size_t start = pos - std::min(pos, best.consensus.size() / 2);
    std::size_t mismatches = 0, compared = 0;
    for (std::size_t i = 0; i < best.consensus.size() && start + i < genome.size(); ++i) {
      ++compared;
      if (best.consensus[i] != genome[start + i]) ++mismatches;
    }
    ASSERT_GT(compared, 0u);
    EXPECT_LT(static_cast<double>(mismatches) / static_cast<double>(compared), 0.02);
  }
}

TEST_F(AssemblerTest, EmptyInput) {
  const auto result = assemble({}, config_);
  EXPECT_TRUE(result.contigs.empty());
  EXPECT_TRUE(result.singletons.empty());
  EXPECT_EQ(result.stats.input_reads, 0u);
}

TEST_F(AssemblerTest, OrientationRejectsZeroKmer) {
  config_.kmer = 0;
  EXPECT_THROW(resolve_orientations({"ACGTACGT", "ACGTACGT"}, config_), ppc::InvalidArgument);
}

TEST_F(AssemblerTest, AllPoorQualityReadsBecomeSingletons) {
  const auto result = assemble({{"junk1", "acgtacgtacgt"}, {"junk2", "ttttgggg"}}, config_);
  EXPECT_TRUE(result.contigs.empty());
  EXPECT_EQ(result.singletons.size(), 2u);
}

TEST_F(AssemblerTest, MismatchFilterRejectsFalseOverlaps) {
  // Two reads share a 16-mer (the seed) but disagree elsewhere in the
  // overlap region: the mismatch-fraction filter must reject the join.
  ppc::Rng rng(14);
  const std::string shared = random_genome(16, rng);
  std::string left = random_genome(100, rng) + shared;
  std::string right = shared + random_genome(100, rng);
  const auto result = assemble({{"l", left}, {"r", right}}, config_);
  // Overlap implied by the seed is only 16 < min_overlap(40) anyway; also
  // try a longer fake overlap with mismatches sprinkled in.
  std::string fake = shared + random_genome(60, rng);
  std::string fake2 = shared;  // same seed ...
  for (char c : random_genome(60, rng)) fake2.push_back(c);  // ... different tail
  const auto result2 = assemble({{"a", fake}, {"b", fake2}}, config_);
  EXPECT_TRUE(result.contigs.empty());
  EXPECT_TRUE(result2.contigs.empty());
}

TEST_F(AssemblerTest, ReportContainsSummaryAndConsensus) {
  std::string genome;
  const auto reads = simulated_reads(60, 0.0, 23, &genome);
  const auto result = assemble(reads, config_);
  const std::string report = assembly_report(result);
  EXPECT_NE(report.find("CAP3-mini assembly report"), std::string::npos);
  EXPECT_NE(report.find("contigs="), std::string::npos);
  if (!result.contigs.empty()) {
    EXPECT_NE(report.find(">Contig1"), std::string::npos);
  }
}

TEST_F(AssemblerTest, FileContractRoundTrip) {
  ppc::Rng rng(31);
  const std::string input = make_cap3_input(100, rng);
  const std::string output = assemble_fasta_file(input, config_);
  EXPECT_NE(output.find("reads=100"), std::string::npos);
}

TEST(N50, KnownDistribution) {
  std::vector<Contig> contigs;
  for (std::size_t len : {80u, 70u, 50u, 40u, 30u, 20u}) {
    contigs.push_back({std::string(len, 'A'), {}});
  }
  // total=290, half=145; 80+70=150 >= 145 -> N50 = 70.
  EXPECT_EQ(n50(contigs), 70u);
  EXPECT_EQ(n50({}), 0u);
}

TEST(N50, SingleContig) {
  EXPECT_EQ(n50({{std::string(42, 'A'), {}}}), 42u);
}

}  // namespace
}  // namespace ppc::apps::cap3
