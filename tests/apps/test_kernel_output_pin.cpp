// Output pins for the BLAST, Cap3 and GTM file contracts: the fnv1a64 digest
// of search_file / assemble_fasta_file / interpolate_csv_file output over
// seeded inputs, compared with digests recorded from the hash-map BLAST
// index, the string-keyed Cap3 index and the K x N-matrix GTM E-step. A
// kernel rewrite must keep every byte, so these literals never change with
// one. No input goes through the GTM EM, whose matrix products a build may
// contract to FMA differently per optimization level and CPU, so the
// digests do not depend on the build type.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "apps/blast/aligner.h"
#include "apps/blast/db.h"
#include "apps/cap3/assembler.h"
#include "apps/cap3/read_simulator.h"
#include "apps/gtm/data_gen.h"
#include "common/string_util.h"
#include "kernel_reference.h"

namespace ppc::apps {
namespace {

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A query file of `count` queries of `length` residues, 70% planted
/// homologs (5% mutated) of database entries: the benchmark job's shape.
std::string blast_query_file(const blast::SequenceDb& db, std::size_t count,
                             std::size_t length, ppc::Rng& rng) {
  std::vector<FastaRecord> queries(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries[i].id = "query-" + std::to_string(i);
    queries[i].seq = rng.bernoulli(0.7)
                         ? blast::plant_query(db, rng.index(db.size()), length, 0.05, rng)
                         : blast::random_protein(length, rng);
  }
  return write_fasta(queries);
}

TEST(KernelOutputPin, BlastMixedJobFiles) {
  // The benchmark job's BLAST files: a 1000-sequence DB, k = 3, files of
  // 12-48 queries of 120 residues.
  ppc::Rng rng(11);
  blast::DbGenConfig db_config;
  db_config.num_sequences = 1000;
  const auto db = blast::SequenceDb::generate(db_config, rng);
  const blast::BlastIndex index(db);
  std::string out;
  for (const std::size_t queries : {12u, 24u, 36u, 48u}) {
    out += index.search_file(blast_query_file(db, queries, 120, rng));
  }
  EXPECT_EQ(hex(ppc::fnv1a64(out)), "0x2165a0bfd4e68328");
}

TEST(KernelOutputPin, BlastRefetchFiles) {
  // The DB-refetch job's shape at a test-sized DB: k = 4, two queries a file.
  ppc::Rng rng(12);
  blast::DbGenConfig db_config;
  db_config.num_sequences = 1500;
  const auto db = blast::SequenceDb::generate(db_config, rng);
  blast::AlignerConfig config;
  config.k = 4;
  const blast::BlastIndex index(db, config);
  std::string out;
  for (int file = 0; file < 24; ++file) out += index.search_file(blast_query_file(db, 2, 120, rng));
  EXPECT_EQ(hex(ppc::fnv1a64(out)), "0xc2a562cc4de32aba");
}

TEST(KernelOutputPin, BlastHostileFiles) {
  // One digest per k, 4 seeds each, against a DB with repeat and odd records.
  const std::pair<std::size_t, const char*> pins[] = {{2, "0x728301714ba16da8"}, {5, "0x6a75e7c6c6893256"}};
  for (const auto& [k, want] : pins) {
    std::string out;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ppc::Rng rng(seed);
      const auto db = kernel_reference::hostile_blast_db(rng);
      blast::AlignerConfig config;
      config.k = k;
      const blast::BlastIndex index(db, config);
      out += index.search_file(write_fasta(kernel_reference::hostile_queries(db, rng)));
    }
    EXPECT_EQ(hex(ppc::fnv1a64(out)), want) << "k=" << k;
  }
}

TEST(KernelOutputPin, Cap3MixedJobFiles) {
  // The benchmark job's Cap3 files (min_overlap 30) and the default config.
  std::string out;
  for (const std::uint64_t seed : {1u, 2u}) {
    ppc::Rng rng(seed);
    for (const std::size_t reads : {32u, 48u, 70u, 93u}) {
      const std::string fasta = cap3::make_cap3_input(reads, rng);
      cap3::AssemblerConfig config;
      out += cap3::assemble_fasta_file(fasta, config);
      config.min_overlap = 30;
      out += cap3::assemble_fasta_file(fasta, config);
    }
  }
  EXPECT_EQ(hex(ppc::fnv1a64(out)), "0x465296535a31d0fd");
}

TEST(KernelOutputPin, Cap3HostileFiles) {
  // One digest per k: 8 seeds x orientation handling on and off.
  const std::pair<std::size_t, const char*> pins[] = {
      {8, "0xf6b8cec31f97abb4"},  {16, "0x49fe5b8583833415"}, {31, "0x10e3c75102175a6e"},
      {32, "0xd6a227343cab914d"}, {33, "0x9cfc37eafecb41ff"},
  };
  for (const auto& [k, want] : pins) {
    std::string out;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      ppc::Rng rng(seed);
      const std::string fasta = write_fasta(kernel_reference::hostile_reads(rng));
      for (const bool rc : {true, false}) {
        cap3::AssemblerConfig config;
        config.kmer = k;
        config.handle_reverse_complements = rc;
        out += cap3::assemble_fasta_file(fasta, config);
      }
    }
    EXPECT_EQ(hex(ppc::fnv1a64(out)), want) << "k=" << k;
  }
}

TEST(KernelOutputPin, GtmMixedJobFiles) {
  // The benchmark job's model shape (K = 256, D = 16) at a trained model's
  // beta and at a smooth one. Trained models are not pinned here: the EM's
  // matrix products may contract to FMA differently per build and CPU.
  std::string out;
  for (const std::uint64_t seed : {1u, 2u}) {
    ppc::Rng rng(seed);
    for (const double beta : {157.0, 2.0}) {
      const gtm::GtmModel model = kernel_reference::random_model(16, 16, beta, rng);
      for (const std::size_t n : {700u, 2800u}) {
        const gtm::Matrix points = kernel_reference::clustered_points(n, 16, 0.0, rng);
        out += gtm::interpolate_csv_file(model, gtm::matrix_to_csv(points));
      }
    }
  }
  EXPECT_EQ(hex(ppc::fnv1a64(out)), "0xf6daab3ddaebf7f2");
}

TEST(KernelOutputPin, GtmHostileFiles) {
  // d = 1..20, with 1% of the interpolated points scaled by 1e6.
  std::string out;
  ppc::Rng rng(7);
  for (std::size_t d = 1; d <= 20; ++d) {
    const gtm::GtmModel model = kernel_reference::random_model(6, d, 50.0, rng);
    const gtm::Matrix points = kernel_reference::clustered_points(300, d, 0.01, rng);
    out += gtm::interpolate_csv_file(model, gtm::matrix_to_csv(points));
  }
  EXPECT_EQ(hex(ppc::fnv1a64(out)), "0xe98c307cc42ff59d");
}

}  // namespace
}  // namespace ppc::apps
