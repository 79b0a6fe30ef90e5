// Randomized equivalence tests pinning the optimized kernels against naive
// reference implementations. The references here ARE the spec: a plain
// triple-loop matmul, a factor-per-column Cholesky, a string-keyed
// seed-and-extend BLAST, and (kernel_reference.h) the string-keyed Cap3 and
// the K x N-matrix GTM interpolation. The optimized kernels in the library
// must produce the same results (bitwise for integer scores, Cap3 reports
// and GTM coordinates, |delta| < 1e-9 for the matrix kernels) on randomized
// inputs, including shapes that exercise tile remainders and the parallel
// row-band path, and on hostile Cap3 and GTM inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/blast/aligner.h"
#include "apps/blast/db.h"
#include "apps/blast/protein.h"
#include "apps/cap3/assembler.h"
#include "apps/cap3/read_simulator.h"
#include "apps/gtm/gtm.h"
#include "apps/gtm/matrix.h"
#include "common/rng.h"
#include "kernel_reference.h"

namespace ppc::apps {
namespace {

using gtm::CholeskyFactorization;
using gtm::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, ppc::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// The reference: textbook triple loop, k accumulated in increasing order
/// (the same summation order the tiled kernel uses).
Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      c(i, j) = sum;
    }
  }
  return c;
}

void expect_matrices_near(const Matrix& got, const Matrix& want, double tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.data().size(); ++i) {
    ASSERT_NEAR(got.data()[i], want.data()[i], tol) << "flat index " << i;
  }
}

TEST(KernelEquivalence, MultiplyMatchesNaiveOnRandomShapes) {
  ppc::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 12; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    expect_matrices_near(a.multiply(b), naive_multiply(a, b), 1e-9);
  }
}

TEST(KernelEquivalence, MultiplyMatchesNaiveOnTileRemainders) {
  // Shapes straddling the micro-kernel tile (4 rows x 12 columns) and the
  // packing panel boundaries: every remainder combination gets exercised.
  ppc::Rng rng(7);
  for (const auto& [m, k, n] : {std::tuple<std::size_t, std::size_t, std::size_t>{4, 8, 12},
                                {5, 9, 13},
                                {3, 1, 11},
                                {129, 67, 83},
                                {64, 64, 64}}) {
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    expect_matrices_near(a.multiply(b), naive_multiply(a, b), 1e-9);
  }
}

TEST(KernelEquivalence, MultiplyMatchesNaiveOnParallelPath) {
  // Large enough that multiply() fans row bands out over the thread pool.
  ppc::Rng rng(11);
  const Matrix a = random_matrix(220, 200, rng);
  const Matrix b = random_matrix(200, 210, rng);
  expect_matrices_near(a.multiply(b), naive_multiply(a, b), 1e-9);
}

/// Random SPD matrix: B B^T + n I.
Matrix random_spd(std::size_t n, ppc::Rng& rng) {
  const Matrix b = random_matrix(n, n, rng);
  Matrix a = b.multiply(b.transpose());
  a.add_diagonal(static_cast<double>(n));
  return a;
}

TEST(KernelEquivalence, CholeskyMatrixSolveMatchesPerColumnSolve) {
  ppc::Rng rng(0x5EED);
  for (const std::size_t n : {1u, 5u, 20u, 48u}) {
    const Matrix a = random_spd(n, rng);
    const Matrix rhs = random_matrix(n, 7, rng);
    const Matrix x = gtm::cholesky_solve_matrix(a, rhs);

    // Reference: factor from scratch for every column via the one-shot
    // solver (the seed's behavior).
    for (std::size_t c = 0; c < rhs.cols(); ++c) {
      std::vector<double> col(n);
      for (std::size_t r = 0; r < n; ++r) col[r] = rhs(r, c);
      const std::vector<double> ref = gtm::cholesky_solve(a, col);
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_NEAR(x(r, c), ref[r], 1e-9) << "n=" << n << " col=" << c << " row=" << r;
      }
    }

    // And the solution actually solves the system.
    const Matrix ax = a.multiply(x);
    expect_matrices_near(ax, rhs, 1e-6);
  }
}

TEST(KernelEquivalence, CholeskyFactorizationReusesFactorConsistently) {
  ppc::Rng rng(21);
  const Matrix a = random_spd(16, rng);
  const CholeskyFactorization chol(a);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> b(16);
    for (auto& v : b) v = rng.uniform(-2.0, 2.0);
    const auto from_factor = chol.solve(b);
    const auto from_scratch = gtm::cholesky_solve(a, b);
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_NEAR(from_factor[i], from_scratch[i], 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// BLAST: naive string-keyed index vs the packed integer-code index.
// ---------------------------------------------------------------------------

/// The reference searcher: index k-mers as substrings in an ordered map and
/// run the same seed-and-extend algorithm the optimized index implements.
/// K-mers containing a non-standard residue never seed (they have no packed
/// code); extension scores them as mismatches via blosum62.
class NaiveBlast {
 public:
  NaiveBlast(const blast::SequenceDb& db, blast::AlignerConfig config)
      : db_(db), config_(config) {
    for (std::size_t s = 0; s < db_.size(); ++s) {
      const std::string& seq = db_.record(s).seq;
      if (seq.size() < config_.k) continue;
      for (std::size_t p = 0; p + config_.k <= seq.size(); ++p) {
        if (!all_standard(seq, p)) continue;
        index_[seq.substr(p, config_.k)].push_back({s, p});
      }
    }
  }

  std::vector<blast::Hit> search(const blast::FastaRecord& query) const {
    struct Best {
      int score = 0;
      std::size_t len = 0, identical = 0, qstart = 0, sstart = 0;
    };
    std::map<std::size_t, Best> best_per_subject;
    const std::string& q = query.seq;
    if (q.size() < config_.k) return {};

    for (std::size_t qp = 0; qp + config_.k <= q.size(); ++qp) {
      if (!all_standard(q, qp)) continue;
      int seed_score = 0;
      for (std::size_t i = 0; i < config_.k; ++i) seed_score += blast::blosum62(q[qp + i], q[qp + i]);
      if (seed_score < config_.seed_threshold) continue;
      const auto it = index_.find(q.substr(qp, config_.k));
      if (it == index_.end()) continue;

      for (const auto& [sidx, sp] : it->second) {
        const std::string& s = db_.record(sidx).seq;
        int best_score = seed_score;
        std::size_t best_right = config_.k;
        {
          int run = seed_score;
          std::size_t i = config_.k;
          while (qp + i < q.size() && sp + i < s.size()) {
            run += blast::blosum62(q[qp + i], s[sp + i]);
            ++i;
            if (run > best_score) {
              best_score = run;
              best_right = i;
            } else if (run < best_score - config_.x_drop) {
              break;
            }
          }
        }
        std::size_t best_left = 0;
        {
          int run = best_score;
          int local_best = best_score;
          std::size_t i = 0;
          while (qp > i && sp > i) {
            ++i;
            run += blast::blosum62(q[qp - i], s[sp - i]);
            if (run > local_best) {
              local_best = run;
              best_left = i;
            } else if (run < local_best - config_.x_drop) {
              break;
            }
          }
          best_score = local_best;
        }
        if (best_score < config_.score_cutoff) continue;

        const std::size_t len = best_left + best_right;
        const std::size_t qstart = qp - best_left;
        const std::size_t sstart = sp - best_left;
        Best& cur = best_per_subject[sidx];
        if (best_score > cur.score) {
          std::size_t identical = 0;
          for (std::size_t i = 0; i < len; ++i) {
            if (q[qstart + i] == s[sstart + i]) ++identical;
          }
          cur = {best_score, len, identical, qstart, sstart};
        }
      }
    }

    std::vector<blast::Hit> hits;
    for (const auto& [subject, b] : best_per_subject) {
      blast::Hit h;
      h.query_id = query.id;
      h.subject_id = db_.record(subject).id;
      h.score = b.score;
      h.align_length = b.len;
      h.identity =
          b.len == 0 ? 0.0 : static_cast<double>(b.identical) / static_cast<double>(b.len);
      h.query_start = b.qstart;
      h.subject_start = b.sstart;
      hits.push_back(std::move(h));
    }
    std::sort(hits.begin(), hits.end(), [](const blast::Hit& a, const blast::Hit& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.subject_id < b.subject_id;
    });
    if (hits.size() > config_.max_hits) hits.resize(config_.max_hits);
    return hits;
  }

 private:
  bool all_standard(const std::string& seq, std::size_t p) const {
    for (std::size_t i = 0; i < config_.k; ++i) {
      if (blast::amino_index(seq[p + i]) < 0) return false;
    }
    return true;
  }

  blast::SequenceDb db_;
  blast::AlignerConfig config_;
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>> index_;
};

void expect_same_hits(const std::vector<blast::Hit>& got, const std::vector<blast::Hit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].subject_id, want[i].subject_id) << "hit " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "hit " << i;
    EXPECT_EQ(got[i].align_length, want[i].align_length) << "hit " << i;
    EXPECT_NEAR(got[i].identity, want[i].identity, 1e-9) << "hit " << i;
    EXPECT_EQ(got[i].query_start, want[i].query_start) << "hit " << i;
    EXPECT_EQ(got[i].subject_start, want[i].subject_start) << "hit " << i;
  }
}

TEST(KernelEquivalence, BlastSearchMatchesStringKeyedReference) {
  ppc::Rng rng(0xB1A57);
  for (int trial = 0; trial < 4; ++trial) {
    blast::DbGenConfig db_config;
    db_config.num_sequences = 30;
    const auto db = blast::SequenceDb::generate(db_config, rng);
    const blast::BlastIndex fast(db);
    const NaiveBlast naive(db, fast.config());

    for (const double mutation : {0.0, 0.05, 0.15}) {
      const std::size_t target = static_cast<std::size_t>(rng.uniform_int(0, 29));
      const blast::FastaRecord query{"q", blast::plant_query(db, target, 120, mutation, rng)};
      expect_same_hits(fast.search(query), naive.search(query));
    }
    const blast::FastaRecord random_query{"rnd", blast::random_protein(90, rng)};
    expect_same_hits(fast.search(random_query), naive.search(random_query));
  }
}

TEST(KernelEquivalence, BlastHostileQueriesMatchStringKeyedReference) {
  // Lowercase, ambiguity codes, high bytes, queries shorter than k and
  // single-residue repeats, against a DB with repeat and odd records.
  for (const std::size_t k : {2u, 3u, 5u}) {
    ppc::Rng rng(k);
    const auto db = kernel_reference::hostile_blast_db(rng);
    blast::AlignerConfig config;
    config.k = k;
    const blast::BlastIndex fast(db, config);
    const NaiveBlast naive(db, config);
    for (const auto& query : kernel_reference::hostile_queries(db, rng)) {
      SCOPED_TRACE("k=" + std::to_string(k) + " query " + query.id);
      expect_same_hits(fast.search(query), naive.search(query));
    }
  }
}

TEST(KernelEquivalence, BlastIndexCountsMatchReferenceSemantics) {
  // Distinct packed codes == distinct k-mer substrings over standard
  // residues: the integer recoding loses nothing.
  ppc::Rng rng(99);
  blast::DbGenConfig db_config;
  db_config.num_sequences = 10;
  const auto db = blast::SequenceDb::generate(db_config, rng);
  const blast::BlastIndex fast(db);

  std::map<std::string, int> reference;
  const std::size_t k = fast.config().k;
  for (std::size_t s = 0; s < db.size(); ++s) {
    const std::string& seq = db.record(s).seq;
    if (seq.size() < k) continue;
    for (std::size_t p = 0; p + k <= seq.size(); ++p) {
      bool standard = true;
      for (std::size_t i = 0; i < k; ++i) standard = standard && blast::amino_index(seq[p + i]) >= 0;
      if (standard) ++reference[seq.substr(p, k)];
    }
  }
  EXPECT_EQ(fast.indexed_kmers(), reference.size());
}

// ---------------------------------------------------------------------------
// Cap3: string-keyed index and std::map votes vs packed k-mers and hashed
// vote sets. GTM: the K x N E-step vs the fused point-major one.
// ---------------------------------------------------------------------------

/// Read sets for the Cap3 cases: shotgun reads from both strands, the
/// hostile set, and the degenerate shapes.
std::vector<std::vector<FastaRecord>> cap3_inputs(std::uint64_t seed) {
  ppc::Rng rng(seed);
  std::vector<std::vector<FastaRecord>> sets;
  cap3::ReadSimConfig sim;
  sim.genome_length = 3000;
  sim.num_reads = 60;
  sim.read_length_mean = 300;
  sim.error_rate = 0.004;
  sim.reverse_strand_prob = 0.5;
  sets.push_back(cap3::simulate_shotgun(sim, rng).reads);
  sets.push_back(kernel_reference::hostile_reads(rng));
  sets.push_back({});                                                  // empty input
  const std::string read = cap3::random_genome(120, rng);
  sets.push_back(std::vector<FastaRecord>(6, FastaRecord{"same", read}));  // identical reads
  sets.push_back({{"s1", read.substr(0, 7)}, {"s2", read.substr(0, 7)}, {"s3", ""}});  // < k
  return sets;
}

void expect_same_assembly(const cap3::AssemblyResult& got, const cap3::AssemblyResult& want) {
  EXPECT_EQ(cap3::assembly_report(got), cap3::assembly_report(want));
  ASSERT_EQ(got.contigs.size(), want.contigs.size());
  for (std::size_t i = 0; i < got.contigs.size(); ++i) {
    EXPECT_EQ(got.contigs[i].read_ids, want.contigs[i].read_ids) << "contig " << i;
  }
  ASSERT_EQ(got.singletons.size(), want.singletons.size());
  for (std::size_t i = 0; i < got.singletons.size(); ++i) {
    EXPECT_EQ(got.singletons[i].id, want.singletons[i].id) << "singleton " << i;
  }
  EXPECT_EQ(got.stats.overlaps_considered, want.stats.overlaps_considered);
  EXPECT_EQ(got.stats.overlaps_accepted, want.stats.overlaps_accepted);
  EXPECT_EQ(got.stats.contained_reads, want.stats.contained_reads);
  EXPECT_EQ(got.stats.complemented_reads, want.stats.complemented_reads);
}

TEST(KernelEquivalence, Cap3OrientationsMatchStringKeyedReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& reads : cap3_inputs(seed)) {
      std::vector<std::string> seqs;
      for (const FastaRecord& r : reads) seqs.push_back(cap3::trim_poor_regions(r.seq));
      for (const std::size_t k : {8u, 16u, 31u, 32u, 33u}) {
        cap3::AssemblerConfig config;
        config.kmer = k;
        EXPECT_EQ(cap3::resolve_orientations(seqs, config),
                  kernel_reference::resolve_orientations(seqs, config))
            << "seed=" << seed << " k=" << k << " reads=" << reads.size();
      }
    }
  }
}

TEST(KernelEquivalence, Cap3AssemblyMatchesStringKeyedReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& reads : cap3_inputs(seed)) {
      for (const std::size_t k : {8u, 16u, 31u, 32u, 33u}) {
        for (const bool rc : {true, false}) {
          cap3::AssemblerConfig config;
          config.kmer = k;
          config.handle_reverse_complements = rc;
          SCOPED_TRACE(testing::Message() << "seed=" << seed << " k=" << k << " rc=" << rc
                                          << " reads=" << reads.size());
          expect_same_assembly(cap3::assemble(reads, config),
                               kernel_reference::assemble(reads, config));
        }
      }
    }
  }
}

TEST(KernelEquivalence, Cap3BenchmarkFilesMatchStringKeyedReference) {
  ppc::Rng rng(42);
  cap3::AssemblerConfig config;
  config.min_overlap = 30;
  for (const std::size_t reads : {32u, 93u}) {
    const auto records = parse_fasta(cap3::make_cap3_input(reads, rng));
    expect_same_assembly(cap3::assemble(records, config),
                         kernel_reference::assemble(records, config));
  }
}

void expect_bitwise_equal(const gtm::Matrix& got, const gtm::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.data().size(); ++i) {
    ASSERT_EQ(std::memcmp(&got.data()[i], &want.data()[i], sizeof(double)), 0)
        << "flat index " << i << ": " << got.data()[i] << " vs " << want.data()[i];
  }
}

TEST(KernelEquivalence, GtmInterpolateMatchesKxNReference) {
  ppc::Rng rng(0x67A);
  for (std::size_t d = 1; d <= 20; ++d) {
    const gtm::GtmModel model = kernel_reference::train_small_model(d, rng);
    for (const std::size_t n : {1u, 257u}) {
      const gtm::Matrix points = kernel_reference::clustered_points(n, d, 0.0, rng);
      expect_bitwise_equal(model.interpolate(points), kernel_reference::interpolate(model, points));
    }
  }
}

TEST(KernelEquivalence, GtmInterpolateMatchesKxNReferenceOnOutliers) {
  // 1% of the points scaled by 1e6: every responsibility but one underflows.
  ppc::Rng rng(0x0DD);
  for (const std::size_t d : {1u, 3u, 16u}) {
    const gtm::GtmModel model = kernel_reference::train_small_model(d, rng);
    const gtm::Matrix points = kernel_reference::clustered_points(1000, d, 0.01, rng);
    expect_bitwise_equal(model.interpolate(points), kernel_reference::interpolate(model, points));
  }
}

TEST(KernelEquivalence, GtmInterpolateMatchesKxNReferenceOnBenchmarkModel) {
  ppc::Rng rng(5);
  const gtm::GtmModel model = kernel_reference::train_mixed_job_model(16, rng);
  const gtm::Matrix points = kernel_reference::clustered_points(700, 16, 0.0, rng);
  expect_bitwise_equal(model.interpolate(points), kernel_reference::interpolate(model, points));
}

}  // namespace
}  // namespace ppc::apps
