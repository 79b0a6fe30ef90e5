// Reference Cap3 and GTM kernels and seeded inputs for them, shared by the
// output-pin test, the equivalence tests and bench_json's kernel rows.
//
// The references ARE the spec: the string-keyed Cap3 (every k-mer a
// `std::string` key, every shared-k-mer vote a `std::map` lookup) and the
// GTM interpolation that builds the K x N distance and responsibility
// matrices and walks them column-wise. The library's packed-k-mer assembler
// and fused point-major E-step must reproduce them bit for bit.
//
// The mixed-job inputs mirror the repo benchmark's Cap3/BLAST/GTM job: Cap3
// files from make_cap3_input, GTM models trained on 16-D clustered samples
// (16x16 latent grid). The hostile inputs are what a FASTA or CSV file may
// carry that the generators never write: interior lowercase, `N` and other
// non-ACGT bytes, reads shorter than k, empty and duplicated reads, and
// points far outside the training data.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "apps/blast/db.h"
#include "apps/cap3/assembler.h"
#include "apps/cap3/fasta.h"
#include "apps/gtm/gtm.h"
#include "common/rng.h"

namespace ppc::apps::kernel_reference {

/// cap3::resolve_orientations with a string-keyed canonical k-mer index and
/// a `std::map` of pair votes.
std::vector<bool> resolve_orientations(const std::vector<std::string>& seqs,
                                       const cap3::AssemblerConfig& config = {});

/// cap3::assemble with the string-keyed index and `std::map` vote set, using
/// the resolve_orientations above.
cap3::AssemblyResult assemble(const std::vector<FastaRecord>& reads,
                              const cap3::AssemblerConfig& config = {});

/// GtmModel::interpolate through the K x N E-step.
gtm::Matrix interpolate(const gtm::GtmModel& model, const gtm::Matrix& points);

/// A shotgun read set of ~50 short reads with hostile bytes mixed in:
/// interior lowercase runs, `N`/`X`/`-`/`*` bytes, reads truncated below
/// any k (some empty), and exact duplicates.
std::vector<FastaRecord> hostile_reads(ppc::Rng& rng);

/// A BLAST database of 60 generated sequences plus hostile records: long
/// single-residue repeats (`W` x 300, `L` x 200) whose k-mers have huge
/// posting lists at every k, a record carrying lowercase, `B`/`Z`/`X`/`U`/`*`
/// and bytes >= 0x80, a 1-residue record and an empty one.
blast::SequenceDb hostile_blast_db(ppc::Rng& rng);

/// ~40 BLAST queries over `db` with hostile bytes mixed in: interior
/// lowercase runs, `B`/`Z`/`X`/`U`/`*` and bytes >= 0x80, queries truncated
/// below any k (some empty), and single-residue repeats that seed against
/// the repeat records' posting lists.
std::vector<FastaRecord> hostile_queries(const blast::SequenceDb& db, ppc::Rng& rng);

/// A GTM model with a `grid` x `grid` latent grid over [-1, 1]^2, centers
/// drawn uniformly from [-1, 1]^dims and the given beta, built through
/// GtmModel::deserialize. Unlike a trained model its bytes do not depend on
/// how the build contracts the EM's matrix products, so interpolation
/// digests over it hold on every build.
gtm::GtmModel random_model(std::size_t grid, std::size_t dims, double beta, ppc::Rng& rng);

/// The repo benchmark's GTM model shape: 16x16 latent grid, 4x4 RBF grid,
/// 8 EM iterations, trained on 300 clustered points of `dims` dimensions.
gtm::GtmModel train_mixed_job_model(std::size_t dims, ppc::Rng& rng);

/// A small model (6x6 latent grid, 3x3 RBF grid, 5 EM iterations) trained on
/// 60 clustered points of `dims` dimensions.
gtm::GtmModel train_small_model(std::size_t dims, ppc::Rng& rng);

/// `n` clustered points of `dims` dimensions; when `outlier_frac` > 0 that
/// share of the rows is scaled by 1e6.
gtm::Matrix clustered_points(std::size_t n, std::size_t dims, double outlier_frac,
                             ppc::Rng& rng);

}  // namespace ppc::apps::kernel_reference
