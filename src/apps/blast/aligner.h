// Miniature BLAST: k-mer seeded, X-drop extended, BLOSUM62-scored ungapped
// protein search — the "sequential executable" of the paper's BLAST
// experiments, with the same file contract (a FASTA query file in, a
// tabular hit report out).
//
// Algorithm (the classic BLAST outline):
//  * index every k-mer (k = 3) of the database;
//  * for each query k-mer whose self-score passes the seed threshold, look
//    up database positions sharing it;
//  * extend each seed left and right without gaps, abandoning a direction
//    once the running score falls `x_drop` below the best (X-drop);
//  * keep the best alignment per database sequence; report hits whose score
//    meets the cutoff, ranked by score.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/blast/db.h"

namespace ppc::apps::blast {

struct AlignerConfig {
  std::size_t k = 3;
  /// Minimum BLOSUM62 self-score of a k-mer to act as a seed (T parameter).
  int seed_threshold = 11;
  /// Extension abandons a direction when score drops this far below best.
  int x_drop = 12;
  /// Hits below this alignment score are not reported (S parameter).
  int score_cutoff = 35;
  /// At most this many hits reported per query.
  std::size_t max_hits = 10;
};

struct Hit {
  std::string query_id;
  std::string subject_id;
  int score = 0;
  std::size_t align_length = 0;
  double identity = 0.0;       // fraction of identical residues
  std::size_t query_start = 0;
  std::size_t subject_start = 0;
};

class BlastIndex {
 public:
  /// Builds the k-mer index over the database (the expensive, shared step —
  /// the analog of formatdb/makeblastdb). Each database sequence is encoded
  /// once as residue codes, and the postings of every k-mer sit in one flat
  /// array, indexed by a dense offsets table over the base-20 k-mer code
  /// (20^k + 1 entries: 640 KB at k = 4, hence k <= 5). K-mers containing a
  /// non-standard residue are unindexable and skipped — seeding requires
  /// exact residues; extension still scores ambiguity codes as mismatches.
  BlastIndex(const SequenceDb& db, AlignerConfig config = {});

  const SequenceDb& db() const { return db_; }
  const AlignerConfig& config() const { return config_; }

  /// Searches one query; hits sorted by descending score.
  std::vector<Hit> search(const FastaRecord& query) const;

  /// Searches every query in a FASTA file and renders the tabular report —
  /// the worker-facing entry point (file in, file out).
  std::string search_file(const std::string& query_fasta) const;

  /// Distinct k-mers with at least one posting.
  std::size_t indexed_kmers() const;

 private:
  struct Posting {
    std::uint32_t seq = 0;
    std::uint32_t pos = 0;
  };

  SequenceDb db_;
  AlignerConfig config_;
  /// Every database sequence as residue codes, back to back: sequence s is
  /// residues_[seq_start_[s] .. seq_start_[s + 1]).
  std::vector<std::uint8_t> residues_;
  std::vector<std::uint32_t> seq_start_;
  /// The postings of k-mer code c, in database order (sequence, then
  /// position), are postings_[offsets_[c] .. offsets_[c + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<Posting> postings_;
};

/// Renders hits in BLAST -outfmt 6 style (tab separated).
std::string render_hits(const std::vector<Hit>& hits);

}  // namespace ppc::apps::blast
