// Miniature CAP3-style sequence assembler.
//
// Follows the stages §4 lists for CAP3 (Huang & Madan):
//  1. "removes the poor regions of the DNA fragments"      -> quality trim
//  2. "calculates the overlaps between the fragments"      -> k-mer seeded
//     overlap detection with banded mismatch counting
//  3. "identifies and removes the false overlaps"          -> mismatch-rate
//     filter on the full overlap region
//  4. "joins the fragments to form contigs"                -> greedy
//     best-overlap chaining (union-find prevents cycles)
//  5. "through multiple sequence alignment generates
//     consensus sequences"                                 -> per-column
//     majority vote over the layout
//
// It is a real assembler: given simulated shotgun reads at reasonable
// coverage it reconstructs the source genome (tests assert this). It is the
// "sequential executable" every framework in this repository executes, one
// input FASTA file -> one output report file. K-mers of A/C/G/T bytes are
// indexed by 2-bit packed codes (rolled with their reverse complements) and
// shared-k-mer votes land in flat hash tables, whose distinct keys are then
// visited in sorted order; any k-mer with another byte, or longer than 32,
// is keyed by its bytes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "apps/cap3/fasta.h"

namespace ppc::apps::cap3 {

struct AssemblerConfig {
  std::size_t kmer = 16;
  std::size_t min_overlap = 40;
  /// Maximum mismatch fraction tolerated inside an accepted overlap.
  double max_mismatch_frac = 0.04;
  /// K-mer buckets larger than this are skipped as repeats.
  std::size_t max_kmer_bucket = 32;
  /// Reads shorter than this after trimming become singletons untouched.
  std::size_t min_read_length = 40;
  /// Resolve read orientations before overlap detection (shotgun reads come
  /// from both strands; CAP3 complements reads as needed). Disable only for
  /// known single-strand inputs.
  bool handle_reverse_complements = true;
};

struct Contig {
  std::string consensus;
  std::vector<std::string> read_ids;  // reads laid out in this contig
};

struct AssemblyStats {
  std::size_t input_reads = 0;
  std::size_t trimmed_bases = 0;
  std::size_t overlaps_considered = 0;
  std::size_t overlaps_accepted = 0;
  std::size_t contained_reads = 0;
  /// Reads complemented during orientation resolution.
  std::size_t complemented_reads = 0;
};

struct AssemblyResult {
  std::vector<Contig> contigs;     // multi-read contigs, longest first
  std::vector<FastaRecord> singletons;
  AssemblyStats stats;
};

/// Runs the full pipeline on a read set.
AssemblyResult assemble(const std::vector<FastaRecord>& reads,
                        const AssemblerConfig& config = {});

/// Convenience for the frameworks: FASTA text in, report text out — the
/// file-in/file-out contract of the paper's task ("a single task comprises
/// of a single input file and a single output file").
std::string assemble_fasta_file(const std::string& fasta_text,
                                const AssemblerConfig& config = {});

/// N50 of the contig length distribution (0 when no contigs).
std::size_t n50(const std::vector<Contig>& contigs);

/// Human-readable report: summary line, contig table, consensus FASTA.
std::string assembly_report(const AssemblyResult& result);

/// Removes lowercase (poor-quality) prefix/suffix from a sequence; returns
/// the trimmed sequence (uppercased interior preserved as-is).
std::string trim_poor_regions(const std::string& seq, std::size_t* trimmed_bases = nullptr);

/// Assigns a consistent strand to every read by propagating orientation
/// votes (shared canonical k-mers) through the overlap graph. Returns one
/// flag per read: true = the read must be complemented. Reads in different
/// connected components are oriented independently.
std::vector<bool> resolve_orientations(const std::vector<std::string>& seqs,
                                       const AssemblerConfig& config = {});

}  // namespace ppc::apps::cap3
