// Protein alphabet and BLOSUM62 substitution scoring — the scoring core of
// the BLAST kernel (NCBI BLAST+ defaults to BLOSUM62 for blastp).
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace ppc::apps::blast {

/// The 20 standard amino acids in BLOSUM row order.
inline constexpr char kAminoAcids[] = "ARNDCQEGHILKMFPSTWYV";
inline constexpr int kAlphabetSize = 20;

/// Index of an amino acid in kAminoAcids, or -1 for anything else
/// (ambiguity codes score as mismatches).
int amino_index(char aa);

/// Residue code of every byte outside the alphabet. A standard residue's
/// code is its amino_index.
inline constexpr int kUnknownResidue = kAlphabetSize;
inline constexpr int kResidueCodes = kAlphabetSize + 1;

/// The code of one byte: amino_index(aa), or kUnknownResidue.
std::uint8_t residue_code(char aa);

/// BLOSUM62 indexed by residue code; kUnknownResidue scores -4 against every
/// code, itself included. The aligner's extension loop reads it directly.
using ScoreTable = std::array<std::array<std::int8_t, kResidueCodes>, kResidueCodes>;
extern const ScoreTable kBlosum62Codes;

/// BLOSUM62 substitution score for a pair of residues; unknown residues
/// score -4 (the BLAST treatment of X against anything).
int blosum62(char a, char b);

/// True when every character of `seq` is a standard amino acid.
bool is_valid_protein(const std::string& seq);

}  // namespace ppc::apps::blast
