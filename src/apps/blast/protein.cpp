#include "apps/blast/protein.h"

#include <cstddef>

namespace ppc::apps::blast {

namespace {
// Standard BLOSUM62, row order A R N D C Q E G H I L K M F P S T W Y V.
constexpr int kBlosum62[20][20] = {
    // A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    {4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0},     // A
    {-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3},     // R
    {-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3},         // N
    {-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3},    // D
    {0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1}, // C
    {-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2},        // Q
    {-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2},       // E
    {0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3},   // G
    {-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3},     // H
    {-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3},    // I
    {-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1},    // L
    {-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2},     // K
    {-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1},     // M
    {-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1},     // F
    {-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2},// P
    {1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2},        // S
    {0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0},    // T
    {-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3}, // W
    {-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1},   // Y
    {0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4},     // V
};

constexpr std::array<int, 128> make_index_table() {
  std::array<int, 128> table{};
  for (auto& v : table) v = -1;
  for (int i = 0; i < kAlphabetSize; ++i) {
    table[static_cast<std::size_t>(kAminoAcids[i])] = i;
  }
  return table;
}

constexpr auto kIndexTable = make_index_table();

constexpr ScoreTable make_score_table() {
  ScoreTable table{};
  for (auto& row : table) row.fill(-4);
  for (int i = 0; i < kAlphabetSize; ++i) {
    for (int j = 0; j < kAlphabetSize; ++j) {
      table[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          static_cast<std::int8_t>(kBlosum62[i][j]);
    }
  }
  return table;
}
}  // namespace

const ScoreTable kBlosum62Codes = make_score_table();

int amino_index(char aa) {
  const auto u = static_cast<unsigned char>(aa);
  return u < 128 ? kIndexTable[u] : -1;
}

std::uint8_t residue_code(char aa) {
  const int idx = amino_index(aa);
  return static_cast<std::uint8_t>(idx < 0 ? kUnknownResidue : idx);
}

int blosum62(char a, char b) { return kBlosum62Codes[residue_code(a)][residue_code(b)]; }

bool is_valid_protein(const std::string& seq) {
  for (char c : seq) {
    if (amino_index(c) < 0) return false;
  }
  return !seq.empty();
}

}  // namespace ppc::apps::blast
