#include "apps/blast/aligner.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <unordered_map>

#include "apps/blast/protein.h"
#include "common/error.h"
#include "common/string_util.h"

namespace ppc::apps::blast {

namespace {

using KmerCode = std::uint32_t;

/// 20^k: the number of k-mer codes.
KmerCode kmer_space(std::size_t k) {
  KmerCode n = 1;
  for (std::size_t i = 0; i < k; ++i) n *= kAlphabetSize;
  return n;
}

std::vector<std::uint8_t> encode(const std::string& seq) {
  std::vector<std::uint8_t> codes(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) codes[i] = residue_code(seq[i]);
  return codes;
}

/// Walks `n` residue codes emitting the base-20 code of every k-mer whose
/// residues are all standard, as fn(position, code). Rolling: the residue
/// leaving the window is subtracted before the shift.
template <typename Fn>
void for_each_kmer(const std::uint8_t* seq, std::size_t n, std::size_t k, Fn&& fn) {
  const KmerCode top = kmer_space(k - 1);  // weight of the leaving residue
  KmerCode code = 0;
  std::size_t run = 0;  // consecutive standard residues ending here, at most k
  for (std::size_t p = 0; p < n; ++p) {
    const KmerCode c = seq[p];
    if (c == kUnknownResidue) {
      run = 0;
      code = 0;
      continue;
    }
    if (run == k) {
      code -= seq[p - k] * top;
    } else {
      ++run;
    }
    code = code * kAlphabetSize + c;
    if (run == k) fn(p + 1 - k, code);
  }
}

/// BLOSUM62 self-scores of every query position (b(c,c); -4 for ambiguity
/// codes), prefix-summed so a k-mer's self-score is one subtraction —
/// computed once per query instead of once per position per posting walk.
std::vector<int> self_score_prefix(const std::vector<std::uint8_t>& seq) {
  std::vector<int> prefix(seq.size() + 1, 0);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    prefix[i + 1] = prefix[i] + kBlosum62Codes[seq[i]][seq[i]];
  }
  return prefix;
}

}  // namespace

BlastIndex::BlastIndex(const SequenceDb& db, AlignerConfig config)
    : db_(db), config_(config) {
  PPC_REQUIRE(config_.k >= 2 && config_.k <= 5, "k must be in [2, 5]");
  PPC_REQUIRE(db_.size() >= 1, "database is empty");
  PPC_REQUIRE(db_.total_residues() <= UINT32_MAX, "database exceeds 2^32 residues");
  residues_.reserve(db_.total_residues());
  seq_start_.reserve(db_.size() + 1);
  seq_start_.push_back(0);
  for (const FastaRecord& record : db_.records()) {
    for (const char c : record.seq) residues_.push_back(residue_code(c));
    seq_start_.push_back(static_cast<std::uint32_t>(residues_.size()));
  }

  // Two passes over the same k-mers: count per code, then place, so each
  // code's postings keep database order.
  const std::size_t k = config_.k;
  const KmerCode space = kmer_space(k);
  const auto each_posting = [&](auto&& fn) {
    for (std::uint32_t s = 0; s < db_.size(); ++s) {
      const std::uint32_t begin = seq_start_[s];
      for_each_kmer(residues_.data() + begin, seq_start_[s + 1] - begin, k,
                    [&](std::size_t p, KmerCode code) { fn(s, p, code); });
    }
  };
  offsets_.assign(space + 1, 0);
  each_posting([&](std::uint32_t, std::size_t, KmerCode code) { ++offsets_[code + 1]; });
  for (KmerCode c = 0; c < space; ++c) offsets_[c + 1] += offsets_[c];
  postings_.resize(offsets_.back());
  std::vector<std::uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  each_posting([&](std::uint32_t s, std::size_t p, KmerCode code) {
    postings_[next[code]++] = {s, static_cast<std::uint32_t>(p)};
  });
}

std::size_t BlastIndex::indexed_kmers() const {
  std::size_t n = 0;
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) n += offsets_[c + 1] > offsets_[c];
  return n;
}

std::vector<Hit> BlastIndex::search(const FastaRecord& query) const {
  struct Best {
    int score = 0;
    std::size_t len = 0;
    std::size_t identical = 0;
    std::size_t qstart = 0;
    std::size_t sstart = 0;
  };
  std::unordered_map<std::uint32_t, Best> best_per_subject;
  best_per_subject.reserve(64);

  const std::string& q = query.seq;
  const std::size_t k = config_.k;
  if (q.size() < k) return {};

  const std::vector<std::uint8_t> qcodes = encode(q);
  const std::vector<int> self_prefix = self_score_prefix(qcodes);
  const std::uint8_t* qc = qcodes.data();
  const int seed_threshold = config_.seed_threshold;
  const int x_drop = config_.x_drop;
  const int score_cutoff = config_.score_cutoff;

  for_each_kmer(qc, qcodes.size(), k, [&](std::size_t qp, KmerCode code) {
    // Seed score: the k-mer matches exactly, so it is the self-score.
    const int seed_score = self_prefix[qp + k] - self_prefix[qp];
    if (seed_score < seed_threshold) return;

    for (std::uint32_t at = offsets_[code]; at < offsets_[code + 1]; ++at) {
      const Posting posting = postings_[at];
      const std::uint8_t* sc = residues_.data() + seq_start_[posting.seq];
      const std::size_t slen = seq_start_[posting.seq + 1] - seq_start_[posting.seq];
      const std::size_t sp = posting.pos;

      // Extend right with X-drop.
      int best_score = seed_score;
      std::size_t best_right = k;  // residues covered from seed start
      {
        int run = seed_score;
        const std::size_t limit = std::min(qcodes.size() - qp, slen - sp);
        for (std::size_t i = k; i < limit;) {
          run += kBlosum62Codes[qc[qp + i]][sc[sp + i]];
          ++i;
          if (run > best_score) {
            best_score = run;
            best_right = i;
          } else if (run < best_score - x_drop) {
            break;
          }
        }
      }

      // Extend left with X-drop.
      std::size_t best_left = 0;
      {
        int run = best_score;
        int local_best = best_score;
        const std::size_t limit = std::min(qp, sp);
        for (std::size_t i = 0; i < limit;) {
          ++i;
          run += kBlosum62Codes[qc[qp - i]][sc[sp - i]];
          if (run > local_best) {
            local_best = run;
            best_left = i;
          } else if (run < local_best - x_drop) {
            break;
          }
        }
        best_score = local_best;
      }

      if (best_score < score_cutoff) continue;
      const std::size_t align_len = best_left + best_right;
      const std::size_t qstart = qp - best_left;
      const std::size_t sstart = sp - best_left;

      Best& cur = best_per_subject[posting.seq];
      if (best_score > cur.score) {
        // Identity compares raw bytes, so an `X` against an `X` counts.
        const std::string& s = db_.record(posting.seq).seq;
        std::size_t identical = 0;
        for (std::size_t i = 0; i < align_len; ++i) {
          if (q[qstart + i] == s[sstart + i]) ++identical;
        }
        cur = {best_score, align_len, identical, qstart, sstart};
      }
    }
  });

  std::vector<Hit> hits;
  hits.reserve(best_per_subject.size());
  for (const auto& [subject, b] : best_per_subject) {
    Hit h;
    h.query_id = query.id;
    h.subject_id = db_.record(subject).id;
    h.score = b.score;
    h.align_length = b.len;
    h.identity = b.len == 0 ? 0.0 : static_cast<double>(b.identical) / static_cast<double>(b.len);
    h.query_start = b.qstart;
    h.subject_start = b.sstart;
    hits.push_back(std::move(h));
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.subject_id < b.subject_id;
  });
  if (hits.size() > config_.max_hits) hits.resize(config_.max_hits);
  return hits;
}

std::string BlastIndex::search_file(const std::string& query_fasta) const {
  const auto queries = apps::parse_fasta(query_fasta);
  std::ostringstream os;
  for (const auto& query : queries) {
    os << render_hits(search(query));
  }
  return os.str();
}

std::string render_hits(const std::vector<Hit>& hits) {
  std::ostringstream os;
  for (const Hit& h : hits) {
    os << h.query_id << '\t' << h.subject_id << '\t' << ppc::format_fixed(h.identity * 100.0, 1)
       << '\t' << h.align_length << '\t' << h.score << '\t' << h.query_start << '\t'
       << h.subject_start << '\n';
  }
  return os.str();
}

}  // namespace ppc::apps::blast
