#include "kernel_reference.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "apps/cap3/read_simulator.h"
#include "apps/gtm/data_gen.h"
#include "common/error.h"

namespace ppc::apps::kernel_reference {

using gtm::Matrix;

// ---------------------------------------------------------------------------
// Cap3: string-keyed k-mer index, std::map votes.
// ---------------------------------------------------------------------------

std::vector<bool> resolve_orientations(const std::vector<std::string>& seqs,
                                       const cap3::AssemblerConfig& config) {
  const std::size_t k = config.kmer;
  const std::size_t n = seqs.size();

  // Canonical k-mer index: each (read, position) votes with a strand flag —
  // false when the forward k-mer is the canonical form, true when its
  // reverse complement is.
  struct Occurrence {
    std::uint32_t read;
    bool flipped;
  };
  std::unordered_map<std::string, std::vector<Occurrence>> index;
  for (std::size_t r = 0; r < n; ++r) {
    if (seqs[r].size() < k) continue;
    for (std::size_t p = 0; p + k <= seqs[r].size(); ++p) {
      std::string fwd = seqs[r].substr(p, k);
      std::string rc = reverse_complement(fwd);
      const bool flipped = rc < fwd;
      index[flipped ? std::move(rc) : std::move(fwd)].push_back(
          {static_cast<std::uint32_t>(r), flipped});
    }
  }

  // Pairwise votes: same-strand vs opposite-strand shared k-mers.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::pair<int, int>> votes;
  for (const auto& [_, bucket] : index) {
    if (bucket.size() < 2 || bucket.size() > config.max_kmer_bucket) continue;
    for (std::size_t x = 0; x < bucket.size(); ++x) {
      for (std::size_t y = x + 1; y < bucket.size(); ++y) {
        auto a = bucket[x], b = bucket[y];
        if (a.read == b.read) continue;
        if (a.read > b.read) std::swap(a, b);
        auto& [same, opposite] = votes[{a.read, b.read}];
        (a.flipped == b.flipped ? same : opposite) += 1;
      }
    }
  }

  // Strong edges only (a couple of chance k-mer hits must not flip a read),
  // then BFS-propagate orientations per connected component.
  struct Edge {
    std::uint32_t to;
    bool opposite;
  };
  std::vector<std::vector<Edge>> adj(n);
  for (const auto& [pair, counts] : votes) {
    const auto [same, opposite] = counts;
    if (same + opposite < 3 || same == opposite) continue;
    const bool is_opposite = opposite > same;
    adj[pair.first].push_back({pair.second, is_opposite});
    adj[pair.second].push_back({pair.first, is_opposite});
  }

  std::vector<bool> flip(n, false);
  std::vector<bool> visited(n, false);
  std::vector<std::uint32_t> queue;
  for (std::size_t start = 0; start < n; ++start) {
    if (visited[start]) continue;
    visited[start] = true;
    queue.assign(1, static_cast<std::uint32_t>(start));
    while (!queue.empty()) {
      const std::uint32_t cur = queue.back();
      queue.pop_back();
      for (const Edge& e : adj[cur]) {
        if (visited[e.to]) continue;  // first assignment wins; conflicts ignored
        visited[e.to] = true;
        flip[e.to] = flip[cur] ^ e.opposite;
        queue.push_back(e.to);
      }
    }
  }
  return flip;
}

namespace {

struct Overlap {
  std::size_t a = 0;       // earlier read (b begins inside a)
  std::size_t b = 0;
  std::size_t offset = 0;  // b's start position in a's coordinates
  std::size_t length = 0;  // overlapping bases
  bool containment = false;  // b lies entirely within a
};

/// Counts mismatches of b against a at the given offset over the overlap
/// region; returns false early once the budget is exceeded.
bool overlap_matches(const std::string& a, const std::string& b, std::size_t offset,
                     std::size_t overlap_len, double max_mismatch_frac) {
  const auto budget = static_cast<std::size_t>(max_mismatch_frac * static_cast<double>(overlap_len));
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < overlap_len; ++i) {
    if (a[offset + i] != b[i]) {
      if (++mismatches > budget) return false;
    }
  }
  return true;
}

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) { std::iota(parent.begin(), parent.end(), 0); }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[b] = a;
    return true;
  }
};

}  // namespace

cap3::AssemblyResult assemble(const std::vector<FastaRecord>& reads,
                              const cap3::AssemblerConfig& config) {
  PPC_REQUIRE(config.kmer >= 8, "kmer must be >= 8");
  PPC_REQUIRE(config.min_overlap >= config.kmer, "min_overlap must be >= kmer");

  cap3::AssemblyResult result;
  result.stats.input_reads = reads.size();
  if (reads.empty()) return result;

  // Stage 1: quality trimming.
  std::vector<std::string> seq(reads.size());
  std::vector<bool> usable(reads.size(), true);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    seq[i] = cap3::trim_poor_regions(reads[i].seq, &result.stats.trimmed_bases);
    if (seq[i].size() < config.min_read_length) usable[i] = false;
  }

  // Stage 1b: orientation resolution — complement reads sequenced from the
  // opposite strand so every overlap below is forward-vs-forward.
  if (config.handle_reverse_complements) {
    const std::vector<bool> flip = kernel_reference::resolve_orientations(seq, config);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (flip[i]) {
        seq[i] = reverse_complement(seq[i]);
        ++result.stats.complemented_reads;
      }
    }
  }

  // Stage 2: k-mer index over usable reads.
  std::unordered_map<std::string, std::vector<std::pair<std::size_t, std::size_t>>> index;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (!usable[i] || seq[i].size() < config.kmer) continue;
    for (std::size_t p = 0; p + config.kmer <= seq[i].size(); ++p) {
      index[seq[i].substr(p, config.kmer)].emplace_back(i, p);
    }
  }

  // Candidate (a, b, offset) triples voted by shared k-mers. Keyed on the
  // ordered pair with the signed offset of b relative to a.
  std::map<std::tuple<std::size_t, std::size_t, long>, std::size_t> votes;
  for (const auto& [_, bucket] : index) {
    if (bucket.size() < 2 || bucket.size() > config.max_kmer_bucket) continue;
    for (std::size_t x = 0; x < bucket.size(); ++x) {
      for (std::size_t y = x + 1; y < bucket.size(); ++y) {
        auto [ra, pa] = bucket[x];
        auto [rb, pb] = bucket[y];
        if (ra == rb) continue;
        if (ra > rb) {
          std::swap(ra, rb);
          std::swap(pa, pb);
        }
        const long offset = static_cast<long>(pa) - static_cast<long>(pb);
        ++votes[{ra, rb, offset}];
      }
    }
  }

  // Stages 2-3: verify candidates over the full overlap region.
  std::vector<Overlap> overlaps;
  for (const auto& [key, _] : votes) {
    auto [ra, rb, signed_offset] = key;
    ++result.stats.overlaps_considered;
    // Normalize so `b` starts inside `a` at a non-negative offset.
    std::size_t a = ra, b = rb, offset = 0;
    if (signed_offset >= 0) {
      offset = static_cast<std::size_t>(signed_offset);
    } else {
      a = rb;
      b = ra;
      offset = static_cast<std::size_t>(-signed_offset);
    }
    if (offset >= seq[a].size()) continue;
    const std::size_t overlap_len = std::min(seq[a].size() - offset, seq[b].size());
    if (overlap_len < config.min_overlap) continue;
    if (!overlap_matches(seq[a], seq[b], offset, overlap_len, config.max_mismatch_frac)) continue;
    ++result.stats.overlaps_accepted;
    Overlap ov;
    ov.a = a;
    ov.b = b;
    ov.offset = offset;
    ov.length = overlap_len;
    ov.containment = offset + seq[b].size() <= seq[a].size();
    overlaps.push_back(ov);
  }

  // Containments: attach the contained read to its container; it does not
  // participate in chaining.
  std::vector<long> contained_in(seq.size(), -1);   // container read index
  std::vector<std::size_t> contained_at(seq.size(), 0);  // offset within container
  for (const Overlap& ov : overlaps) {
    if (!ov.containment) continue;
    if (contained_in[ov.b] == -1 && contained_in[ov.a] == -1 && ov.a != ov.b) {
      contained_in[ov.b] = static_cast<long>(ov.a);
      contained_at[ov.b] = ov.offset;
      ++result.stats.contained_reads;
    }
  }

  // Stage 4: greedy best-overlap chaining of non-contained reads.
  std::sort(overlaps.begin(), overlaps.end(),
            [](const Overlap& x, const Overlap& y) { return x.length > y.length; });
  std::vector<long> next(seq.size(), -1);
  std::vector<std::size_t> next_offset(seq.size(), 0);
  std::vector<bool> has_prev(seq.size(), false);
  UnionFind uf(seq.size());
  for (const Overlap& ov : overlaps) {
    if (ov.containment) continue;
    if (contained_in[ov.a] != -1 || contained_in[ov.b] != -1) continue;
    if (next[ov.a] != -1 || has_prev[ov.b]) continue;
    if (!uf.unite(ov.a, ov.b)) continue;  // would close a cycle
    next[ov.a] = static_cast<long>(ov.b);
    next_offset[ov.a] = ov.offset;
    has_prev[ov.b] = true;
  }

  // Walk chains; compute absolute layouts.
  std::vector<bool> placed(seq.size(), false);
  struct Layout {
    std::vector<std::pair<std::size_t, std::size_t>> reads;  // (read, abs offset)
    std::size_t length = 0;
  };
  std::vector<Layout> layouts;
  for (std::size_t start = 0; start < seq.size(); ++start) {
    if (!usable[start] || has_prev[start] || contained_in[start] != -1 || placed[start]) continue;
    Layout layout;
    std::size_t offset = 0;
    long cur = static_cast<long>(start);
    while (cur != -1) {
      const auto c = static_cast<std::size_t>(cur);
      layout.reads.emplace_back(c, offset);
      layout.length = std::max(layout.length, offset + seq[c].size());
      placed[c] = true;
      if (next[c] == -1) break;
      offset += next_offset[c];
      cur = next[c];
    }
    layouts.push_back(std::move(layout));
  }

  // Attach contained reads to wherever their container landed.
  for (Layout& layout : layouts) {
    const std::size_t chain_size = layout.reads.size();
    for (std::size_t k = 0; k < chain_size; ++k) {
      const auto [container, container_offset] = layout.reads[k];
      for (std::size_t r = 0; r < seq.size(); ++r) {
        if (contained_in[r] == static_cast<long>(container)) {
          layout.reads.emplace_back(r, container_offset + contained_at[r]);
          placed[r] = true;
        }
      }
    }
  }

  // Stage 5: per-column majority consensus.
  std::vector<bool> in_contig(seq.size(), false);
  auto base_index = [](char c) -> int {
    switch (c) {
      case 'A': return 0;
      case 'C': return 1;
      case 'G': return 2;
      case 'T': return 3;
      default: return -1;
    }
  };
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  for (const Layout& layout : layouts) {
    if (layout.reads.size() < 2) continue;  // single-read chains are singletons
    std::vector<std::array<std::uint32_t, 4>> counts(layout.length, {0, 0, 0, 0});
    for (const auto& [r, off] : layout.reads) {
      for (std::size_t i = 0; i < seq[r].size(); ++i) {
        const int bi = base_index(seq[r][i]);
        if (bi >= 0) ++counts[off + i][static_cast<std::size_t>(bi)];
      }
    }
    cap3::Contig contig;
    contig.consensus.reserve(layout.length);
    for (const auto& col : counts) {
      const auto best = static_cast<std::size_t>(
          std::max_element(col.begin(), col.end()) - col.begin());
      if (col[best] == 0) continue;  // gap column (should not happen in chains)
      contig.consensus.push_back(kBases[best]);
    }
    for (const auto& [r, _] : layout.reads) {
      contig.read_ids.push_back(reads[r].id);
      in_contig[r] = true;
    }
    result.contigs.push_back(std::move(contig));
  }
  std::sort(result.contigs.begin(), result.contigs.end(),
            [](const cap3::Contig& x, const cap3::Contig& y) {
              return x.consensus.size() > y.consensus.size();
            });

  // Everything not placed into a multi-read contig is a singleton.
  for (std::size_t r = 0; r < seq.size(); ++r) {
    if (!in_contig[r]) result.singletons.push_back(reads[r]);
  }
  return result;
}

// ---------------------------------------------------------------------------
// GTM: K x N distance and responsibility matrices, walked column-wise.
// ---------------------------------------------------------------------------

namespace {

Matrix pairwise_sqdist(const Matrix& centers, const Matrix& points) {
  const std::size_t k = centers.rows(), n = points.rows(), d = centers.cols();
  Matrix dist(k, n, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        const double diff = centers(i, c) - points(j, c);
        s += diff * diff;
      }
      dist(i, j) = s;
    }
  }
  return dist;
}

/// The K x N responsibilities, normalized column by column.
Matrix responsibilities(const Matrix& centers, const Matrix& points, double beta) {
  const std::size_t k = centers.rows(), n = points.rows();
  const Matrix dist = pairwise_sqdist(centers, points);
  Matrix r(k, n);
  for (std::size_t j = 0; j < n; ++j) {
    double max_log = -1e300;
    for (std::size_t i = 0; i < k; ++i) {
      max_log = std::max(max_log, -0.5 * beta * dist(i, j));
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double w = std::exp(-0.5 * beta * dist(i, j) - max_log);
      r(i, j) = w;
      sum += w;
    }
    for (std::size_t i = 0; i < k; ++i) r(i, j) /= sum;
  }
  return r;
}

}  // namespace

Matrix interpolate(const gtm::GtmModel& model, const Matrix& points) {
  PPC_REQUIRE(points.cols() == model.data_dims(),
              "point dimensionality does not match the trained model");
  const Matrix& latent = model.latent_grid();
  const Matrix r = responsibilities(model.projected_centers(), points, model.beta());
  const std::size_t n = points.rows(), k = latent.rows();
  Matrix out(n, 2, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      out(j, 0) += r(i, j) * latent(i, 0);
      out(j, 1) += r(i, j) * latent(i, 1);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------


std::vector<FastaRecord> hostile_reads(ppc::Rng& rng) {
  cap3::ReadSimConfig sim;
  sim.genome_length = 1500;
  sim.num_reads = 48;
  sim.read_length_mean = 200;
  sim.read_length_stddev = 60;
  sim.read_length_min = 1;
  sim.error_rate = 0.01;
  sim.reverse_strand_prob = 0.5;
  std::vector<FastaRecord> reads = cap3::simulate_shotgun(sim, rng).reads;

  static constexpr char kOddBytes[] = {'N', 'N', 'X', '-', '*', 'n'};
  std::vector<FastaRecord> out;
  for (FastaRecord& r : reads) {
    std::string& s = r.seq;
    if (!s.empty() && rng.bernoulli(0.15)) {  // interior lowercase run
      const std::size_t at = rng.index(s.size());
      const std::size_t len = 1 + rng.index(12);
      for (std::size_t i = at; i < s.size() && i < at + len; ++i) {
        s[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(s[i])));
      }
    }
    if (!s.empty() && rng.bernoulli(0.2)) {  // scattered non-ACGT bytes
      const std::size_t count = 1 + rng.index(3);
      for (std::size_t i = 0; i < count; ++i) {
        s[rng.index(s.size())] = kOddBytes[rng.index(sizeof kOddBytes)];
      }
    }
    if (rng.bernoulli(0.1)) s.resize(rng.index(std::min<std::size_t>(s.size() + 1, 40)));
    const bool duplicate = rng.bernoulli(0.1);
    out.push_back(r);
    if (duplicate) out.push_back({r.id + "-dup", r.seq});
  }
  return out;
}

namespace {

/// Bytes a protein FASTA may carry that the BLAST alphabet lacks.
constexpr char kOddResidues[] = {'B', 'Z', 'X', 'U', '*', '\x80', '\xC3', '\xFF'};

/// Sprinkles lowercase runs and odd residues into `s`.
void roughen(std::string& s, ppc::Rng& rng) {
  if (!s.empty() && rng.bernoulli(0.3)) {
    const std::size_t at = rng.index(s.size());
    const std::size_t len = 1 + rng.index(20);
    for (std::size_t i = at; i < s.size() && i < at + len; ++i) {
      s[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(s[i])));
    }
  }
  if (!s.empty() && rng.bernoulli(0.4)) {
    const std::size_t count = 1 + rng.index(6);
    for (std::size_t i = 0; i < count; ++i) {
      s[rng.index(s.size())] = kOddResidues[rng.index(sizeof kOddResidues)];
    }
  }
}

}  // namespace

blast::SequenceDb hostile_blast_db(ppc::Rng& rng) {
  blast::DbGenConfig config;
  config.num_sequences = 60;
  std::vector<FastaRecord> records = blast::SequenceDb::generate(config, rng).records();
  std::string odd = blast::random_protein(240, rng);
  roughen(odd, rng);
  for (std::size_t i = 0; i < odd.size(); i += 17) odd[i] = kOddResidues[i % sizeof kOddResidues];
  records.push_back({"rep-W", std::string(300, 'W')});
  records.push_back({"rep-L", blast::random_protein(30, rng) + std::string(200, 'L')});
  records.push_back({"odd", odd});
  records.push_back({"one", "M"});
  records.push_back({"empty", ""});
  return blast::SequenceDb(std::move(records));
}

std::vector<FastaRecord> hostile_queries(const blast::SequenceDb& db, ppc::Rng& rng) {
  std::vector<FastaRecord> out;
  for (std::size_t i = 0; i < 36; ++i) {
    FastaRecord q;
    q.id = "hq-" + std::to_string(i);
    q.seq = rng.bernoulli(0.6)
                ? blast::plant_query(db, rng.index(db.size() - 1), 40 + rng.index(120),
                                     0.05, rng)
                : blast::random_protein(40 + rng.index(120), rng);
    roughen(q.seq, rng);
    if (rng.bernoulli(0.1)) q.seq.resize(rng.index(6));
    out.push_back(std::move(q));
  }
  out.push_back({"rep-W", std::string(80, 'W')});
  out.push_back({"rep-w", std::string(40, 'w')});
  out.push_back({"rep-L", std::string(150, 'L')});
  out.push_back({"rep-X", std::string(50, 'X')});
  out.push_back({"W-island", blast::random_protein(20, rng) + std::string(12, 'W') +
                                 blast::random_protein(20, rng)});
  out.push_back({"empty", ""});
  out.push_back({"one", "W"});
  return out;
}

namespace {

gtm::GtmModel train(std::size_t points, std::size_t dims, std::size_t latent,
                    std::size_t rbf, std::size_t iterations, ppc::Rng& rng) {
  gtm::ClusterDataConfig data;
  data.num_points = points;
  data.dims = dims;
  gtm::GtmConfig config;
  config.latent_grid = latent;
  config.rbf_grid = rbf;
  config.em_iterations = iterations;
  return gtm::GtmModel::train(gtm::generate_clustered(data, rng), config, rng);
}

}  // namespace

gtm::GtmModel random_model(std::size_t grid, std::size_t dims, double beta, ppc::Rng& rng) {
  std::ostringstream os;
  os.precision(17);
  os << "gtm " << grid * grid << ' ' << dims << ' ' << beta << '\n';
  for (std::size_t i = 0; i < grid; ++i) {
    for (std::size_t j = 0; j < grid; ++j) {
      os << -1.0 + 2.0 * static_cast<double>(j) / static_cast<double>(grid - 1) << ' '
         << -1.0 + 2.0 * static_cast<double>(i) / static_cast<double>(grid - 1);
      for (std::size_t c = 0; c < dims; ++c) os << ' ' << rng.uniform(-1.0, 1.0);
      os << '\n';
    }
  }
  return gtm::GtmModel::deserialize(os.str());
}

gtm::GtmModel train_mixed_job_model(std::size_t dims, ppc::Rng& rng) {
  return train(300, dims, 16, 4, 8, rng);
}

gtm::GtmModel train_small_model(std::size_t dims, ppc::Rng& rng) {
  return train(60, dims, 6, 3, 5, rng);
}

gtm::Matrix clustered_points(std::size_t n, std::size_t dims, double outlier_frac,
                             ppc::Rng& rng) {
  gtm::ClusterDataConfig data;
  data.num_points = n;
  data.dims = dims;
  gtm::Matrix points = gtm::generate_clustered(data, rng);
  if (outlier_frac > 0.0) {
    for (std::size_t r = 0; r < n; ++r) {
      if (!rng.bernoulli(outlier_frac)) continue;
      for (std::size_t c = 0; c < dims; ++c) points(r, c) *= 1e6;
    }
  }
  return points;
}

}  // namespace ppc::apps::kernel_reference
