#include "apps/cap3/assembler.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <utility>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "common/error.h"
#include "common/string_util.h"

namespace ppc::apps::cap3 {

namespace {

/// 2-bit code of an A/C/G/T byte (A<C<G<T, so packed k-mers order as their
/// strings do); -1 for every other byte.
int base_index(char c) {
  switch (c) {
    case 'A': return 0;
    case 'C': return 1;
    case 'G': return 2;
    case 'T': return 3;
    default: return -1;
  }
}

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// A candidate overlap: the read pair (pair_key) and the signed offset of
/// the second read relative to the first; ordered as (a, b, offset).
using Candidate = std::pair<std::uint64_t, std::int64_t>;

struct KeyHash {
  std::uint64_t operator()(std::uint64_t x) const {
    x *= kGolden;
    return x ^ (x >> 32);
  }
  std::uint64_t operator()(const Candidate& c) const {
    return (*this)(c.first ^ (static_cast<std::uint64_t>(c.second) * kGolden));
  }
};

/// Open-addressing hash map (linear probing, power-of-two capacity, grown at
/// half load) for the k-mer and vote tables: one flat array, no allocation
/// per key.
template <typename Key, typename Value>
class FlatMap {
 public:
  /// The value of `key`, value-initialized on first use.
  Value& operator[](const Key& key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot* s = find(slots_, key);
    if (!s->used) {
      *s = {key, Value{}, true};
      ++size_;
    }
    return s->value;
  }

  /// Every entry, in ascending key order.
  std::vector<std::pair<Key, Value>> sorted() const {
    std::vector<std::pair<Key, Value>> out;
    out.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.used) out.emplace_back(s.key, s.value);
    }
    std::sort(out.begin(), out.end());  // keys are distinct, so values never decide
    return out;
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  static Slot* find(std::vector<Slot>& slots, const Key& key) {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = KeyHash{}(key) & mask;
    while (slots[i].used && slots[i].key != key) i = (i + 1) & mask;
    return &slots[i];
  }

  void grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(std::max<std::size_t>(64, 2 * slots_.size())));
    for (const Slot& s : old) {
      if (s.used) *find(slots_, s.key) = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Two read indices in one word, the first one high: ascending words are
/// ascending (a, b) pairs.
std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

struct Occurrence {
  std::uint32_t read;
  std::uint32_t pos;
  bool flipped;  // the key is this k-mer's reverse complement
};

/// Every k-mer occurrence of the indexed reads, grouped by key: bucket b is
/// occ[start[b] .. start[b+1]), in read-then-position order. A k-mer of
/// A/C/G/T bytes (k <= 32) is keyed by its 2-bit packed code, rolled along
/// the read with its reverse complement's; any other k-mer by its bytes. With
/// `canonical`, a k-mer and its reverse complement share the smaller of the
/// two as key. The key spaces cannot meet: a complemented non-ACGT byte is
/// never ACGT.
struct KmerBuckets {
  std::vector<std::uint32_t> start;
  std::vector<Occurrence> occ;
};

KmerBuckets index_kmers(const std::vector<std::string>& seqs, const std::vector<bool>& indexed,
                        std::size_t k, bool canonical) {
  PPC_REQUIRE(k >= 1, "kmer must be >= 1");
  PPC_REQUIRE(seqs.size() <= UINT32_MAX, "too many reads to index");
  const bool packable = k <= 32;
  const std::uint64_t mask = k >= 32 ? ~0ULL : (1ULL << (2 * k)) - 1;
  const unsigned rc_shift = packable ? static_cast<unsigned>(2 * (k - 1)) : 0;

  FlatMap<std::uint64_t, std::uint32_t> packed;            // code -> bucket + 1
  std::unordered_map<std::string, std::uint32_t> spelled;  // bytes -> bucket + 1
  std::vector<std::pair<std::uint32_t, Occurrence>> keyed;
  std::uint32_t buckets = 0;
  for (std::size_t r = 0; r < seqs.size(); ++r) {
    const std::string& s = seqs[r];
    if (!indexed[r]) continue;
    std::uint64_t fwd = 0, rc = 0;
    std::size_t run = 0;  // A/C/G/T bytes ending at i
    for (std::size_t i = 0; i < s.size(); ++i) {
      const int c = base_index(s[i]);
      run = c < 0 ? 0 : run + 1;
      fwd = ((fwd << 2) | static_cast<std::uint64_t>(c & 3)) & mask;
      rc = (rc >> 2) | (static_cast<std::uint64_t>(3 - (c & 3)) << rc_shift);
      if (i + 1 < k) continue;
      const std::size_t p = i + 1 - k;
      bool flipped = false;
      std::uint32_t* id = nullptr;
      if (packable && run >= k) {
        flipped = canonical && rc < fwd;
        id = &packed[flipped ? rc : fwd];
      } else {
        std::string key = s.substr(p, k);
        if (canonical) {
          std::string rc_key = reverse_complement(key);
          flipped = rc_key < key;
          if (flipped) key = std::move(rc_key);
        }
        id = &spelled[std::move(key)];
      }
      if (*id == 0) *id = ++buckets;
      keyed.push_back({*id - 1, {static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(p),
                                 flipped}});
    }
  }

  // Counting sort by bucket; stable, so each bucket keeps insertion order.
  KmerBuckets out;
  out.start.assign(buckets + 1, 0);
  for (const auto& [b, _] : keyed) ++out.start[b + 1];
  std::partial_sum(out.start.begin(), out.start.end(), out.start.begin());
  std::vector<std::uint32_t> next(out.start.begin(), out.start.end() - 1);
  out.occ.resize(keyed.size());
  for (const auto& [b, o] : keyed) out.occ[next[b]++] = o;
  return out;
}

/// Calls `visit(x, y)` for every pair x < y of occurrences sharing a bucket
/// of 2..max_bucket occurrences (larger buckets are repeats).
template <typename Visit>
void for_each_shared_kmer(const KmerBuckets& index, std::size_t max_bucket, Visit&& visit) {
  for (std::size_t b = 0; b + 1 < index.start.size(); ++b) {
    const Occurrence* first = index.occ.data() + index.start[b];
    const std::size_t size = index.start[b + 1] - index.start[b];
    if (size < 2 || size > max_bucket) continue;
    for (std::size_t x = 0; x < size; ++x) {
      for (std::size_t y = x + 1; y < size; ++y) visit(first[x], first[y]);
    }
  }
}

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

std::vector<bool> resolve_orientations(const std::vector<std::string>& seqs,
                                       const AssemblerConfig& config) {
  const std::size_t n = seqs.size();

  // Canonical k-mer index: each (read, position) votes with a strand flag.
  const KmerBuckets index =
      index_kmers(seqs, std::vector<bool>(n, true), config.kmer, /*canonical=*/true);

  // Pairwise votes: same-strand vs opposite-strand shared k-mers.
  FlatMap<std::uint64_t, std::pair<int, int>> votes;
  for_each_shared_kmer(index, config.max_kmer_bucket, [&](Occurrence a, Occurrence b) {
    if (a.read == b.read) return;
    if (a.read > b.read) std::swap(a, b);
    auto& [same, opposite] = votes[pair_key(a.read, b.read)];
    (a.flipped == b.flipped ? same : opposite) += 1;
  });

  // Strong edges only (a couple of chance k-mer hits must not flip a read),
  // then BFS-propagate orientations per connected component.
  struct Edge {
    std::uint32_t to;
    bool opposite;
  };
  std::vector<std::vector<Edge>> adj(n);
  for (const auto& [key, counts] : votes.sorted()) {
    const auto [same, opposite] = counts;
    if (same + opposite < 3 || same == opposite) continue;
    const bool is_opposite = opposite > same;
    const auto a = static_cast<std::uint32_t>(key >> 32), b = static_cast<std::uint32_t>(key);
    adj[a].push_back({b, is_opposite});
    adj[b].push_back({a, is_opposite});
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

std::string trim_poor_regions(const std::string& seq, std::size_t* trimmed_bases) {
  std::size_t b = 0, e = seq.size();
  while (b < e && std::islower(static_cast<unsigned char>(seq[b]))) ++b;
  while (e > b && std::islower(static_cast<unsigned char>(seq[e - 1]))) --e;
  if (trimmed_bases != nullptr) *trimmed_bases += seq.size() - (e - b);
  return seq.substr(b, e - b);
}

AssemblyResult assemble(const std::vector<FastaRecord>& reads, const AssemblerConfig& config) {
  PPC_REQUIRE(config.kmer >= 8, "kmer must be >= 8");
  PPC_REQUIRE(config.min_overlap >= config.kmer, "min_overlap must be >= kmer");

  AssemblyResult result;
  result.stats.input_reads = reads.size();
  if (reads.empty()) return result;

  // Stage 1: quality trimming.
  std::vector<std::string> seq(reads.size());
  std::vector<bool> usable(reads.size(), true);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    seq[i] = trim_poor_regions(reads[i].seq, &result.stats.trimmed_bases);
    if (seq[i].size() < config.min_read_length) usable[i] = false;
  }

  // Stage 1b: orientation resolution — complement reads sequenced from the
  // opposite strand so every overlap below is forward-vs-forward.
  if (config.handle_reverse_complements) {
    const std::vector<bool> flip = resolve_orientations(seq, config);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (flip[i]) {
        seq[i] = reverse_complement(seq[i]);
        ++result.stats.complemented_reads;
      }
    }
  }

  // Stage 2: k-mer index over usable reads.
  const KmerBuckets index = index_kmers(seq, usable, config.kmer, /*canonical=*/false);

  // Candidate (a, b, offset) triples voted by shared k-mers: the ordered
  // pair with the signed offset of b relative to a, each kept once.
  FlatMap<Candidate, bool> candidates;
  for_each_shared_kmer(index, config.max_kmer_bucket, [&](Occurrence a, Occurrence b) {
    if (a.read == b.read) return;
    if (a.read > b.read) std::swap(a, b);
    candidates[{pair_key(a.read, b.read),
                static_cast<std::int64_t>(a.pos) - static_cast<std::int64_t>(b.pos)}] = true;
  });

  // Stages 2-3: verify candidates over the full overlap region.
  std::vector<Overlap> overlaps;
  for (const auto& [candidate, _] : candidates.sorted()) {
    const auto [pair, signed_offset] = candidate;
    const std::size_t ra = pair >> 32, rb = pair & UINT32_MAX;
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
    Contig contig;
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
  std::sort(result.contigs.begin(), result.contigs.end(), [](const Contig& x, const Contig& y) {
    return x.consensus.size() > y.consensus.size();
  });

  // Everything not placed into a multi-read contig is a singleton.
  for (std::size_t r = 0; r < seq.size(); ++r) {
    if (!in_contig[r]) result.singletons.push_back(reads[r]);
  }
  return result;
}

std::string assemble_fasta_file(const std::string& fasta_text, const AssemblerConfig& config) {
  const auto reads = parse_fasta(fasta_text);
  return assembly_report(assemble(reads, config));
}

std::size_t n50(const std::vector<Contig>& contigs) {
  if (contigs.empty()) return 0;
  std::vector<std::size_t> lengths;
  lengths.reserve(contigs.size());
  std::size_t total = 0;
  for (const Contig& c : contigs) {
    lengths.push_back(c.consensus.size());
    total += c.consensus.size();
  }
  std::sort(lengths.rbegin(), lengths.rend());
  std::size_t acc = 0;
  for (std::size_t len : lengths) {
    acc += len;
    if (acc * 2 >= total) return len;
  }
  return lengths.back();
}

std::string assembly_report(const AssemblyResult& result) {
  std::ostringstream os;
  os << "CAP3-mini assembly report\n";
  os << "reads=" << result.stats.input_reads << " contigs=" << result.contigs.size()
     << " singletons=" << result.singletons.size() << " n50=" << n50(result.contigs)
     << " trimmed_bases=" << result.stats.trimmed_bases
     << " complemented=" << result.stats.complemented_reads
     << " overlaps=" << result.stats.overlaps_accepted << "/"
     << result.stats.overlaps_considered << "\n";
  for (std::size_t i = 0; i < result.contigs.size(); ++i) {
    const Contig& c = result.contigs[i];
    os << "Contig" << i + 1 << " length=" << c.consensus.size() << " reads=" << c.read_ids.size()
       << "\n";
  }
  std::vector<FastaRecord> consensus;
  consensus.reserve(result.contigs.size());
  for (std::size_t i = 0; i < result.contigs.size(); ++i) {
    consensus.push_back({"Contig" + std::to_string(i + 1), result.contigs[i].consensus});
  }
  os << write_fasta(consensus);
  return os.str();
}

}  // namespace ppc::apps::cap3
