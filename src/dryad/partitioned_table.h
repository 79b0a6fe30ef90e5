// Static data partitioning — the piece the paper had to build by hand.
//
// §2.3/§2.4: "significant effort had to be spent on implementing the data
// partition and the distribution programs to support DryadLINQ"; partitions
// are produced *before* the job runs, each pinned to a node, and a metadata
// file describes the layout. §4.2 attributes DryadLINQ's weaker load
// balancing on inhomogeneous data to exactly this static node-level
// partitioning, so both the even (round-robin) and size-balanced (LPT)
// policies are provided — the ablation bench compares them against Hadoop's
// dynamic global queue.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "dryad/file_share.h"

namespace ppc::dryad {

struct Partition {
  int index = 0;
  NodeId node = 0;
  std::vector<std::string> files;
};

class PartitionedTable {
 public:
  /// Round-robin by file order — the default "count-balanced" layout.
  static PartitionedTable round_robin(const std::vector<std::string>& files, int num_nodes);

  /// Longest-processing-time greedy by file size: balances bytes, the best
  /// a static partitioner can do without knowing task runtimes.
  static PartitionedTable by_size(const std::vector<std::string>& files,
                                  const std::vector<Bytes>& sizes, int num_nodes);

  const std::vector<Partition>& partitions() const { return partitions_; }

  /// Copies each partition's files from a source map into its node's share —
  /// the "distribution program" the paper wrote. `file_data(name)` supplies
  /// the bytes for each file name.
  void distribute(FileShare& share,
                  const std::function<std::string(const std::string&)>& file_data) const;

 private:
  PartitionedTable(int num_nodes, std::vector<Partition> partitions);

  int num_nodes_ = 0;
  std::vector<Partition> partitions_;
};

}  // namespace ppc::dryad
