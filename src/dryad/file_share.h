// Per-node shared directories — the DryadLINQ data substrate.
//
// §2.3: "data for the computations need to be partitioned manually and
// stored beforehand in the local disks of the computational nodes via
// Windows shared directories". FileShare models exactly that: every node
// owns a directory of named files; any node may read any directory (that is
// what a Windows share is), and reads are classified local/remote for the
// timing model and the locality tests. Each share is a flat ppc::KeyIndex
// of its file names (the Dryad DES driver puts one partition file per task
// on the shares and reads it back per vertex); the index is unordered, so
// list() sorts the names it returns.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/key_index.h"
#include "common/rng.h"
#include "common/units.h"

namespace ppc::dryad {

using NodeId = int;

struct FileShareStats {
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t writes = 0;
};

class FileShare {
 public:
  explicit FileShare(int num_nodes);

  int num_nodes() const { return num_nodes_; }

  /// Writes `name` into node `owner`'s share.
  void write(NodeId owner, const std::string& name, std::string data);

  /// Reads `name` from node `owner`'s share as node `reader`; counts a
  /// local read when reader == owner, remote otherwise.
  std::optional<std::string> read(NodeId owner, const std::string& name, NodeId reader);

  bool exists(NodeId owner, const std::string& name) const;
  /// The names in node `owner`'s share, sorted.
  std::vector<std::string> list(NodeId owner) const;
  std::optional<Bytes> file_size(NodeId owner, const std::string& name) const;

  FileShareStats stats() const;

  /// Timing model for the simulation drivers.
  Seconds sample_read_time(Bytes size, bool local, ppc::Rng& rng) const;

 private:
  void check_node(NodeId node) const;

  int num_nodes_;
  mutable std::mutex mu_;
  std::vector<ppc::KeyIndex<std::string>> shares_;
  mutable FileShareStats stats_;
};

}  // namespace ppc::dryad
