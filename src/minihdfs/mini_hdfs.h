// Miniature HDFS: the storage substrate of the Hadoop-analog engine.
//
// Reproduces the properties §2.2 of the paper relies on:
//  * files are split into blocks replicated across datanodes ("achieves
//    reliability through replication of data across nodes");
//  * the namenode exposes block locations, which the MapReduce scheduler
//    uses for data-locality-aware task placement ("scheduling computations
//    near the data using the data locality information provided by HDFS");
//  * local reads stream from the node's own disk, remote reads cross the
//    cluster network — the timing model quantifies that difference and the
//    engine's local/remote read counters make locality observable in tests;
//  * datanode failure drops its replicas and triggers re-replication.
//
// Data is stored for real (one copy; replica sets are metadata), so the
// real-thread MapReduce engine computes on actual bytes.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace ppc::minihdfs {

using NodeId = int;

struct HdfsConfig {
  Bytes block_size = 64.0 * 1024 * 1024;
};

struct BlockInfo {
  std::string path;
  int index = 0;
  Bytes size = 0.0;
  std::vector<NodeId> replicas;  // alive holders, primary first
};

struct HdfsStats {
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t re_replications = 0;
};

class MiniHdfs {
 public:
  /// A cluster of `num_nodes` datanodes (>= 1). Blocks keep three replicas,
  /// clamped to the node count.
  MiniHdfs(int num_nodes, HdfsConfig config = {}, ppc::Rng rng = ppc::Rng(0x4DF5DEAD));

  int num_nodes() const { return num_nodes_; }

  /// Writes a file. `preferred_node` pins the primary replica (the classic
  /// HDFS "writer's node first" policy); -1 places round-robin.
  void write(const std::string& path, std::string data, NodeId preferred_node = -1);

  /// Writes a *logical* file: block placement, locality and sizes behave as
  /// for a real file of `size` bytes but no bytes are materialized. Used by
  /// the discrete-event drivers to model large inputs; read()/read_from()
  /// return an empty payload for such files.
  void write_logical(const std::string& path, Bytes size, NodeId preferred_node = -1);

  /// Whole-file read *content* (no locality accounting — use read_from).
  std::optional<std::string> read(const std::string& path);

  /// Read as performed by a task running on `reader`; bumps the local or
  /// remote counter depending on whether `reader` holds a replica of every
  /// block it streams.
  std::optional<std::string> read_from(const std::string& path, NodeId reader);

  bool exists(const std::string& path) const;
  bool remove(const std::string& path);
  std::vector<std::string> list(const std::string& prefix = "") const;
  std::optional<Bytes> file_size(const std::string& path) const;

  /// Block metadata for a file (empty when absent).
  std::vector<BlockInfo> blocks(const std::string& path) const;

  /// Nodes holding a replica of *every* block of the file — the candidate
  /// data-local executors. For the paper's workload (one small file per map
  /// task, file < block size) this is simply the file's replica set.
  std::vector<NodeId> data_local_nodes(const std::string& path) const;

  bool is_local(const std::string& path, NodeId node) const;

  /// Marks a datanode dead: its replicas vanish and under-replicated blocks
  /// are re-replicated onto surviving nodes (throws if data would be lost
  /// and no replica survives anywhere).
  void fail_node(NodeId node);

  bool node_alive(NodeId node) const;
  std::size_t alive_nodes() const;

  HdfsStats stats() const;

  // -- timing model for the simulation drivers --
  Seconds sample_read_time(Bytes size, bool local, ppc::Rng& rng) const;

 private:
  struct FileEntry {
    std::string data;
    Bytes logical_size = 0.0;  // == data.size() for real files
    std::vector<BlockInfo> blocks;
  };

  void write_impl(const std::string& path, std::string data, Bytes logical_size,
                  NodeId preferred_node);

  std::vector<NodeId> place_replicas_locked(NodeId preferred);
  void re_replicate_locked(const std::string& path, BlockInfo& block);

  int num_nodes_;
  Bytes block_size_;
  int replication_;  // replicas per block
  mutable std::mutex mu_;
  ppc::Rng rng_;
  std::map<std::string, FileEntry> files_;
  std::set<NodeId> dead_;
  NodeId next_primary_ = 0;
  HdfsStats stats_;
};

}  // namespace ppc::minihdfs
