#include "minihdfs/mini_hdfs.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/string_util.h"

namespace ppc::minihdfs {

namespace {
/// HDFS's default replication factor.
constexpr int kReplication = 3;
/// Read timing model: local disk vs cluster network (Gigabit-era figures).
constexpr Seconds kLocalReadLatency = 0.002;
constexpr Bytes kLocalReadBandwidthPerS = 80.0 * 1024 * 1024;
constexpr Seconds kRemoteReadLatency = 0.010;
constexpr Bytes kRemoteReadBandwidthPerS = 30.0 * 1024 * 1024;
}  // namespace

MiniHdfs::MiniHdfs(int num_nodes, HdfsConfig config, ppc::Rng rng)
    : num_nodes_(num_nodes),
      block_size_(config.block_size),
      replication_(std::min(kReplication, num_nodes)),
      rng_(rng) {
  PPC_REQUIRE(num_nodes >= 1, "MiniHdfs needs at least one datanode");
  PPC_REQUIRE(block_size_ > 0.0, "block size must be positive");
}

std::vector<NodeId> MiniHdfs::place_replicas_locked(NodeId preferred) {
  std::vector<NodeId> alive;
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (!dead_.contains(n)) alive.push_back(n);
  }
  PPC_CHECK(!alive.empty(), "no alive datanodes");
  std::vector<NodeId> replicas;
  const int want = std::min<int>(replication_, static_cast<int>(alive.size()));

  NodeId primary;
  if (preferred >= 0 && !dead_.contains(preferred)) {
    primary = preferred;
  } else {
    do {
      primary = next_primary_++ % num_nodes_;
    } while (dead_.contains(primary));
  }
  replicas.push_back(primary);

  // Remaining replicas: random distinct alive nodes (rack-awareness is out
  // of scope — the paper's clusters are single-rack for our purposes).
  std::vector<NodeId> others;
  for (NodeId n : alive) {
    if (n != primary) others.push_back(n);
  }
  const auto perm = rng_.permutation(others.size());
  for (std::size_t i = 0; replicas.size() < static_cast<std::size_t>(want) && i < perm.size(); ++i) {
    replicas.push_back(others[perm[i]]);
  }
  return replicas;
}

void MiniHdfs::write(const std::string& path, std::string data, NodeId preferred_node) {
  const auto size = static_cast<Bytes>(data.size());
  write_impl(path, std::move(data), size, preferred_node);
}

void MiniHdfs::write_logical(const std::string& path, Bytes size, NodeId preferred_node) {
  PPC_REQUIRE(size >= 0.0, "logical size must be >= 0");
  write_impl(path, std::string(), size, preferred_node);
}

void MiniHdfs::write_impl(const std::string& path, std::string data, Bytes logical_size,
                          NodeId preferred_node) {
  PPC_REQUIRE(!path.empty(), "path must be non-empty");
  PPC_REQUIRE(preferred_node < num_nodes_, "preferred node out of range");
  std::lock_guard lock(mu_);
  ++stats_.writes;
  FileEntry entry;
  const Bytes total = logical_size;
  const int num_blocks = std::max(1, static_cast<int>(std::ceil(total / block_size_)));
  for (int b = 0; b < num_blocks; ++b) {
    BlockInfo block;
    block.path = path;
    block.index = b;
    block.size = std::min(block_size_, total - static_cast<Bytes>(b) * block_size_);
    if (block.size < 0.0) block.size = 0.0;  // empty file: one zero-size block
    block.replicas = place_replicas_locked(preferred_node);
    entry.blocks.push_back(std::move(block));
  }
  entry.data = std::move(data);
  entry.logical_size = logical_size;
  files_[path] = std::move(entry);
}

std::optional<std::string> MiniHdfs::read(const std::string& path) {
  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.data;
}

std::optional<std::string> MiniHdfs::read_from(const std::string& path, NodeId reader) {
  PPC_REQUIRE(reader >= 0 && reader < num_nodes_, "reader node out of range");
  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  bool local = true;
  for (const BlockInfo& b : it->second.blocks) {
    if (std::find(b.replicas.begin(), b.replicas.end(), reader) == b.replicas.end()) {
      local = false;
      break;
    }
  }
  if (local) {
    ++stats_.local_reads;
  } else {
    ++stats_.remote_reads;
  }
  return it->second.data;
}

bool MiniHdfs::exists(const std::string& path) const {
  std::lock_guard lock(mu_);
  return files_.contains(path);
}

bool MiniHdfs::remove(const std::string& path) {
  std::lock_guard lock(mu_);
  return files_.erase(path) > 0;
}

std::vector<std::string> MiniHdfs::list(const std::string& prefix) const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  for (const auto& [path, _] : files_) {
    if (prefix.empty() || ppc::starts_with(path, prefix)) out.push_back(path);
  }
  return out;
}

std::optional<Bytes> MiniHdfs::file_size(const std::string& path) const {
  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.logical_size;
}

std::vector<BlockInfo> MiniHdfs::blocks(const std::string& path) const {
  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return {};
  return it->second.blocks;
}

std::vector<NodeId> MiniHdfs::data_local_nodes(const std::string& path) const {
  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return {};
  // Intersection of replica sets across blocks; single-block files (the
  // paper's case) simply return the replica set.
  std::vector<NodeId> result = it->second.blocks.front().replicas;
  for (std::size_t b = 1; b < it->second.blocks.size(); ++b) {
    const auto& reps = it->second.blocks[b].replicas;
    std::erase_if(result, [&reps](NodeId n) {
      return std::find(reps.begin(), reps.end(), n) == reps.end();
    });
  }
  std::sort(result.begin(), result.end());
  return result;
}

bool MiniHdfs::is_local(const std::string& path, NodeId node) const {
  const auto nodes = data_local_nodes(path);
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

void MiniHdfs::fail_node(NodeId node) {
  PPC_REQUIRE(node >= 0 && node < num_nodes_, "node out of range");
  std::lock_guard lock(mu_);
  PPC_REQUIRE(!dead_.contains(node), "node already failed");
  dead_.insert(node);
  PPC_CHECK(dead_.size() < static_cast<std::size_t>(num_nodes_), "all datanodes failed");
  for (auto& [path, entry] : files_) {
    for (BlockInfo& block : entry.blocks) {
      const auto before = block.replicas.size();
      std::erase(block.replicas, node);
      PPC_CHECK(!block.replicas.empty(), "block lost all replicas: " + path);
      if (block.replicas.size() < before) re_replicate_locked(path, block);
    }
  }
}

void MiniHdfs::re_replicate_locked(const std::string& /*path*/, BlockInfo& block) {
  // Restore the replication factor from surviving copies, if spare alive
  // nodes exist.
  std::vector<NodeId> candidates;
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (dead_.contains(n)) continue;
    if (std::find(block.replicas.begin(), block.replicas.end(), n) == block.replicas.end()) {
      candidates.push_back(n);
    }
  }
  while (block.replicas.size() < static_cast<std::size_t>(replication_) &&
         !candidates.empty()) {
    const std::size_t pick = rng_.index(candidates.size());
    block.replicas.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    ++stats_.re_replications;
  }
}

bool MiniHdfs::node_alive(NodeId node) const {
  std::lock_guard lock(mu_);
  return node >= 0 && node < num_nodes_ && !dead_.contains(node);
}

std::size_t MiniHdfs::alive_nodes() const {
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(num_nodes_) - dead_.size();
}

HdfsStats MiniHdfs::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

Seconds MiniHdfs::sample_read_time(Bytes size, bool local, ppc::Rng& rng) const {
  PPC_REQUIRE(size >= 0.0, "size must be >= 0");
  if (local) {
    return rng.jittered(kLocalReadLatency, 0.2) + size / kLocalReadBandwidthPerS;
  }
  return rng.jittered(kRemoteReadLatency, 0.2) + size / kRemoteReadBandwidthPerS;
}

}  // namespace ppc::minihdfs
