#include "dryad/file_share.h"

#include <algorithm>

#include "common/error.h"

namespace ppc::dryad {

namespace {
/// Read timing model: local disk vs an SMB share across the network.
constexpr Seconds kLocalReadLatency = 0.002;
constexpr Bytes kLocalReadBandwidthPerS = 80.0 * 1024 * 1024;
constexpr Seconds kRemoteReadLatency = 0.012;  // SMB round trips are chattier
constexpr Bytes kRemoteReadBandwidthPerS = 25.0 * 1024 * 1024;
}  // namespace

FileShare::FileShare(int num_nodes)
    : num_nodes_(num_nodes), shares_(static_cast<std::size_t>(num_nodes)) {
  PPC_REQUIRE(num_nodes >= 1, "FileShare needs at least one node");
}

void FileShare::check_node(NodeId node) const {
  PPC_REQUIRE(node >= 0 && node < num_nodes_, "node id out of range");
}

void FileShare::write(NodeId owner, const std::string& name, std::string data) {
  check_node(owner);
  PPC_REQUIRE(!name.empty(), "file name must be non-empty");
  std::lock_guard lock(mu_);
  ++stats_.writes;
  *shares_[static_cast<std::size_t>(owner)].try_emplace(name).first = std::move(data);
}

std::optional<std::string> FileShare::read(NodeId owner, const std::string& name, NodeId reader) {
  check_node(owner);
  check_node(reader);
  std::lock_guard lock(mu_);
  const std::string* data = shares_[static_cast<std::size_t>(owner)].find(name);
  if (data == nullptr) return std::nullopt;
  if (owner == reader) {
    ++stats_.local_reads;
  } else {
    ++stats_.remote_reads;
  }
  return *data;
}

bool FileShare::exists(NodeId owner, const std::string& name) const {
  check_node(owner);
  std::lock_guard lock(mu_);
  return shares_[static_cast<std::size_t>(owner)].find(name) != nullptr;
}

std::vector<std::string> FileShare::list(NodeId owner) const {
  check_node(owner);
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const auto& e : shares_[static_cast<std::size_t>(owner)]) names.push_back(e.key);
  std::sort(names.begin(), names.end());
  return names;
}

std::optional<Bytes> FileShare::file_size(NodeId owner, const std::string& name) const {
  check_node(owner);
  std::lock_guard lock(mu_);
  const std::string* data = shares_[static_cast<std::size_t>(owner)].find(name);
  if (data == nullptr) return std::nullopt;
  return static_cast<Bytes>(data->size());
}

FileShareStats FileShare::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

Seconds FileShare::sample_read_time(Bytes size, bool local, ppc::Rng& rng) const {
  PPC_REQUIRE(size >= 0.0, "size must be >= 0");
  if (local) {
    return rng.jittered(kLocalReadLatency, 0.2) + size / kLocalReadBandwidthPerS;
  }
  return rng.jittered(kRemoteReadLatency, 0.2) + size / kRemoteReadBandwidthPerS;
}

}  // namespace ppc::dryad
