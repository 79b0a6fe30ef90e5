#include "dryad/partitioned_table.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace ppc::dryad {

PartitionedTable::PartitionedTable(int num_nodes, std::vector<Partition> partitions)
    : num_nodes_(num_nodes), partitions_(std::move(partitions)) {}

PartitionedTable PartitionedTable::round_robin(const std::vector<std::string>& files,
                                               int num_nodes) {
  PPC_REQUIRE(num_nodes >= 1, "need at least one node");
  PPC_REQUIRE(!files.empty(), "need at least one file");
  std::vector<Partition> parts(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    parts[static_cast<std::size_t>(n)].index = n;
    parts[static_cast<std::size_t>(n)].node = n;
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    parts[i % static_cast<std::size_t>(num_nodes)].files.push_back(files[i]);
  }
  return PartitionedTable(num_nodes, std::move(parts));
}

PartitionedTable PartitionedTable::by_size(const std::vector<std::string>& files,
                                           const std::vector<Bytes>& sizes, int num_nodes) {
  PPC_REQUIRE(num_nodes >= 1, "need at least one node");
  PPC_REQUIRE(!files.empty(), "need at least one file");
  PPC_REQUIRE(files.size() == sizes.size(), "files/sizes length mismatch");

  std::vector<Partition> parts(static_cast<std::size_t>(num_nodes));
  std::vector<Bytes> load(static_cast<std::size_t>(num_nodes), 0.0);
  for (int n = 0; n < num_nodes; ++n) {
    parts[static_cast<std::size_t>(n)].index = n;
    parts[static_cast<std::size_t>(n)].node = n;
  }

  // LPT: biggest file first onto the least-loaded node.
  std::vector<std::size_t> order(files.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&sizes](std::size_t a, std::size_t b) { return sizes[a] > sizes[b]; });
  for (std::size_t i : order) {
    const auto target = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    parts[target].files.push_back(files[i]);
    load[target] += sizes[i];
  }
  return PartitionedTable(num_nodes, std::move(parts));
}

void PartitionedTable::distribute(
    FileShare& share, const std::function<std::string(const std::string&)>& file_data) const {
  PPC_REQUIRE(file_data != nullptr, "file_data source required");
  PPC_REQUIRE(share.num_nodes() >= num_nodes_, "share smaller than the partition layout");
  for (const Partition& p : partitions_) {
    for (const std::string& f : p.files) {
      share.write(p.node, f, file_data(f));
    }
  }
}

}  // namespace ppc::dryad
