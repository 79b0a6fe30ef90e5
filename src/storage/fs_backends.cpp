#include "storage/fs_backends.h"

#include <utility>

#include "common/error.h"

namespace ppc::storage {

blobstore::BlobStoreConfig model_row(StorageKind kind) {
  constexpr Bytes kMiB = 1024.0 * 1024.0;
  switch (kind) {
    case StorageKind::kObject:
      return {};
    case StorageKind::kSharedFs:
      return {
          // NFS RPC over the cluster LAN — ~40x lower than an S3 HTTP round
          // trip.
          .request_latency_mean = 0.002,
          .latency_cv = 0.3,
          // The single server's link; the write side pays NFS's sync commit.
          .read_bandwidth_per_s = 400.0 * kMiB,
          .write_bandwidth_per_s = 250.0 * kMiB,
          .client_bandwidth_per_s = 120.0 * kMiB,
          // Close-to-open consistency: reads see committed writes at once.
          .read_after_write_lag_mean = 0.0,
          // One m1.xlarge-class file server, billed like any other node, over
          // a provisioned EBS-style volume.
          .pricing = {.storage_cost_per_gb_month = 0.10,
                      .num_servers = 1,
                      .server_cost_per_hour = 0.68},
      };
    case StorageKind::kParallelFs:
      return {
          // Client -> metadata server -> object servers pipeline setup.
          .request_latency_mean = 0.005,
          .latency_cv = 0.3,
          .read_bandwidth_per_s = 250.0 * kMiB,
          .write_bandwidth_per_s = 180.0 * kMiB,
          // Striped clients drive more than one NIC-equivalent of bandwidth.
          .client_bandwidth_per_s = 200.0 * kMiB,
          // The 16 object servers the data is striped across.
          .pricing = {.storage_cost_per_gb_month = 0.10,
                      .num_servers = 16,
                      .server_cost_per_hour = 0.68},
      };
  }
  throw ppc::InvalidArgument("unknown StorageKind");
}

std::unique_ptr<StorageBackend> make_backend(StorageKind kind,
                                             std::shared_ptr<const ppc::Clock> clock,
                                             ppc::Rng rng) {
  return std::make_unique<blobstore::BlobStore>(std::move(clock), model_row(kind), rng, kind);
}

}  // namespace ppc::storage
