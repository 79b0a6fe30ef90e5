// The data-plane model table and the backend factory.
//
// The three data planes of DESIGN.md §11 are one class, blobstore::BlobStore,
// configured by one of three rows. Every row keeps the exact object semantics
// (bucket/key, zero-copy snapshot gets, logical objects, etags, metering) and
// fires the identical FaultHook / TraceHook sites, so a chaos plan or a
// Perfetto timeline is backend-agnostic. The rows differ only in numbers:
//
//  * object — S3/Azure Blob: no servers, per-connection bandwidth that does
//    not contend, usage-priced;
//  * sharedfs — NFS-style: one server whose link is shared by the active
//    transfers, capped by the client NIC. Lowest latency and cheapest (a
//    single server) but collapses at scale;
//  * parallelfs — Lustre-style: 16 striped object servers, aggregate
//    bandwidth 16 x per-server shared by the active transfers, capped by the
//    client NIC. Sustains scale until the stripes saturate; costs 16 servers.
#pragma once

#include <memory>

#include "blobstore/blob_store.h"
#include "common/clock.h"
#include "common/rng.h"
#include "storage/storage_backend.h"

namespace ppc::storage {

/// The model row of `kind`. Tests that need other numbers (zero latency, a
/// visibility lag) build a BlobStore from a modified copy.
blobstore::BlobStoreConfig model_row(StorageKind kind);

/// Builds the backend of `kind` from its model row. The rng seeds the
/// backend's visibility-lag stream (drivers pass rng.split() so the
/// object-store path draws the exact sequence it always has).
std::unique_ptr<StorageBackend> make_backend(StorageKind kind,
                                             std::shared_ptr<const ppc::Clock> clock,
                                             ppc::Rng rng);

}  // namespace ppc::storage
