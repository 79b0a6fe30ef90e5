// Client-side driver of the azuremr framework: owns the worker pool,
// uploads inputs, runs the map stage then the reduce stage, and collects the
// reduce outputs. Decentralized like the original: there is no master — the
// "driver" is just another client of the queue and blob services.
#pragma once

#include <memory>
#include <vector>

#include "azuremr/job.h"
#include "azuremr/worker.h"
#include "cloudq/queue_service.h"
#include "runtime/worker_supervisor.h"

namespace ppc::azuremr {

class AzureMapReduce {
 public:
  /// Creates the runtime with `num_workers` worker roles (provisioned by
  /// each run() call).
  AzureMapReduce(storage::StorageBackend& store, cloudq::QueueService& queues, int num_workers,
                 MrWorkerConfig worker_config = {});

  /// Tuning for the per-run worker-pool supervisor (restart budget, backoff,
  /// stall detection). num_workers / id_prefix / metrics are overwritten on
  /// every run; adjust the rest before calling run().
  runtime::SupervisorConfig supervisor_config;

  ~AzureMapReduce();

  AzureMapReduce(const AzureMapReduce&) = delete;
  AzureMapReduce& operator=(const AzureMapReduce&) = delete;

  /// Runs the job to completion. Each call provisions a fresh worker pool
  /// bound to the job's map/reduce functions — the deployment-package upload
  /// of a real Azure role.
  JobResult run(const JobSpec& spec);

  /// The registry every worker role publishes to (worker-scoped counters).
  runtime::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  storage::StorageBackend& store_;
  cloudq::QueueService& queues_;
  int num_workers_;
  MrWorkerConfig worker_config_;
  std::shared_ptr<runtime::MetricsRegistry> metrics_;
};

}  // namespace ppc::azuremr
