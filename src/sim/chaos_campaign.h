// Chaos campaign — the repo's executable fault-tolerance argument, and the
// chaos preset of the engine runner (engine_run.h).
//
// The paper's frameworks claim to survive the cloud's failure modes with
// nothing but visibility timeouts, delete-after-completion, and idempotent
// re-execution (§2.1.3). A chaos campaign makes that claim falsifiable: it
// runs the same small Cap3 / BLAST / GTM job twice on one substrate — once
// fault-free (the baseline), once under a seeded runtime::FaultPlan that
// scripts crashes, delays, errors, and payload corruption against the
// substrate's queues, blobs, and lifecycle sites — and asserts the outputs
// are byte-identical. Alongside the correctness verdict it reports what the
// run actually absorbed: retries, failed/stale deletes, checksum-detected
// corruptions, dead-lettered poison tasks, and supervisor restarts with
// time-to-recovery percentiles.
//
// Campaigns are reproducible: every fault decision derives from
// ChaosConfig::seed, so a failing run reported by CI replays exactly with
// `ppcloud chaos --seed N --substrate X`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/engine_run.h"

namespace ppc::sim {

struct ChaosConfig {
  /// Drives the sampled FaultPlan (and nothing else — the job corpus is
  /// fixed so every seed chases the same baseline).
  std::uint64_t seed = 42;
  /// "classiccloud", "azuremr", or "mapreduce".
  std::string substrate = "classiccloud";
  /// "cap3", "blast", or "gtm" — or a full-pipeline shuffle workload
  /// ("histogram", "dedup"), which runs on the mapreduce substrate only and
  /// chases faults through partition → spill → fetch → external sort →
  /// reduce (outputs compared as the canonical key → reduced-value map, so
  /// a lost group fails the campaign).
  std::string app = "cap3";
  /// Storage backend behind the blob-backed substrates ("object",
  /// "sharedfs", "parallelfs"). FaultHook sites are shared across backends,
  /// so one plan chases the same faults whichever data plane is selected.
  std::string storage = "object";
  /// classiccloud: per-worker content-addressed block cache for the job's
  /// shared files. A corrupted shared download must never be cached — the
  /// cache's checksum validation is itself under test here.
  bool enable_cache = false;
  int num_files = 4;
  int num_workers = 3;
  /// Arm a correlated spot-revocation storm on top of the sampled plan:
  /// revoke_spot rules (budget 2, p=0.9) at the substrate's worker lifecycle
  /// site. The real-thread substrates have no drain protocol, so storm
  /// revocations land as hard kills — the campaign asserts the existing
  /// crash machinery (redelivery, idempotent re-execution, DLQ) absorbs
  /// them byte-identically; the notice-respecting drain path is the DES
  /// elastic driver's and the WorkerSupervisor tests' business. Storm runs
  /// get extra redelivery headroom (queue deliveries / task attempts).
  bool revocation_storm = false;
  /// > 0: attach a runtime::Monitor (own sampler thread, wall clock) to the
  /// chaos run's registry at this period. Every worker-scoped counter
  /// becomes a rate series and every gauge (per-worker busy, DLQ depth) a
  /// level series; the dump lands in ChaosReport::monitor_json — the
  /// artifact `ppcloud chaos --monitor-dir` writes.
  Seconds monitor_period = 0.0;
};

/// The injected and absorbed counts are the chaos run's FaultTally.
struct ChaosReport : FaultTally {
  bool passed = false;
  std::uint64_t seed = 0;
  std::string substrate;
  std::string app;
  /// One line per armed rule (FaultPlan::summary()).
  std::string plan_summary;
  /// Human-readable reasons when !passed; empty otherwise.
  std::vector<std::string> failures;

  /// Full MetricsRegistry::to_json() snapshot of the chaos run — the
  /// artifact CI archives.
  std::string metrics_json;

  /// Monitor::to_json() time-series dump of the chaos run; empty unless
  /// ChaosConfig::monitor_period > 0.
  std::string monitor_json;

  /// Chrome trace_event JSON of the chaos run (Tracer::to_chrome_json()):
  /// the per-task causal chain under fault injection. On a failing seed,
  /// `ppcloud chaos` writes this next to the reproducing-seed message so the
  /// timeline that led to the failure ships with the bug report.
  std::string trace_json;
  std::size_t trace_spans = 0;

  /// Multi-line campaign summary for terminals/logs.
  std::string to_text() const;
};

/// Runs one campaign: fault-free baseline, then the seeded chaos run, then
/// the byte-identical comparison plus the injected-fault coverage checks.
/// Campaign failures land in the report (`passed` / `failures`); only
/// configuration errors (unknown substrate/app) throw.
ChaosReport run_chaos_campaign(const ChaosConfig& config);

}  // namespace ppc::sim
