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
// A campaign is three things over run_engine's RunReport: chaos_spec(), the
// preset that sizes the runs; run_chaos_campaign(), which appends the
// comparison and coverage checks to the chaos run's failures; and the
// renderers. Campaigns are reproducible: every fault decision derives from
// ChaosConfig::seed, so a failing run replays exactly with the command
// chaos_reproduce_line() prints.
#pragma once

#include <cstdint>
#include <string>

#include "sim/engine_run.h"

namespace ppc::sim {

/// What a campaign takes besides its EngineRunSpec.
struct ChaosConfig {
  /// Drives the sampled FaultPlan (and nothing else — the job corpus is
  /// fixed so every seed chases the same baseline).
  std::uint64_t seed = 42;
  /// "cap3", "blast", or "gtm" — or a full-pipeline shuffle workload
  /// ("histogram", "dedup"), which runs on the mapreduce substrate only and
  /// chases faults through partition → spill → fetch → external sort →
  /// reduce (outputs compared as the canonical key → reduced-value map, so
  /// a lost group fails the campaign).
  std::string app = "cap3";
  int num_files = 4;
  /// Arm a correlated spot-revocation storm on top of the sampled plan:
  /// revoke_spot rules (budget 2, p=0.9) at the substrate's worker lifecycle
  /// site. The real-thread substrates have no drain protocol, so storm
  /// revocations land as hard kills — the campaign asserts the existing
  /// crash machinery (redelivery, idempotent re-execution, DLQ) absorbs
  /// them byte-identically; the notice-respecting drain path exists only in
  /// the DES elastic driver (cloud::Fleet). Storm runs get extra redelivery
  /// headroom (queue deliveries / task attempts).
  bool revocation_storm = false;
};

/// The chaos preset for `substrate` ("classiccloud", "azuremr", or
/// "mapreduce"): the job name the plan's sites are named after, two slots
/// per node, redrive headroom, and tight spill / sort budgets. The caller
/// sets the rest (storage, cache, workers, a monitor).
EngineRunSpec chaos_spec(const std::string& substrate, const ChaosConfig& config);

/// Runs one campaign: a fault-free baseline, then the traced chaos run under
/// the seeded plan (a guaranteed floor of one rule per fault action the
/// substrate can absorb, seed-sampled extras, the storm), then the
/// byte-identical comparison and the injected-fault coverage checks.
/// Returns the chaos run's report with every campaign failure in `failures`
/// (a failed baseline's report returns before the chaos run); only
/// configuration errors (unknown substrate/app) throw.
RunReport run_chaos_campaign(const EngineRunSpec& spec, const ChaosConfig& config);

/// Multi-line campaign summary: verdict, plan, injected / absorbed /
/// recovered tallies, failures.
std::string chaos_text(const RunReport& report, const EngineRunSpec& spec,
                       const ChaosConfig& config);

/// "reproduce with: ppcloud chaos ..." naming the seed, substrate and app and
/// every option the campaign changed from the verb's defaults; empty when
/// it passed.
std::string chaos_reproduce_line(const RunReport& report, const EngineRunSpec& spec,
                                 const ChaosConfig& config);

}  // namespace ppc::sim
