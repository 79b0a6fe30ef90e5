// Unified fault injection for every substrate and the simulator.
//
// The seed had two incompatible crash hooks — classiccloud's
// `crash_at(CrashPoint, TaskSpec)` and azuremr's `crash_at(op, task_key)` —
// plus per-engine `attempt_hook`s. This injector replaces all of them with
// *named sites*: instrumented code calls `fire("classiccloud.after_upload",
// task_id)` at the points where the paper's fault-tolerance story is
// exercised, and tests arm crashes, delays, thrown errors, corruptions or
// spot revocations against those site names. One arming API,
// arm_plan(FaultPlan), drives all four substrates, so the same "crash after
// execute, before delete" scenario can be expressed identically against the
// Classic Cloud worker, the azuremr worker role, the MapReduce engine, and
// the discrete-event drivers.
//
// One decision, several interpretations. decide(site) counts a firing at a
// lifecycle site and returns what the plan says should happen — the summed
// delay, an error, a crash, a revocation — without sleeping or throwing.
// The discrete-event drivers call it and interpret the outcome in simulated
// time; the real-thread surfaces apply it on the calling thread:
//
//  * fire(site, key) — worker-side lifecycle sites. Sleeps the delay,
//    throws InjectedFault for errors, returns true for crashes.
//  * on_operation(site, key, payload) — the ppc::FaultHook interface the
//    service layer (BlobStore, MessageQueue) fires on every put/get/list/
//    send/receive/delete. Sleeps the delay, reports errors as fail=true, and
//    corrupts payload copies (bit flip at an RNG-chosen position). Crash
//    rules are ignored here: a storage service cannot kill its caller.
//
// A plan's rules get deterministic per-site RNG streams
// (seed ^ fnv1a64(site)), so two runs of one plan decide alike.
//
// Thread-safe: workers fire concurrently; tests arm before starting them
// (arming while firing is also safe, just racy by nature).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/error.h"
#include "common/fault_hook.h"
#include "common/rng.h"
#include "common/units.h"
#include "runtime/fault_plan.h"

namespace ppc::runtime {

/// Thrown by FaultInjector::fire() for a site an error rule fires at.
class InjectedFault : public ppc::Error {
 public:
  using Error::Error;
};

class FaultInjector : public ppc::FaultHook {
 public:
  // -- arming ---------------------------------------------------------

  /// Installs every rule of a declarative plan. Each armed site gets its own
  /// deterministic RNG stream (plan.seed ^ fnv1a64(site)) for probability
  /// draws and corruption positions. May be called repeatedly; rules
  /// accumulate.
  void arm_plan(const FaultPlan& plan);

  /// Disarms every site and zeroes all counters.
  void reset();

  // -- deciding -------------------------------------------------------

  /// What one firing of a lifecycle site decided. Delays stack with at most
  /// one terminal action (error, crash or revocation; the first armed rule
  /// wins). Corruption applies to service operations only.
  struct Outcome {
    Seconds delay = 0.0;  // summed delay rules
    bool error = false;
    std::string error_what;
    bool crash = false;  // also set by a revocation: an ignored notice is a kill
    bool corrupt = false;
    std::uint64_t corrupt_salt = 0;  // picks the flipped bit
    bool revoke = false;          // a revoke_spot rule fired...
    Seconds revoke_notice = 0.0;  // ...with this notice (0 = hard kill)
  };

  /// Counts one firing of lifecycle site `site` and decides it under the
  /// armed plan, exactly as fire() would, but applies nothing: no sleep, no
  /// throw. For callers that keep their own clock (the DES drivers).
  Outcome decide(const std::string& site);

  // -- firing ---------------------------------------------------------

  /// Called by instrumented code at a named site. Sleeps any armed delay,
  /// throws InjectedFault when an error is armed, and returns true when the
  /// caller should crash (die without completing / deleting its message).
  /// A revoke_spot rule behaves as a crash here — the firing worker dies —
  /// so chaos sites script revocation-shaped kills without an elastic
  /// driver. Unarmed sites return false.
  bool fire(const std::string& site, const std::string& key = "");

  /// ppc::FaultHook — fired by BlobStore / MessageQueue operations. Never
  /// throws; errors surface as FaultDecision::fail and corruptions mutate
  /// the payload copy. Crash rules do not apply to service operations.
  ppc::FaultDecision on_operation(const std::string& site, const std::string& key,
                                  ppc::PayloadRef* payload) override;

  // -- observability --------------------------------------------------

  /// Times the site has fired (armed or not).
  std::int64_t hits(const std::string& site) const;

  /// Crashes this site has triggered.
  std::int64_t crashes(const std::string& site) const;

  std::int64_t errors_injected(const std::string& site) const;

  /// Spot revocations this site has triggered. A revocation also counts as
  /// a crash when its notice is ignored — the kill is the crash.
  std::int64_t revocations(const std::string& site) const;

  /// Crashes across all sites.
  std::int64_t total_crashes() const;

  std::int64_t total_delays() const;
  std::int64_t total_errors() const;
  std::int64_t total_corruptions() const;
  std::int64_t total_revocations() const;

 private:
  struct ArmedRule {
    FaultRule rule;
    int remaining_skips = 0;
    int remaining_budget = 0;  // < 0 = unlimited
  };

  struct Site {
    std::vector<ArmedRule> rules;
    ppc::Rng rng{0};  // reseeded by arm_plan
    std::int64_t hits = 0;
    std::int64_t crashes = 0;
    std::int64_t delays = 0;
    std::int64_t errors = 0;
    std::int64_t corruptions = 0;
    std::int64_t revocations = 0;
  };

  /// Evaluates the site's plan rules for one firing under the lock.
  /// `service_op` selects the hook interpretation: corrupt rules apply,
  /// crash and revocation rules do not.
  Outcome evaluate(const std::string& site, bool service_op);

  std::int64_t site_stat_locked(const std::string& site,
                                std::int64_t Site::*member) const;
  std::int64_t total_stat_locked(std::int64_t Site::*member) const;

  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
};

}  // namespace ppc::runtime
