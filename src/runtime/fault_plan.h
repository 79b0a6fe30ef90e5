// Scripted fault schedules for chaos campaigns.
//
// A FaultPlan is the one way to arm a FaultInjector: a declarative schedule
// (a chaos campaign samples one from a seed) that scripts every
// misbehaviour of a run up front. It is a list of FaultRules;
// each rule names a site, one of the four fault actions the paper's
// fault-tolerance story must survive —
//
//   crash        the worker dies at the site (lifecycle sites only);
//   delay        the operation stalls for a fixed duration (straggler model);
//   error        the operation reports failure (lost response, 5xx);
//   corrupt      the delivered payload is bit-flipped (detected via checksums);
//   revoke_spot  the provider reclaims the spot instance hosting the site,
//                with `delay` seconds of notice (0 = no notice, hard kill);
//
// — plus a probability, a firing budget, and an optional skip count. Arming
// a plan gives every site its own RNG stream derived deterministically from
// `seed ^ fnv1a64(site)`, so two runs of the same plan make identical
// per-site decisions regardless of which other sites exist or fire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace ppc::runtime {

enum class FaultAction { kCrash, kDelay, kError, kCorrupt, kRevokeSpot };

const char* fault_action_name(FaultAction action);

struct FaultRule {
  std::string site;
  FaultAction action = FaultAction::kError;
  /// Chance the rule triggers on an eligible firing, decided by the site's
  /// plan RNG. 1.0 = every eligible firing.
  double probability = 1.0;
  /// Firings that may take the action before the rule disarms; < 0 = no cap.
  int budget = 1;
  /// Eligible firings to let pass untouched before the rule activates —
  /// "the third upload fails" is skip_first=2, budget=1.
  int skip_first = 0;
  /// Stall duration for kDelay.
  Seconds delay = 0.0;
  /// Failure message for kError.
  std::string what = "injected fault";
};

struct FaultPlan {
  /// Per-site RNG streams derive from this; same seed => same decisions.
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  // Fluent builders, so campaigns read as schedules:
  //   plan.crash(sites::kAfterExecute).delay(receive_site, 0.02, 3);
  FaultPlan& crash(const std::string& site, int budget = 1, double probability = 1.0,
                   int skip_first = 0);
  FaultPlan& delay(const std::string& site, Seconds duration, int budget = -1,
                   double probability = 1.0, int skip_first = 0);
  FaultPlan& error(const std::string& site, std::string what = "injected fault",
                   int budget = 1, double probability = 1.0, int skip_first = 0);
  FaultPlan& corrupt(const std::string& site, int budget = 1, double probability = 1.0,
                     int skip_first = 0);
  /// Spot revocation: at the revocation site the hosting instance gets
  /// `notice` seconds to drain before the hard kill (rides the `delay`
  /// field). budget > 1 with probability < 1 scripts a correlated storm.
  FaultPlan& revoke_spot(const std::string& site, int budget = 1, double probability = 1.0,
                         Seconds notice = 0.0, int skip_first = 0);

  /// One line per rule, for campaign logs ("crash x1 @ site (p=1.00)").
  std::string summary() const;
};

}  // namespace ppc::runtime
