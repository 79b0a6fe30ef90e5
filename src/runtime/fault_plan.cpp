#include "runtime/fault_plan.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"

namespace ppc::runtime {

const char* fault_action_name(FaultAction action) {
  switch (action) {
    case FaultAction::kCrash:
      return "crash";
    case FaultAction::kDelay:
      return "delay";
    case FaultAction::kError:
      return "error";
    case FaultAction::kCorrupt:
      return "corrupt";
    case FaultAction::kRevokeSpot:
      return "revoke_spot";
  }
  return "?";
}

namespace {
FaultRule make_rule(std::string site, FaultAction action, double probability, int budget,
                    int skip_first) {
  PPC_REQUIRE(!site.empty(), "fault rule needs a site");
  PPC_REQUIRE(probability >= 0.0 && probability <= 1.0, "probability must be in [0,1]");
  PPC_REQUIRE(skip_first >= 0, "skip_first must be >= 0");
  FaultRule rule;
  rule.site = std::move(site);
  rule.action = action;
  rule.probability = probability;
  rule.budget = budget;
  rule.skip_first = skip_first;
  return rule;
}
}  // namespace

FaultPlan& FaultPlan::crash(const std::string& site, int budget, double probability,
                            int skip_first) {
  rules.push_back(make_rule(site, FaultAction::kCrash, probability, budget, skip_first));
  return *this;
}

FaultPlan& FaultPlan::delay(const std::string& site, Seconds duration, int budget,
                            double probability, int skip_first) {
  PPC_REQUIRE(std::isfinite(duration) && duration >= 0.0,
              "delay must be finite and non-negative");
  rules.push_back(make_rule(site, FaultAction::kDelay, probability, budget, skip_first));
  rules.back().delay = duration;
  return *this;
}

FaultPlan& FaultPlan::error(const std::string& site, std::string what, int budget,
                            double probability, int skip_first) {
  rules.push_back(make_rule(site, FaultAction::kError, probability, budget, skip_first));
  rules.back().what = std::move(what);
  return *this;
}

FaultPlan& FaultPlan::corrupt(const std::string& site, int budget, double probability,
                              int skip_first) {
  rules.push_back(make_rule(site, FaultAction::kCorrupt, probability, budget, skip_first));
  return *this;
}

FaultPlan& FaultPlan::revoke_spot(const std::string& site, int budget, double probability,
                                  Seconds notice, int skip_first) {
  PPC_REQUIRE(std::isfinite(notice) && notice >= 0.0,
              "revocation notice must be finite and non-negative");
  rules.push_back(
      make_rule(site, FaultAction::kRevokeSpot, probability, budget, skip_first));
  rules.back().delay = notice;
  return *this;
}

std::string FaultPlan::summary() const {
  std::ostringstream os;
  os << "fault plan seed=" << seed << " rules=" << rules.size() << "\n";
  for (const FaultRule& r : rules) {
    os << "  " << fault_action_name(r.action);
    if (r.budget < 0) {
      os << " x*";
    } else {
      os << " x" << r.budget;
    }
    os << " @ " << r.site << " (p=" << format_fixed(r.probability, 2);
    if (r.skip_first > 0) os << ", skip " << r.skip_first;
    if (r.action == FaultAction::kDelay) os << ", " << format_fixed(r.delay, 3) << "s";
    if (r.action == FaultAction::kRevokeSpot)
      os << ", notice " << format_fixed(r.delay, 0) << "s";
    os << ")\n";
  }
  return os.str();
}

}  // namespace ppc::runtime
