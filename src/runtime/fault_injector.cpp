#include "runtime/fault_injector.h"

#include <utility>

#include "common/string_util.h"
#include "runtime/retry_policy.h"

namespace ppc::runtime {

void FaultInjector::arm_plan(const FaultPlan& plan) {
  std::lock_guard lock(mu_);
  for (const FaultRule& rule : plan.rules) {
    Site& s = sites_[rule.site];
    if (s.rules.empty()) s.rng = ppc::Rng(plan.seed ^ fnv1a64(rule.site));
    ArmedRule armed;
    armed.rule = rule;
    armed.remaining_skips = rule.skip_first;
    armed.remaining_budget = rule.budget;
    s.rules.push_back(std::move(armed));
  }
}

void FaultInjector::reset() {
  std::lock_guard lock(mu_);
  sites_.clear();
}

FaultInjector::Outcome FaultInjector::evaluate(const std::string& site, bool service_op) {
  std::lock_guard lock(mu_);
  Site& s = sites_[site];
  ++s.hits;
  Outcome out;

  // Plan rules. Each rule decides independently; within one firing, delay
  // stacks with at most one terminal action (error/crash/corrupt, first
  // armed rule wins) so a single firing stays interpretable.
  for (ArmedRule& ar : s.rules) {
    const FaultAction action = ar.rule.action;
    // Crash and revocation rules only make sense at lifecycle sites;
    // corrupt rules only at service operations that carry a payload.
    // Mismatched rules stay armed.
    if ((action == FaultAction::kCrash || action == FaultAction::kRevokeSpot) &&
        service_op) {
      continue;
    }
    if (action == FaultAction::kCorrupt && !service_op) continue;
    if (ar.remaining_budget == 0) continue;
    const bool terminal_taken = out.error || out.crash || out.corrupt;
    if (action != FaultAction::kDelay && terminal_taken) continue;
    if (ar.rule.probability < 1.0 && !s.rng.bernoulli(ar.rule.probability)) continue;
    if (ar.remaining_skips > 0) {
      --ar.remaining_skips;
      continue;
    }
    if (ar.remaining_budget > 0) --ar.remaining_budget;
    switch (action) {
      case FaultAction::kDelay:
        out.delay += ar.rule.delay;
        ++s.delays;
        break;
      case FaultAction::kError:
        out.error = true;
        out.error_what = ar.rule.what;
        ++s.errors;
        break;
      case FaultAction::kCrash:
        out.crash = true;
        break;
      case FaultAction::kCorrupt:
        // Counted in on_operation(), and only when bytes actually flip —
        // a payload-less or empty operation yields no corruption.
        out.corrupt = true;
        out.corrupt_salt = s.rng.next_u64();
        break;
      case FaultAction::kRevokeSpot:
        // A revocation whose notice is not honoured is a crash; drivers that
        // drain within the notice window suppress the kill themselves.
        out.crash = true;
        out.revoke = true;
        out.revoke_notice = ar.rule.delay;
        ++s.revocations;
        break;
    }
  }
  if (out.crash) ++s.crashes;
  return out;
}

FaultInjector::Outcome FaultInjector::decide(const std::string& site) {
  return evaluate(site, /*service_op=*/false);
}

bool FaultInjector::fire(const std::string& site, const std::string& key) {
  const Outcome out = decide(site);
  if (out.delay > 0.0) sleep_for(out.delay);
  if (out.error) {
    throw InjectedFault("injected fault at " + site +
                        (key.empty() ? "" : " (" + key + ")") + ": " + out.error_what);
  }
  return out.crash;
}

ppc::FaultDecision FaultInjector::on_operation(const std::string& site,
                                               const std::string& /*key*/,
                                               ppc::PayloadRef* payload) {
  const Outcome out = evaluate(site, /*service_op=*/true);
  if (out.delay > 0.0) sleep_for(out.delay);
  ppc::FaultDecision decision;
  decision.fail = out.error;
  if (out.corrupt && payload != nullptr) {
    if (std::string* bytes = payload->mutate(); bytes != nullptr && !bytes->empty()) {
      const std::size_t offset = out.corrupt_salt % bytes->size();
      const unsigned bit = static_cast<unsigned>((out.corrupt_salt >> 32) % 8);
      (*bytes)[offset] = static_cast<char>(
          static_cast<unsigned char>((*bytes)[offset]) ^ (1u << bit));
      decision.corrupted = true;
      std::lock_guard lock(mu_);
      ++sites_[site].corruptions;
    }
  }
  return decision;
}

std::int64_t FaultInjector::site_stat_locked(const std::string& site,
                                             std::int64_t Site::*member) const {
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.*member;
}

std::int64_t FaultInjector::total_stat_locked(std::int64_t Site::*member) const {
  std::int64_t total = 0;
  for (const auto& [_, s] : sites_) total += s.*member;
  return total;
}

std::int64_t FaultInjector::hits(const std::string& site) const {
  std::lock_guard lock(mu_);
  return site_stat_locked(site, &Site::hits);
}

std::int64_t FaultInjector::crashes(const std::string& site) const {
  std::lock_guard lock(mu_);
  return site_stat_locked(site, &Site::crashes);
}

std::int64_t FaultInjector::errors_injected(const std::string& site) const {
  std::lock_guard lock(mu_);
  return site_stat_locked(site, &Site::errors);
}

std::int64_t FaultInjector::revocations(const std::string& site) const {
  std::lock_guard lock(mu_);
  return site_stat_locked(site, &Site::revocations);
}

std::int64_t FaultInjector::total_crashes() const {
  std::lock_guard lock(mu_);
  return total_stat_locked(&Site::crashes);
}

std::int64_t FaultInjector::total_delays() const {
  std::lock_guard lock(mu_);
  return total_stat_locked(&Site::delays);
}

std::int64_t FaultInjector::total_errors() const {
  std::lock_guard lock(mu_);
  return total_stat_locked(&Site::errors);
}

std::int64_t FaultInjector::total_corruptions() const {
  std::lock_guard lock(mu_);
  return total_stat_locked(&Site::corruptions);
}

std::int64_t FaultInjector::total_revocations() const {
  std::lock_guard lock(mu_);
  return total_stat_locked(&Site::revocations);
}

}  // namespace ppc::runtime
