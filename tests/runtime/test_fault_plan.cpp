#include "runtime/fault_plan.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "runtime/fault_injector.h"

namespace ppc::runtime {
namespace {

TEST(FaultPlan, FluentBuildersPopulateRules) {
  FaultPlan plan;
  plan.seed = 7;
  plan.crash("w.after_execute")
      .delay("cloudq.q.receive", 0.01, /*budget=*/3)
      .error("cloudq.q.delete", "lost response", /*budget=*/2)
      .corrupt("blobstore.b.get");
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.rules[0].action, FaultAction::kCrash);
  EXPECT_EQ(plan.rules[1].action, FaultAction::kDelay);
  EXPECT_DOUBLE_EQ(plan.rules[1].delay, 0.01);
  EXPECT_EQ(plan.rules[1].budget, 3);
  EXPECT_EQ(plan.rules[2].action, FaultAction::kError);
  EXPECT_EQ(plan.rules[2].what, "lost response");
  EXPECT_EQ(plan.rules[3].action, FaultAction::kCorrupt);
  EXPECT_EQ(plan.rules[3].site, "blobstore.b.get");
}

TEST(FaultPlan, SummaryNamesEveryRule) {
  FaultPlan plan;
  plan.seed = 99;
  plan.crash("a.site").error("b.site");
  const std::string s = plan.summary();
  EXPECT_NE(s.find("a.site"), std::string::npos);
  EXPECT_NE(s.find("b.site"), std::string::npos);
  EXPECT_NE(s.find("crash"), std::string::npos);
  EXPECT_NE(s.find("error"), std::string::npos);
}

TEST(FaultPlan, CrashRuleFiresAtLifecycleSiteAndSpendsBudget) {
  FaultPlan plan;
  plan.crash("w.after_execute", /*budget=*/2);
  FaultInjector faults;
  faults.arm_plan(plan);
  EXPECT_TRUE(faults.fire("w.after_execute", "t1"));
  EXPECT_TRUE(faults.fire("w.after_execute", "t2"));
  EXPECT_FALSE(faults.fire("w.after_execute", "t3"));  // budget spent
  EXPECT_EQ(faults.total_crashes(), 2);
}

TEST(FaultPlan, SkipFirstLetsEarlyFiringsPass) {
  // "the third delete fails" — skip_first=2, budget=1.
  FaultPlan plan;
  plan.error("q.delete", "third delete lost", /*budget=*/1, /*probability=*/1.0,
             /*skip_first=*/2);
  FaultInjector faults;
  faults.arm_plan(plan);
  PayloadRef no_payload(nullptr);
  EXPECT_FALSE(faults.on_operation("q.delete", "r1", &no_payload).fail);
  EXPECT_FALSE(faults.on_operation("q.delete", "r2", &no_payload).fail);
  EXPECT_TRUE(faults.on_operation("q.delete", "r3", &no_payload).fail);
  EXPECT_FALSE(faults.on_operation("q.delete", "r4", &no_payload).fail);
  EXPECT_EQ(faults.total_errors(), 1);
}

TEST(FaultPlan, CrashRulesDoNotApplyToServiceOperations) {
  // A storage service cannot kill its caller: a crash rule armed against a
  // service site is inert on the hook surface but live on fire().
  FaultPlan plan;
  plan.crash("dual.site", /*budget=*/-1);
  FaultInjector faults;
  faults.arm_plan(plan);
  PayloadRef no_payload(nullptr);
  const FaultDecision d = faults.on_operation("dual.site", "k", &no_payload);
  EXPECT_FALSE(d.fail);
  EXPECT_FALSE(d.corrupted);
  EXPECT_EQ(faults.total_crashes(), 0);
  EXPECT_TRUE(faults.fire("dual.site", "k"));
  EXPECT_EQ(faults.total_crashes(), 1);
}

TEST(FaultPlan, CorruptRuleFlipsDeliveredPayloadCopyOnly) {
  FaultPlan plan;
  plan.seed = 5;
  plan.corrupt("q.receive", /*budget=*/1);
  FaultInjector faults;
  faults.arm_plan(plan);
  const std::string stored = "the quick brown fox";
  PayloadRef payload(&stored);
  const FaultDecision d = faults.on_operation("q.receive", "m1", &payload);
  EXPECT_TRUE(d.corrupted);
  ASSERT_TRUE(payload.mutated());
  const std::string delivered = payload.take();
  EXPECT_NE(delivered, stored);                        // bytes flipped...
  EXPECT_EQ(delivered.size(), stored.size());          // ...in place
  EXPECT_EQ(stored, "the quick brown fox");            // original untouched
  EXPECT_EQ(faults.total_corruptions(), 1);

  // Budget spent: the next delivery is clean.
  PayloadRef second(&stored);
  EXPECT_FALSE(faults.on_operation("q.receive", "m2", &second).corrupted);
  EXPECT_FALSE(second.mutated());
}

TEST(FaultPlan, CorruptRuleIgnoresPayloadlessOperations) {
  FaultPlan plan;
  plan.corrupt("q.delete", /*budget=*/-1);
  FaultInjector faults;
  faults.arm_plan(plan);
  PayloadRef no_payload(nullptr);
  const FaultDecision d = faults.on_operation("q.delete", "r", &no_payload);
  EXPECT_FALSE(d.corrupted);
  EXPECT_EQ(faults.total_corruptions(), 0);
}

TEST(FaultPlan, DelayRuleStallsTheOperation) {
  FaultPlan plan;
  plan.delay("q.receive", 0.03, /*budget=*/1);
  FaultInjector faults;
  faults.arm_plan(plan);
  PayloadRef no_payload(nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  faults.on_operation("q.receive", "m", &no_payload);
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  EXPECT_GE(elapsed, 0.025);
  EXPECT_EQ(faults.total_delays(), 1);
}

TEST(FaultPlan, ProbabilisticDecisionsAreDeterministicPerSeed) {
  // Same plan, two injectors: identical decision sequences at every site.
  auto decisions = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.error("flaky.site", "injected", /*budget=*/-1, /*probability=*/0.5);
    FaultInjector faults;
    faults.arm_plan(plan);
    std::vector<bool> fired;
    PayloadRef no_payload(nullptr);
    for (int i = 0; i < 64; ++i) {
      fired.push_back(faults.on_operation("flaky.site", "k", &no_payload).fail);
    }
    return fired;
  };
  const auto a = decisions(1234);
  const auto b = decisions(1234);
  EXPECT_EQ(a, b);
  // A p=0.5 rule over 64 firings should neither always fire nor never fire.
  const int fired = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
  // And a different seed should make at least one different decision.
  EXPECT_NE(a, decisions(5678));
}

TEST(FaultPlan, PerSiteStreamsAreIndependentOfOtherSites) {
  // Site X's decisions must not shift when an unrelated site Y exists or
  // fires — each site derives its stream from seed ^ fnv1a64(site).
  auto x_decisions = [](bool with_y) {
    FaultPlan plan;
    plan.seed = 42;
    plan.error("site.x", "x", /*budget=*/-1, /*probability=*/0.5);
    if (with_y) plan.error("site.y", "y", /*budget=*/-1, /*probability=*/0.5);
    FaultInjector faults;
    faults.arm_plan(plan);
    std::vector<bool> fired;
    PayloadRef no_payload(nullptr);
    for (int i = 0; i < 32; ++i) {
      if (with_y) faults.on_operation("site.y", "k", &no_payload);
      fired.push_back(faults.on_operation("site.x", "k", &no_payload).fail);
    }
    return fired;
  };
  EXPECT_EQ(x_decisions(false), x_decisions(true));
}

TEST(FaultPlan, RevokeSpotBuilderCarriesTheNoticeWindow) {
  FaultPlan plan;
  plan.revoke_spot("cloud.fleet.revoke_spot", /*budget=*/2, /*probability=*/0.5,
                   /*notice=*/90.0);
  ASSERT_EQ(plan.rules.size(), 1u);
  EXPECT_EQ(plan.rules[0].action, FaultAction::kRevokeSpot);
  EXPECT_EQ(plan.rules[0].budget, 2);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.5);
  EXPECT_DOUBLE_EQ(plan.rules[0].delay, 90.0);  // notice rides the delay field
  const std::string s = plan.summary();
  EXPECT_NE(s.find("revoke_spot"), std::string::npos);
  EXPECT_NE(s.find("notice 90s"), std::string::npos);
}

TEST(FaultPlan, RevokeSpotRejectsNegativeNotice) {
  FaultPlan plan;
  EXPECT_THROW(plan.revoke_spot("s", 1, 1.0, /*notice=*/-1.0), InvalidArgument);
}

TEST(FaultPlan, DelayAndRevokeSpotRejectNonFiniteDurations) {
  // An infinite stall would reach std::this_thread::sleep_for.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FaultPlan plan;
  EXPECT_THROW(plan.delay("s", inf), InvalidArgument);
  EXPECT_THROW(plan.delay("s", nan), InvalidArgument);
  EXPECT_THROW(plan.revoke_spot("s", 1, 1.0, /*notice=*/inf), InvalidArgument);
  EXPECT_THROW(plan.revoke_spot("s", 1, 1.0, /*notice=*/nan), InvalidArgument);
  EXPECT_TRUE(plan.rules.empty());
}

TEST(FaultPlan, FireRevocationReturnsTheNoticeWindow) {
  FaultPlan plan;
  plan.revoke_spot("fleet.revoke", /*budget=*/1, /*probability=*/1.0, /*notice=*/60.0);
  FaultInjector faults;
  faults.arm_plan(plan);
  const FaultInjector::Outcome first = faults.decide("fleet.revoke");
  EXPECT_TRUE(first.revoke);
  EXPECT_DOUBLE_EQ(first.revoke_notice, 60.0);
  EXPECT_EQ(faults.total_revocations(), 1);
  // An unhonoured revocation is a crash as far as the worker is concerned.
  EXPECT_EQ(faults.total_crashes(), 1);
  // Budget spent: the next firing revokes nothing.
  EXPECT_FALSE(faults.decide("fleet.revoke").revoke);
  EXPECT_EQ(faults.total_revocations(), 1);
}

TEST(FaultPlan, RevokeSpotViaFireKillsTheWorker) {
  // Chaos sites without an elastic driver script revocation-shaped kills
  // through plain fire(): a revoke_spot rule behaves as a crash there.
  FaultPlan plan;
  plan.revoke_spot("w.map_attempt", /*budget=*/1, /*probability=*/1.0, /*notice=*/0.0);
  FaultInjector faults;
  faults.arm_plan(plan);
  EXPECT_TRUE(faults.fire("w.map_attempt", "t1"));
  EXPECT_EQ(faults.total_revocations(), 1);
  EXPECT_FALSE(faults.fire("w.map_attempt", "t2"));
}

TEST(FaultPlan, RevokeSpotIgnoresServiceOperations) {
  // A storage/queue operation cannot lose its instance: revoke rules stay
  // armed but inert on the hook surface, live on the lifecycle surface.
  FaultPlan plan;
  plan.revoke_spot("q.receive", /*budget=*/-1, /*probability=*/1.0, /*notice=*/30.0);
  FaultInjector faults;
  faults.arm_plan(plan);
  PayloadRef no_payload(nullptr);
  const FaultDecision d = faults.on_operation("q.receive", "m", &no_payload);
  EXPECT_FALSE(d.fail);
  EXPECT_EQ(faults.total_revocations(), 0);
  EXPECT_DOUBLE_EQ(faults.decide("q.receive").revoke_notice, 30.0);
  EXPECT_EQ(faults.total_revocations(), 1);
}

TEST(FaultPlan, ResetDisarmsPlanRules) {
  FaultPlan plan;
  plan.error("s", "e", /*budget=*/-1);
  FaultInjector faults;
  faults.arm_plan(plan);
  PayloadRef no_payload(nullptr);
  EXPECT_TRUE(faults.on_operation("s", "k", &no_payload).fail);
  faults.reset();
  EXPECT_FALSE(faults.on_operation("s", "k", &no_payload).fail);
  EXPECT_EQ(faults.total_errors(), 0);  // counters zeroed too
}

}  // namespace
}  // namespace ppc::runtime
