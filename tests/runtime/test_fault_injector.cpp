#include "runtime/fault_injector.h"

#include <gtest/gtest.h>

#include <chrono>

namespace ppc::runtime {
namespace {

TEST(FaultInjector, UnarmedSiteNeverCrashesButCountsHits) {
  FaultInjector faults;
  EXPECT_FALSE(faults.fire("some.site", "k"));
  EXPECT_FALSE(faults.fire("some.site"));
  EXPECT_EQ(faults.hits("some.site"), 2);
  EXPECT_EQ(faults.crashes("some.site"), 0);
  EXPECT_EQ(faults.hits("never.fired"), 0);
}

TEST(FaultInjector, CrashOnceFiresExactlyOnce) {
  FaultInjector faults;
  faults.arm_plan(FaultPlan{}.crash("w.after_execute"));
  EXPECT_TRUE(faults.fire("w.after_execute", "t1"));
  EXPECT_FALSE(faults.fire("w.after_execute", "t2"));
  EXPECT_FALSE(faults.fire("w.after_execute", "t3"));
  EXPECT_EQ(faults.crashes("w.after_execute"), 1);
  EXPECT_EQ(faults.hits("w.after_execute"), 3);
}

TEST(FaultInjector, CrashTimesSpendsItsBudget) {
  FaultInjector faults;
  faults.arm_plan(FaultPlan{}.crash("s", /*budget=*/2));
  EXPECT_TRUE(faults.fire("s"));
  EXPECT_TRUE(faults.fire("s"));
  EXPECT_FALSE(faults.fire("s"));
  EXPECT_EQ(faults.crashes("s"), 2);
}

TEST(FaultInjector, CrashAlwaysNeverDisarms) {
  FaultInjector faults;
  faults.arm_plan(FaultPlan{}.crash("s", /*budget=*/-1));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(faults.fire("s"));
  EXPECT_EQ(faults.crashes("s"), 5);
  EXPECT_EQ(faults.total_crashes(), 5);
}

TEST(FaultInjector, ErrorTimesThrowsInjectedFaultThenDisarms) {
  FaultInjector faults;
  faults.arm_plan(FaultPlan{}.error("s", "synthetic outage", /*budget=*/2));
  EXPECT_THROW(faults.fire("s"), InjectedFault);
  try {
    faults.fire("s");
    FAIL() << "second firing must still throw";
  } catch (const ppc::Error& e) {  // InjectedFault is a ppc::Error
    EXPECT_NE(std::string(e.what()).find("synthetic outage"), std::string::npos);
  }
  EXPECT_FALSE(faults.fire("s"));  // budget spent
  EXPECT_EQ(faults.hits("s"), 3);
}

TEST(FaultInjector, DelayBlocksTheCaller) {
  FaultInjector faults;
  faults.arm_plan(FaultPlan{}.delay("s", 0.03, /*budget=*/1));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(faults.fire("s"));
  const auto first = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration<double>(first).count(), 0.025);

  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_FALSE(faults.fire("s"));  // budget spent: no sleep
  const auto second = std::chrono::steady_clock::now() - t1;
  EXPECT_LT(std::chrono::duration<double>(second).count(), 0.02);
}

TEST(FaultInjector, ArmingsOnDistinctSitesAreIndependent) {
  FaultInjector faults;
  faults.arm_plan(FaultPlan{}.crash("a").crash("b"));
  EXPECT_TRUE(faults.fire("a"));
  EXPECT_TRUE(faults.fire("b"));
  EXPECT_EQ(faults.total_crashes(), 2);
}

TEST(FaultInjector, ResetDisarmsAndZeroesEverything) {
  FaultInjector faults;
  faults.arm_plan(FaultPlan{}.crash("s", /*budget=*/-1));
  EXPECT_TRUE(faults.fire("s"));
  faults.reset();
  EXPECT_FALSE(faults.fire("s"));
  EXPECT_EQ(faults.hits("s"), 1);  // only the post-reset firing
  EXPECT_EQ(faults.crashes("s"), 0);
  EXPECT_EQ(faults.total_crashes(), 0);
}

}  // namespace
}  // namespace ppc::runtime
