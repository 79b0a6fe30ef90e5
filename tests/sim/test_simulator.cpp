#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace ppc::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(3.0, [&] { order.push_back(3); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator sim;
  Seconds seen = -1.0;
  sim.after(2.0, [&] {
    sim.after(3.0, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  auto clock = sim.clock();
  Seconds mid = -1.0;
  sim.at(4.0, [&] { mid = clock->now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(mid, 4.0);
}

TEST(Simulator, EventsPendingLeavesOutTheRunningEvent) {
  Simulator sim;
  std::vector<std::size_t> seen;
  sim.at(1.0, [&] { seen.push_back(sim.events_pending()); });
  sim.at(2.0, [&] {
    seen.push_back(sim.events_pending());
    sim.after(1.0, [&] { seen.push_back(sim.events_pending()); });
    seen.push_back(sim.events_pending());
  });
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 0, 1, 0}));
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, RejectsPastEvents) {
  Simulator sim;
  sim.at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(4.0, [] {}), ppc::InvalidArgument);
  EXPECT_THROW(sim.after(-1.0, [] {}), ppc::InvalidArgument);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 10) sim.after(1.0, step);
  };
  sim.after(1.0, step);
  sim.run();
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, ThrowingEventPropagatesButLeavesSimulatorUsable) {
  Simulator sim;
  bool later_ran = false;
  sim.at(1.0, [] { throw std::runtime_error("event failed"); });
  sim.at(2.0, [&] { later_ran = true; });
  EXPECT_THROW(sim.run(), std::runtime_error);
  // The failing event was consumed; the rest of the timeline still works.
  sim.run();
  EXPECT_TRUE(later_ran);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

}  // namespace
}  // namespace ppc::sim
