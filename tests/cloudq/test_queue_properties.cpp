// Property-style suites over the message queue: whatever the consistency
// anomalies, the at-least-once contract must hold — every message is
// eventually deliverable until deleted, and the "delete only after
// completion" discipline never loses a task.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>

#include "cloudq/message_queue.h"
#include "common/clock.h"

namespace ppc::cloudq {
namespace {

struct AnomalyParams {
  std::string name;
  double visibility_lag_mean;
  double duplicate_prob;
  double miss_prob;
};

// Without this gtest prints the raw bytes of the struct, heap pointer
// included, so the test names ctest records would change with every build.
void PrintTo(const AnomalyParams& p, std::ostream* os) {
  *os << p.name << " (lag " << p.visibility_lag_mean << " s, duplicate " << p.duplicate_prob
      << ", miss " << p.miss_prob << ")";
}

class QueueAnomalyProperty : public ::testing::TestWithParam<AnomalyParams> {};

/// A worker loop that receives, "processes", and deletes — under every
/// anomaly mix, all messages must be processed at least once and the queue
/// must drain.
TEST_P(QueueAnomalyProperty, AtLeastOnceAndEventualDrain) {
  const AnomalyParams& p = GetParam();
  auto clock = std::make_shared<ppc::ManualClock>();
  QueueConfig config;
  config.visibility_lag_mean = p.visibility_lag_mean;
  config.duplicate_delivery_prob = p.duplicate_prob;
  config.receive_miss_prob = p.miss_prob;
  MessageQueue q("q", clock, config, ppc::Rng(GetParam().name.size() + 17));

  constexpr int kMessages = 50;
  std::set<std::string> sent;
  for (int i = 0; i < kMessages; ++i) sent.insert(q.send("task-" + std::to_string(i)));

  std::map<std::string, int> processed;
  int safety = 0;
  while (q.undeleted() > 0 && ++safety < 100000) {
    const auto msg = q.receive(5.0);
    if (!msg) {
      clock->advance(1.0);
      continue;
    }
    ++processed[msg->id];
    q.delete_message(msg->receipt_handle);
    clock->advance(0.1);
  }
  EXPECT_EQ(q.undeleted(), 0u) << "queue must eventually drain";
  for (const std::string& id : sent) {
    EXPECT_GE(processed[id], 1) << "message " << id << " never processed";
  }
}

/// Without deletes, messages keep reappearing forever (no silent loss).
TEST_P(QueueAnomalyProperty, UndeletedMessagesAlwaysReappear) {
  const AnomalyParams& p = GetParam();
  auto clock = std::make_shared<ppc::ManualClock>();
  QueueConfig config;
  config.visibility_lag_mean = p.visibility_lag_mean;
  config.duplicate_delivery_prob = p.duplicate_prob;
  config.receive_miss_prob = p.miss_prob;
  MessageQueue q("q", clock, config, ppc::Rng(7));

  q.send("immortal");
  int deliveries = 0;
  for (int round = 0; round < 200; ++round) {
    const auto msg = q.receive(1.0);
    if (msg) ++deliveries;
    clock->advance(2.0);  // lapse the visibility timeout
  }
  EXPECT_GE(deliveries, 10) << "an undeleted message must keep resurfacing";
  EXPECT_EQ(q.undeleted(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AnomalyMixes, QueueAnomalyProperty,
    ::testing::Values(AnomalyParams{"strong", 0.0, 0.0, 0.0},
                      AnomalyParams{"lagged", 2.0, 0.0, 0.0},
                      AnomalyParams{"duplicating", 0.0, 0.2, 0.0},
                      AnomalyParams{"missing", 0.0, 0.0, 0.3},
                      AnomalyParams{"hostile", 2.0, 0.2, 0.3}),
    [](const ::testing::TestParamInfo<AnomalyParams>& info) { return info.param.name; });

/// Visibility-timeout sweep: shorter timeouts produce more redeliveries for
/// slow consumers, never fewer.
class VisibilityTimeoutProperty : public ::testing::TestWithParam<double> {};

TEST_P(VisibilityTimeoutProperty, SlowConsumerSeesRedeliveryIffTimeoutTooShort) {
  auto clock = std::make_shared<ppc::ManualClock>();
  MessageQueue q("q", clock, {}, ppc::Rng(3));
  q.send("slow-task");
  const double timeout = GetParam();
  const double processing_time = 10.0;

  const auto first = q.receive(timeout);
  ASSERT_TRUE(first.has_value());
  clock->advance(processing_time);  // consumer is busy processing
  const auto second = q.receive(timeout);
  if (timeout < processing_time) {
    EXPECT_TRUE(second.has_value()) << "timed-out message must be redeliverable";
  } else {
    EXPECT_FALSE(second.has_value()) << "message still hidden within its timeout";
  }
}

INSTANTIATE_TEST_SUITE_P(Timeouts, VisibilityTimeoutProperty,
                         ::testing::Values(1.0, 5.0, 9.9, 10.5, 60.0));

}  // namespace
}  // namespace ppc::cloudq
