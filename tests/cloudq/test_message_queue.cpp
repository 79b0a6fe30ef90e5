#include "cloudq/message_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/clock.h"
#include "common/crc32c.h"
#include "common/error.h"

namespace ppc::cloudq {
namespace {

class MessageQueueTest : public ::testing::Test {
 protected:
  std::shared_ptr<ManualClock> clock_ = std::make_shared<ManualClock>();

  MessageQueue make_queue(QueueConfig config = {}) {
    return MessageQueue("q", clock_, config, Rng(1));
  }
};

TEST_F(MessageQueueTest, SendThenReceiveRoundTrips) {
  auto q = make_queue();
  const std::string id = q.send("hello");
  const auto msg = q.receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->body(), "hello");
  EXPECT_EQ(msg->id, id);
  EXPECT_EQ(msg->receive_count, 1);
}

TEST_F(MessageQueueTest, DeliveryAliasesStoredBody) {
  auto q = make_queue();
  q.send("payload");
  const auto first = q.receive(5.0);
  ASSERT_TRUE(first.has_value());
  clock_->advance(5.0);
  const auto second = q.receive();  // redelivery of the same message
  ASSERT_TRUE(second.has_value());
  // Zero-copy: every delivery aliases the one stored body.
  EXPECT_EQ(first->payload.get(), second->payload.get());
  EXPECT_EQ(second->body(), "payload");
}

TEST_F(MessageQueueTest, EmptyQueueReturnsNothing) {
  auto q = make_queue();
  EXPECT_FALSE(q.receive().has_value());
}

TEST_F(MessageQueueTest, ReceivedMessageIsHiddenUntilTimeout) {
  auto q = make_queue();
  q.send("x");
  ASSERT_TRUE(q.receive(10.0).has_value());
  EXPECT_FALSE(q.receive().has_value());  // hidden
  EXPECT_EQ(q.in_flight(), 1u);
  clock_->advance(10.0);
  const auto again = q.receive();  // visibility timeout lapsed: redelivered
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->receive_count, 2);
}

TEST_F(MessageQueueTest, DeleteWithCurrentReceiptSucceeds) {
  auto q = make_queue();
  q.send("x");
  const auto msg = q.receive();
  EXPECT_TRUE(q.delete_message(msg->receipt_handle));
  clock_->advance(1000.0);
  EXPECT_FALSE(q.receive().has_value());
  EXPECT_EQ(q.undeleted(), 0u);
}

TEST_F(MessageQueueTest, DeleteAfterTimeoutIsSuppressedAsStale) {
  // Once the visibility timeout lapses the message is deliverable again, so
  // honoring the delete would race a concurrent redelivery. The delete is a
  // detected no-op and the message stays live for the next reader.
  auto q = make_queue();
  q.send("x");
  const auto msg = q.receive(5.0);
  clock_->advance(6.0);  // timed out, but nobody else picked it up
  EXPECT_FALSE(q.delete_message(msg->receipt_handle));
  EXPECT_EQ(q.meter().stale_deletes, 1u);
  const auto again = q.receive(5.0);  // still deliverable
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(q.delete_message(again->receipt_handle));
}

TEST_F(MessageQueueTest, StaleReceiptAfterRedeliveryFails) {
  auto q = make_queue();
  q.send("x");
  const auto first = q.receive(5.0);
  clock_->advance(6.0);
  const auto second = q.receive(5.0);  // redelivery supersedes the receipt
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(q.delete_message(first->receipt_handle));
  EXPECT_TRUE(q.delete_message(second->receipt_handle));
}

TEST_F(MessageQueueTest, DoubleDeleteFails) {
  auto q = make_queue();
  q.send("x");
  const auto msg = q.receive();
  EXPECT_TRUE(q.delete_message(msg->receipt_handle));
  EXPECT_FALSE(q.delete_message(msg->receipt_handle));
}

TEST_F(MessageQueueTest, GarbageReceiptFailsGracefully) {
  auto q = make_queue();
  EXPECT_FALSE(q.delete_message("not-a-receipt"));
  EXPECT_FALSE(q.delete_message("r-99-99"));
  EXPECT_FALSE(q.change_visibility("r-xyz", 5.0));
}

TEST_F(MessageQueueTest, ChangeVisibilityExtendsHiding) {
  auto q = make_queue();
  q.send("x");
  const auto msg = q.receive(5.0);
  EXPECT_TRUE(q.change_visibility(msg->receipt_handle, 100.0));
  clock_->advance(50.0);
  EXPECT_FALSE(q.receive().has_value());  // still hidden
  clock_->advance(51.0);
  EXPECT_TRUE(q.receive().has_value());
}

TEST_F(MessageQueueTest, ChangeVisibilityToZeroMakesVisibleNow) {
  auto q = make_queue();
  q.send("x");
  const auto msg = q.receive(100.0);
  EXPECT_TRUE(q.change_visibility(msg->receipt_handle, 0.0));
  EXPECT_TRUE(q.receive().has_value());
}

TEST_F(MessageQueueTest, VisibilityLagDelaysNewMessages) {
  QueueConfig config;
  config.visibility_lag_mean = 10.0;
  auto q = make_queue(config);
  for (int i = 0; i < 20; ++i) q.send("m");
  const std::size_t immediately = q.approximate_visible();
  EXPECT_LT(immediately, 20u);  // eventual consistency: not all visible yet
  clock_->advance(1000.0);
  EXPECT_EQ(q.approximate_visible(), 20u);  // eventual availability
}

TEST_F(MessageQueueTest, ReceiveMissesUnderEventualConsistency) {
  QueueConfig config;
  config.receive_miss_prob = 0.5;
  auto q = make_queue(config);
  for (int i = 0; i < 50; ++i) q.send("m");
  int misses = 0, delivered = 0;
  for (int i = 0; i < 100000 && delivered < 50; ++i) {
    const auto got = q.receive(1e6);
    if (got) {
      ++delivered;
      q.delete_message(got->receipt_handle);
    } else {
      ++misses;
    }
  }
  EXPECT_EQ(delivered, 50) << "eventual availability over multiple requests";
  EXPECT_GT(misses, 10) << "~half the requests should miss at p=0.5";
}

TEST_F(MessageQueueTest, DuplicateDeliveryLeavesMessageVisible) {
  QueueConfig config;
  config.duplicate_delivery_prob = 1.0;  // always duplicate
  auto q = make_queue(config);
  q.send("m");
  const auto a = q.receive(100.0);
  const auto b = q.receive(100.0);  // still visible: duplicate delivery
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->id, b->id);
  EXPECT_NE(a->receipt_handle, b->receipt_handle);
  // The first receipt was superseded by the second delivery; the second is
  // current but the message is still visible, so its delete is suppressed
  // as stale (it would race another redelivery).
  EXPECT_FALSE(q.delete_message(a->receipt_handle));
  EXPECT_FALSE(q.delete_message(b->receipt_handle));
  EXPECT_EQ(q.meter().stale_deletes, 1u);  // only b's receipt resolved
  // The current receipt can still claim the message: hide it first, then
  // the delete is honored.
  EXPECT_TRUE(q.change_visibility(b->receipt_handle, 50.0));
  EXPECT_TRUE(q.delete_message(b->receipt_handle));
}

TEST_F(MessageQueueTest, UnorderedDelivery) {
  auto q = make_queue();
  for (int i = 0; i < 30; ++i) q.send(std::to_string(i));
  std::vector<std::string> order, insertion;
  for (int i = 0; i < 30; ++i) insertion.push_back(std::to_string(i));
  for (int i = 0; i < 30; ++i) {
    const auto msg = q.receive(1000.0);
    ASSERT_TRUE(msg.has_value());
    order.push_back(msg->body());
  }
  EXPECT_NE(order, insertion) << "queue should not guarantee FIFO order";
  EXPECT_EQ(std::set<std::string>(order.begin(), order.end()).size(), 30u)
      << "every message delivered exactly once while hidden";
}

TEST_F(MessageQueueTest, BatchSendDeliversEveryMessage) {
  auto q = make_queue();
  std::vector<std::string> bodies;
  for (int i = 0; i < 25; ++i) bodies.push_back("m" + std::to_string(i));
  const auto ids = q.send_batch(bodies);
  EXPECT_EQ(ids.size(), 25u);
  EXPECT_EQ(std::set<std::string>(ids.begin(), ids.end()).size(), 25u);
  std::set<std::string> received;
  for (int i = 0; i < 25; ++i) {
    const auto msg = q.receive(1000.0);
    ASSERT_TRUE(msg.has_value());
    received.insert(msg->body());
  }
  EXPECT_EQ(received.size(), 25u);
}

TEST_F(MessageQueueTest, BatchSendBillsOneRequestPerTenMessages) {
  auto q = make_queue();
  q.send_batch(std::vector<std::string>(25, "m"));
  EXPECT_EQ(q.meter().sends, 3u);  // ceil(25 / 10)
  q.send_batch({"single"});
  EXPECT_EQ(q.meter().sends, 4u);
}

TEST_F(MessageQueueTest, DeliveriesCarryTheBodyChecksum) {
  auto q = make_queue();
  q.send("payload");
  const auto msg = q.receive();
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(msg->body_checksum.has_value());
  EXPECT_EQ(*msg->body_checksum, ppc::crc32c("payload"));
  EXPECT_TRUE(msg->intact());
}

TEST(MessageIntact, ZeroIsAChecksumNotAnUnknownSentinel) {
  // About one body in 2^32 has CRC32C 0; a corrupted delivery of such a
  // body must still fail intact(). Only an absent checksum (a hand-built
  // message) skips the check.
  Message m;
  m.payload = std::make_shared<const std::string>("flipped bytes");
  ASSERT_NE(ppc::crc32c(*m.payload), 0u);
  m.body_checksum = 0;
  EXPECT_FALSE(m.intact());
  m.body_checksum = ppc::crc32c(*m.payload);
  EXPECT_TRUE(m.intact());
  m.body_checksum.reset();
  EXPECT_TRUE(m.intact());
}

TEST_F(MessageQueueTest, BatchSendRejectsEmptyBatch) {
  auto q = make_queue();
  EXPECT_THROW(q.send_batch({}), ppc::InvalidArgument);
}

TEST_F(MessageQueueTest, MeterCountsRequests) {
  auto q = make_queue();
  q.send("a");
  q.send("b");
  const auto m1 = q.receive();
  q.delete_message(m1->receipt_handle);
  (void)q.receive();
  const auto meter = q.meter();
  EXPECT_EQ(meter.sends, 2u);
  EXPECT_EQ(meter.receives, 2u);
  EXPECT_EQ(meter.deletes, 1u);
  EXPECT_EQ(meter.total(), 5u);
}

TEST_F(MessageQueueTest, RequestCostMatchesSqsPricing) {
  auto q = make_queue();
  for (int i = 0; i < 10000; ++i) q.send("m");
  EXPECT_NEAR(q.request_cost(), 0.01, 1e-9);  // $0.01 per 10k requests
}

TEST_F(MessageQueueTest, RejectsInvalidConfig) {
  QueueConfig bad;
  bad.default_visibility_timeout = 0.0;
  EXPECT_THROW(MessageQueue("q", clock_, bad), ppc::InvalidArgument);
}

TEST_F(MessageQueueTest, RejectsNonPositiveReceiveTimeout) {
  auto q = make_queue();
  q.send("m");
  EXPECT_THROW(q.receive(0.0), ppc::InvalidArgument);
}

}  // namespace
}  // namespace ppc::cloudq
