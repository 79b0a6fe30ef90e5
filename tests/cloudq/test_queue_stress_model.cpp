// Randomized stress of the sharded MPMC queue, pinned to the single-lock
// configuration as the reference model. Sharding may reorder deliveries
// (each stripe has its own RNG stream), so the pin is on order-independent
// aggregates, which the semantics guarantee regardless of stripe count:
// conservation (sent == deleted + DLQ + undeleted), at-least-once (every
// body delivered), and the DLQ verdict per poison message. Each seed draws
// a different workload shape; the multi-threaded variant runs the same
// randomized batch traffic under real contention (TSan-clean by
// construction: all cross-thread state is the queue itself plus atomics).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cloudq/message_queue.h"
#include "common/clock.h"
#include "common/rng.h"

namespace ppc::cloudq {
namespace {

/// Per-seed workload plan: which messages are poison (never complete, must
/// end in the DLQ) and how many deliveries the rest abandon before
/// completing. Derived from the seed only, so the sharded and single-lock
/// runs see the identical plan.
struct StressPlan {
  int messages = 0;
  int max_receive_count = 0;  // DLQ redrive threshold
  std::vector<bool> poison;
  std::vector<int> abandons_before_done;

  static StressPlan make(unsigned seed) {
    Rng rng(seed);
    StressPlan plan;
    plan.messages = 40 + static_cast<int>(rng.uniform(0.0, 160.0));
    plan.max_receive_count = 3 + static_cast<int>(rng.uniform(0.0, 3.0));
    plan.poison.resize(static_cast<std::size_t>(plan.messages));
    plan.abandons_before_done.resize(static_cast<std::size_t>(plan.messages));
    for (int i = 0; i < plan.messages; ++i) {
      plan.poison[static_cast<std::size_t>(i)] = rng.uniform(0.0, 1.0) < 0.15;
      // Non-poison messages abandon at most max_receive_count - 1 attempts,
      // so they always complete before the redrive sweep claims them.
      plan.abandons_before_done[static_cast<std::size_t>(i)] =
          static_cast<int>(rng.uniform(0.0, static_cast<double>(plan.max_receive_count - 1)));
    }
    return plan;
  }
};

struct StressOutcome {
  std::uint64_t deleted = 0;
  std::uint64_t dlq = 0;
  std::uint64_t undeleted = 0;
  std::set<std::string> delivered_bodies;
};

/// Drives one queue (however many shards) through the plan on a manual
/// clock, single-threaded: receive in random-sized batches, abandon or
/// delete per the plan, advance time to expire visibility windows until the
/// queue reaches its fixed point.
StressOutcome drive(int shards, const StressPlan& plan, unsigned seed) {
  auto clock = std::make_shared<ManualClock>();
  QueueConfig config;
  config.shards = shards;
  config.default_visibility_timeout = 5.0;
  MessageQueue queue("stress", clock, config, Rng(seed * 7919));
  auto dlq = std::make_shared<MessageQueue>("stress-dlq", clock, config, Rng(seed * 104729));
  queue.enable_dead_letter(dlq, plan.max_receive_count);

  {
    std::vector<std::string> bodies;
    for (int i = 0; i < plan.messages; ++i) {
      bodies.push_back(std::to_string(i));
      if (bodies.size() == MessageQueue::kBatchLimit) {
        queue.send_batch(bodies);
        bodies.clear();
      }
    }
    if (!bodies.empty()) queue.send_batch(bodies);
  }

  Rng rng(seed * 31337);
  StressOutcome out;
  std::vector<Message> batch;
  std::vector<std::string> acks;
  std::vector<int> seen(static_cast<std::size_t>(plan.messages), 0);
  int idle_rounds = 0;
  while (idle_rounds < 3) {
    batch.clear();
    const auto want = static_cast<std::size_t>(1 + rng.uniform(0.0, 9.0));
    if (queue.receive_batch(want, 5.0, batch) == 0) {
      // Nothing visible: either drained, or everything is hidden. Advance
      // past the visibility window so abandoned deliveries resurface and
      // the redrive sweep can claim exhausted ones.
      clock->advance(6.0);
      ++idle_rounds;
      continue;
    }
    idle_rounds = 0;
    acks.clear();
    for (Message& m : batch) {
      const auto id = static_cast<std::size_t>(std::stoi(m.body()));
      out.delivered_bodies.insert(m.body());
      ++seen[id];
      if (plan.poison[id]) continue;  // abandon forever -> DLQ
      if (seen[id] <= plan.abandons_before_done[id]) continue;  // transient failure
      acks.push_back(m.receipt_handle);
    }
    if (!acks.empty()) out.deleted += queue.delete_batch(acks);
  }
  out.dlq = dlq->undeleted();
  out.undeleted = queue.undeleted();
  return out;
}

TEST(QueueStressModel, ShardedMatchesSingleLockReferenceAcrossSeeds) {
  for (const unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const StressPlan plan = StressPlan::make(seed);
    const StressOutcome reference = drive(/*shards=*/1, plan, seed);
    const StressOutcome sharded = drive(/*shards=*/8, plan, seed);

    std::uint64_t expected_poison = 0;
    for (const bool p : plan.poison) expected_poison += p ? 1 : 0;

    for (const StressOutcome* out : {&reference, &sharded}) {
      // Conservation: every sent message is exactly one of deleted / DLQ'd.
      EXPECT_EQ(out->deleted + out->dlq, static_cast<std::uint64_t>(plan.messages));
      EXPECT_EQ(out->undeleted, 0u) << "main queue must reach its fixed point";
      // At-least-once: every body was delivered to the consumer.
      EXPECT_EQ(out->delivered_bodies.size(), static_cast<std::size_t>(plan.messages));
      // The DLQ verdict is per message (poison or not), so the count is
      // delivery-order independent.
      EXPECT_EQ(out->dlq, expected_poison);
    }
    EXPECT_EQ(sharded.deleted, reference.deleted);
    EXPECT_EQ(sharded.dlq, reference.dlq);
  }
}

TEST(QueueStressModel, RandomizedThreadsConserveMessagesAcrossSeeds) {
  for (const unsigned seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto clock = std::make_shared<SystemClock>();
    QueueConfig config;
    config.shards = 8;
    MessageQueue queue("stress-mt", clock, config, Rng(seed));
    constexpr int kProducers = 3, kConsumers = 3, kPerProducer = 300;
    constexpr int kTotal = kProducers * kPerProducer;

    std::atomic<int> deleted{0};
    // Messages whose send_batch has returned. A consumer that finds the
    // queue empty waits for this to move instead of polling the queue, so
    // empty receives are bounded by the number of send batches, not by
    // how the scheduler interleaves the threads.
    std::atomic<int> sent{0};
    std::mutex seen_mu;
    std::set<std::string> seen_bodies;
    {
      std::vector<std::jthread> threads;
      for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&queue, &sent, p, seed] {
          Rng rng(seed * 1000 + static_cast<unsigned>(p));
          std::vector<std::string> bodies;
          for (int i = 0; i < kPerProducer;) {
            bodies.clear();
            const int batch = 1 + static_cast<int>(rng.uniform(0.0, 9.0));
            for (int j = 0; j < batch && i < kPerProducer; ++j, ++i) {
              bodies.push_back("p" + std::to_string(p) + "-" + std::to_string(i));
            }
            queue.send_batch(bodies);
            sent.fetch_add(static_cast<int>(bodies.size()));
            sent.notify_all();
          }
        });
      }
      for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&, c] {
          Rng rng(seed * 2000 + static_cast<unsigned>(c));
          std::vector<Message> batch;
          std::vector<std::string> acks;
          while (deleted.load(std::memory_order_relaxed) < kTotal) {
            batch.clear();
            const auto want = static_cast<std::size_t>(1 + rng.uniform(0.0, 9.0));
            const int sent_before = sent.load();
            if (queue.receive_batch(want, 60.0, batch) == 0) {
              // Nothing visible in any shard: every message sent so far is
              // in flight or deleted, and none times out within 60 s. Once
              // all are sent, no message can become visible again.
              if (sent_before == kTotal) break;
              sent.wait(sent_before);
              continue;
            }
            acks.clear();
            for (Message& m : batch) {
              {
                std::lock_guard lock(seen_mu);
                seen_bodies.insert(m.body());
              }
              acks.push_back(std::move(m.receipt_handle));
            }
            deleted.fetch_add(static_cast<int>(queue.delete_batch(acks)),
                              std::memory_order_relaxed);
          }
        });
      }
    }

    EXPECT_EQ(deleted.load(), kTotal);
    EXPECT_EQ(seen_bodies.size(), static_cast<std::size_t>(kTotal));
    EXPECT_EQ(queue.undeleted(), 0u);
    const RequestMeter meter = queue.meter();
    EXPECT_EQ(meter.messages_sent, static_cast<std::uint64_t>(kTotal));
    EXPECT_EQ(meter.messages_deleted, static_cast<std::uint64_t>(kTotal));
    EXPECT_GT(meter.batch_occupancy(), 1.0) << "batched traffic must actually batch";
  }
}

}  // namespace
}  // namespace ppc::cloudq
