// In-process reproduction of the queue service the paper's Classic Cloud
// framework schedules through (Amazon SQS / Azure Queue, §2.1.1, §2.1.3).
//
// Semantics reproduced:
//  * at-least-once delivery — a received message is hidden, not removed; it
//    reappears when its visibility timeout lapses without a delete;
//  * unordered delivery — receive() samples a random visible message;
//  * eventual consistency — a freshly sent message may take a moment to
//    become visible, and a receive may miss visible messages entirely
//    ("SQS does not guarantee ... the availability of all the messages for a
//    request, though it does guarantee eventual availability over multiple
//    requests");
//  * occasional duplicate delivery — with small probability a delivered
//    message is left visible so another reader can obtain it concurrently;
//  * stale receipts — deleting with a receipt that has been superseded by a
//    redelivery, or whose visibility timeout has already lapsed (the message
//    is back in the queue and may be redelivered at any moment), fails; this
//    is exactly what makes idempotent tasks a requirement in the paper's
//    fault-tolerance story;
//  * dead-letter queues — with enable_dead_letter(), a message delivered
//    max_receive_count times without a delete is moved to a companion queue
//    on the next receive sweep (the SQS redrive policy), which is how poison
//    tasks stop livelocking a worker pool;
//  * body checksums — deliveries carry the CRC32C of the stored body (our
//    MD5OfBody), so receivers can detect payloads corrupted in flight;
//  * batch APIs — send_batch / receive_batch / delete_batch move up to
//    kBatchLimit messages per API request (SQS SendMessageBatch /
//    ReceiveMessage MaxNumberOfMessages / DeleteMessageBatch), which is what
//    keeps a million-task campaign at ~100k queue requests instead of 3M;
//  * request metering — SQS bills per API request; the meter counts both
//    requests and messages moved, so billing can price the batching win
//    (Table 4's "Queue messages (~10,000) : $0.01" line).
//
// Storage layout: the queue is sharded (QueueConfig::shards) into
// independently locked stripes. Each shard owns a slab of message slots with
// a striped free-list (deleted slots are recycled — the envelope pool), a
// ready list of visible slots for O(1) uniform sampling, and a min-heap of
// hidden slots keyed by visible-at time so expiry is O(log n) per message
// instead of an O(n) scan per receive. Producers round-robin across shards;
// receive sweeps shards starting from a rotating cursor (work stealing), so
// concurrent pollers fan out instead of convoying on one lock. shards=1
// reproduces the single-lock service exactly (same RNG stream, same billing).
//
// Thread-safe. Time comes from an injected ppc::Clock so the very same class
// backs both the real-thread workers (tests/examples) and the discrete-event
// simulation (figure benches).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/crc32c.h"
#include "common/fault_hook.h"
#include "common/rng.h"
#include "common/trace_hook.h"
#include "common/units.h"

namespace ppc::cloudq {

struct QueueConfig {
  /// Hidden period applied by receive() when the caller does not override it.
  Seconds default_visibility_timeout = 30.0;

  /// Mean delay (exponential) before a sent message becomes visible.
  /// 0 disables the lag (strong consistency).
  Seconds visibility_lag_mean = 0.0;

  /// Probability that a delivered message is *also* left visible, modeling
  /// SQS's rare duplicate delivery. The duplicate copy carries its own
  /// receipt; whichever delete arrives first wins.
  double duplicate_delivery_prob = 0.0;

  /// Probability that a receive() returns empty even though visible messages
  /// exist (a single request does not see the whole distributed queue).
  double receive_miss_prob = 0.0;

  /// 2010-era SQS pricing: $0.01 per 10,000 API requests.
  Dollars cost_per_10k_requests = 0.01;

  /// Independently locked stripes. 1 (the default) is the single-lock
  /// service with today's exact RNG stream; >1 trades per-request global
  /// ordering (the redrive sweep and miss model act per visited shard) for
  /// MPMC scalability. Sharding never weakens the delivery guarantees:
  /// at-least-once, visibility timeouts, stale receipts, and DLQ redrive
  /// hold per message regardless of stripe count.
  int shards = 1;
};

/// A delivered message. `receipt_handle` must be presented to delete_message.
struct Message {
  std::string id;
  /// Shared immutable body: aliases the queue's stored payload, so a receive
  /// (and every redelivery) is zero-copy. A delivery corrupted by a fault
  /// hook carries a private flipped copy instead — intact() exposes it.
  std::shared_ptr<const std::string> payload;
  std::string receipt_handle;
  int receive_count = 0;  // how many times this message has been delivered
  /// CRC32C of the *stored* body, stamped at send time (our MD5OfBody).
  /// Every delivery carries one; nullopt only on hand-built messages in
  /// tests, which intact() treats as unchecked.
  std::optional<std::uint32_t> body_checksum;

  const std::string& body() const { return *payload; }

  /// True when the delivered bytes match the send-time checksum. A false
  /// return means this delivery was corrupted in flight; the stored message
  /// is intact and a redelivery will carry clean bytes.
  bool intact() const { return !body_checksum || ppc::crc32c(*payload) == *body_checksum; }
};

/// Per-queue API request accounting. Requests are what SQS bills; the
/// messages_* fields count payloads moved, so messages / requests is the
/// batch occupancy (1.0 = unbatched chatter, 10.0 = perfect batching).
struct RequestMeter {
  std::uint64_t sends = 0;     // send requests (a batch of 10 bills 1)
  std::uint64_t receives = 0;  // receive requests, including empty receives
  std::uint64_t deletes = 0;   // delete requests (a batch of 10 bills 1)
  std::uint64_t visibility_changes = 0;
  /// Deletes presented with the current receipt *after* its visibility
  /// timeout lapsed — detected no-ops (the message is deliverable again, so
  /// honoring the delete would race a concurrent redelivery).
  std::uint64_t stale_deletes = 0;
  /// Messages moved to the dead-letter queue (sweeps + explicit moves).
  std::uint64_t dlq_moves = 0;

  std::uint64_t messages_sent = 0;      // bodies enqueued
  std::uint64_t messages_received = 0;  // deliveries handed to callers
  std::uint64_t messages_deleted = 0;   // successful deletes

  std::uint64_t total() const { return sends + receives + deletes + visibility_changes; }

  /// Requests the same traffic would have cost with one message per request
  /// — the denominator of the batching win billing reports.
  std::uint64_t unbatched_total() const {
    return messages_sent + messages_received + messages_deleted + visibility_changes;
  }

  /// Messages moved per send/receive/delete request; 0 when idle.
  double batch_occupancy() const {
    const std::uint64_t requests = sends + receives + deletes;
    if (requests == 0) return 0.0;
    return static_cast<double>(messages_sent + messages_received + messages_deleted) /
           static_cast<double>(requests);
  }
};

class MessageQueue {
 public:
  MessageQueue(std::string name, std::shared_ptr<const ppc::Clock> clock,
               QueueConfig config = {}, ppc::Rng rng = ppc::Rng(0xC10CDA7A));

  const std::string& name() const { return name_; }
  const QueueConfig& config() const { return config_; }

  /// Installs a fault hook fired on every send/receive/delete (sites
  /// "cloudq.<name>.send" / ".receive" / ".delete"). A failing send throws,
  /// a failing receive loses the response (the selected message becomes
  /// immediately redeliverable — its receive_count increment stands, exactly
  /// like a reply lost after the service acted), a failing delete is dropped,
  /// and a corrupted send/receive flips payload bits (send-side corruption is
  /// *stored* — the poison-message generator; receive-side corruption taints
  /// one delivery only, detectable via Message::intact()). Batch receives and
  /// deletes fire the hook once per message at the same sites, so a fault
  /// plan sees identical traffic whether or not the caller batches.
  /// Non-owning; pass nullptr to clear. The hook must outlive its use.
  void set_fault_hook(ppc::FaultHook* hook) { hook_.store(hook); }

  /// Installs a trace hook (runtime::Tracer) that gets a span per
  /// send/receive/delete API request (sites "cloudq.<name>.send" /
  /// ".receive" / ".delete"); empty receives are cancelled, not recorded.
  /// Non-owning; nullptr clears. Costs one relaxed atomic load per call when
  /// unset.
  void set_tracer(ppc::TraceHook* tracer) { tracer_.store(tracer); }

  /// Attaches a dead-letter queue (the SQS redrive policy): once a message
  /// has been delivered `max_receive_count` times without being deleted, the
  /// next receive sweep moves it to `dlq` instead of redelivering it.
  /// `dlq` must be a different queue and DLQ chains must be acyclic.
  void enable_dead_letter(std::shared_ptr<MessageQueue> dlq, int max_receive_count);

  bool has_dead_letter_queue() const;

  /// The redrive threshold, or 0 when no DLQ is attached.
  int max_receive_count() const;

  std::shared_ptr<MessageQueue> dead_letter_queue() const;

  /// Undeleted messages sitting in the attached DLQ (0 without one).
  std::size_t dlq_depth() const;

  /// Explicitly moves an in-flight message to the dead-letter queue — the
  /// receiver recognized a poison payload and refuses to process it again.
  /// Returns false on a stale receipt or when no DLQ is attached.
  bool move_to_dlq(const std::string& receipt_handle);

  /// Enqueues a message body; returns the service-assigned message id.
  std::string send(std::string body);

  /// Enqueues up to kBatchLimit messages per API request (SQS
  /// SendMessageBatch): the whole batch is billed as single requests per
  /// 10 messages, which is how the paper's 4096-task job stays at ~$0.01 of
  /// queue cost. Returns the message ids in order.
  std::vector<std::string> send_batch(const std::vector<std::string>& bodies);

  /// Messages accepted per batch request (the SQS limit).
  static constexpr std::size_t kBatchLimit = 10;

  /// Attempts to deliver one message. `visibility_timeout` < 0 uses the
  /// queue default. Returns nullopt when nothing is deliverable (or the
  /// request "missed" under eventual consistency).
  std::optional<Message> receive(Seconds visibility_timeout = -1.0);

  /// One receive request (billed once) that delivers up to `max_messages`
  /// (<= kBatchLimit) messages, appended to `out` — SQS ReceiveMessage with
  /// MaxNumberOfMessages. `out` is appended to, not cleared, so callers can
  /// reuse its capacity across polls (the envelope pool). Returns the number
  /// of messages appended; 0 on an empty queue or a consistency miss.
  std::size_t receive_batch(std::size_t max_messages, Seconds visibility_timeout,
                            std::vector<Message>& out);

  /// Deletes the message identified by `receipt_handle`. Returns false when
  /// the receipt is stale (the message timed out — even if not yet
  /// redelivered — was redelivered, or was already deleted) — the caller's
  /// work, if completed, stands thanks to task idempotency. Lapsed-receipt
  /// no-ops are counted in RequestMeter::stale_deletes.
  bool delete_message(const std::string& receipt_handle);

  /// Deletes a batch of receipts, billed one request per kBatchLimit
  /// receipts (SQS DeleteMessageBatch). Returns how many deletes succeeded;
  /// per-receipt failures are the same stale-receipt no-ops as
  /// delete_message.
  std::size_t delete_batch(const std::vector<std::string>& receipt_handles);

  /// Extends/shrinks the hidden period of an in-flight message. Returns
  /// false on a stale receipt.
  bool change_visibility(const std::string& receipt_handle, Seconds timeout);

  /// Approximate number of visible messages right now (like SQS's
  /// ApproximateNumberOfMessages). Not metered (monitoring convenience).
  std::size_t approximate_visible() const;

  /// Messages delivered but neither deleted nor yet timed out.
  std::size_t in_flight() const;

  /// Messages that have never been deleted (visible + in flight).
  std::size_t undeleted() const;

  RequestMeter meter() const;

  /// Accumulated request cost at the configured per-10k rate.
  Dollars request_cost() const;

 private:
  struct Entry {
    std::uint64_t id_num = 0;  // delivered as "m-<id_num>"
    std::shared_ptr<const std::string> body;  // immutable, shared with deliveries
    std::optional<std::uint32_t> body_checksum;  // crc32c of *body, set at send time
    Seconds visible_at = 0.0;  // message is deliverable when now >= visible_at
    std::uint64_t current_receipt_serial = 0;  // 0 = never delivered
    int receive_count = 0;
    /// Position in the shard's ready/exhausted list, -1 while hidden/free.
    std::int32_t ready_pos = -1;
    /// Matches the live heap record, if any; bumped on every scheduling
    /// change so superseded heap records are recognized and skipped.
    std::uint32_t hidden_stamp = 0;
    bool deleted = true;       // free slots park as deleted
    bool in_exhausted = false; // ready_pos indexes exhausted_ready, not ready
  };

  struct HiddenRec {
    Seconds at;
    std::uint32_t slot;
    std::uint32_t stamp;
    bool operator>(const HiddenRec& o) const { return at > o.at; }
  };

  /// One lock stripe: a slab of recycled message slots plus the scheduling
  /// structures that make receive O(1) and expiry O(log n).
  struct alignas(64) Shard {
    mutable std::mutex mu;
    ppc::Rng rng{0};
    std::vector<Entry> entries;
    std::vector<std::uint32_t> free_slots;       // striped free-list (slot pool)
    std::vector<std::uint32_t> ready;            // visible, deliverable slots
    std::vector<std::uint32_t> exhausted_ready;  // visible poison slots awaiting redrive
    std::priority_queue<HiddenRec, std::vector<HiddenRec>, std::greater<HiddenRec>> hidden;
    std::size_t undeleted = 0;
  };

  struct Receipt {
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
    std::uint64_t serial = 0;
  };

  /// Internal request-level counters; snapshotted into RequestMeter.
  struct AtomicMeter {
    std::atomic<std::uint64_t> sends{0}, receives{0}, deletes{0}, visibility_changes{0},
        stale_deletes{0}, dlq_moves{0}, messages_sent{0}, messages_received{0},
        messages_deleted{0};
  };

  /// Appends/recycles a message slot in `s`; caller holds s.mu. Returns the
  /// message id.
  std::string enqueue_locked(Shard& s, std::string body);

  /// Moves due hidden slots into the ready (or exhausted) list. Caller
  /// holds s.mu.
  void expire_locked(Shard& s, Seconds now) const;

  /// Parks a slot in the appropriate visible list. Caller holds s.mu.
  void make_visible_locked(Shard& s, std::uint32_t slot, Entry& e) const;

  /// Removes a slot from whichever visible list holds it. Caller holds s.mu.
  void list_remove_locked(Shard& s, Entry& e) const;

  /// Hides a slot until `until` (heap record + stamp bump). Caller holds s.mu.
  void hide_locked(Shard& s, std::uint32_t slot, Entry& e, Seconds until) const;

  /// Marks a slot deleted and recycles it into the free-list. Caller holds
  /// s.mu.
  void free_entry_locked(Shard& s, std::uint32_t slot, Entry& e) const;

  /// Redrives every visible exhausted slot: frees them and appends their
  /// bodies to `redriven` for the caller to send to the DLQ *after*
  /// unlocking (the DLQ has its own mutex; sending under ours would make
  /// chained queues a lock-order hazard). Caller holds s.mu.
  void drain_exhausted_locked(Shard& s,
                              std::vector<std::shared_ptr<const std::string>>& redriven);

  /// Shared core of receive/receive_batch: one billed request delivering up
  /// to `max` messages into `out` (caller-provided array of >= max).
  std::size_t receive_core(std::size_t max, Seconds visibility_timeout, Message* out);

  /// Lookup + stale checks + free, minus request billing / hook / span —
  /// shared by single and batch deletes.
  bool delete_entry(const std::string& receipt_handle);

  /// delete_message minus the tracing bracket.
  bool delete_message_impl(const std::string& receipt_handle);

  static std::string make_receipt(std::uint32_t shard, std::uint32_t slot,
                                  std::uint64_t serial);
  static std::optional<Receipt> parse_receipt(const std::string& receipt);

  const std::string name_;
  std::shared_ptr<const ppc::Clock> clock_;
  QueueConfig config_;
  std::atomic<ppc::FaultHook*> hook_{nullptr};
  std::atomic<ppc::TraceHook*> tracer_{nullptr};

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_msg_{1};
  std::atomic<std::uint64_t> next_receipt_serial_{1};
  std::atomic<std::uint64_t> next_send_shard_{0};
  std::atomic<std::uint64_t> next_sweep_shard_{0};
  mutable AtomicMeter meter_;

  mutable std::mutex meta_mu_;         // guards dlq_; set once
  std::shared_ptr<MessageQueue> dlq_;
  std::atomic<int> max_receive_count_{0};  // 0 = no redrive
};

}  // namespace ppc::cloudq
