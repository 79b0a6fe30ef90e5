#include "cloudq/message_queue.h"

#include <charconv>

#include "common/error.h"
#include "common/string_util.h"

namespace ppc::cloudq {

namespace {

std::string format_message_id(std::uint64_t id_num) {
  char buf[24];
  buf[0] = 'm';
  buf[1] = '-';
  auto [end, ec] = std::to_chars(buf + 2, buf + sizeof(buf), id_num);
  (void)ec;
  return std::string(buf, end);
}

}  // namespace

MessageQueue::MessageQueue(std::string name, std::shared_ptr<const ppc::Clock> clock,
                           QueueConfig config, ppc::Rng rng)
    : name_(std::move(name)), clock_(std::move(clock)), config_(config) {
  PPC_REQUIRE(clock_ != nullptr, "MessageQueue requires a clock");
  PPC_REQUIRE(config_.default_visibility_timeout > 0.0,
              "default visibility timeout must be positive");
  PPC_REQUIRE(config_.visibility_lag_mean >= 0.0, "visibility lag must be >= 0");
  PPC_REQUIRE(config_.duplicate_delivery_prob >= 0.0 && config_.duplicate_delivery_prob <= 1.0,
              "duplicate probability must be in [0,1]");
  PPC_REQUIRE(config_.receive_miss_prob >= 0.0 && config_.receive_miss_prob < 1.0,
              "receive miss probability must be in [0,1)");
  PPC_REQUIRE(config_.shards >= 1 && config_.shards <= 1024,
              "queue shards must be in [1, 1024]");
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) shards_.push_back(std::make_unique<Shard>());
  // Shard 0 inherits the constructor stream untouched so shards=1 reproduces
  // the single-lock service draw for draw; extra shards get split() children.
  for (int i = 1; i < config_.shards; ++i) shards_[static_cast<std::size_t>(i)]->rng = rng.split();
  shards_[0]->rng = rng;
}

std::string MessageQueue::send(std::string body) {
  ppc::TraceHook* tracer = tracer_.load(std::memory_order_relaxed);
  std::uint64_t span = 0;
  if (tracer != nullptr && tracer->tracing()) {
    span = tracer->op_begin("cloudq." + name_ + ".send", "");
  }
  if (ppc::FaultHook* hook = hook_.load()) {
    ppc::PayloadRef in_flight(&body);
    const ppc::FaultDecision d = hook->on_operation("cloudq." + name_ + ".send", "", &in_flight);
    if (d.fail) {
      if (span != 0) tracer->op_end(span, /*failed=*/true);
      throw ppc::Error("injected send failure on queue " + name_);
    }
    // Send-side corruption is *stored*: the service received flipped bytes
    // and checksummed what it got, so every delivery of this message is
    // garbage that passes intact() — a poison message.
    if (d.corrupted) body = in_flight.take();
  }
  meter_.sends.fetch_add(1, std::memory_order_relaxed);
  meter_.messages_sent.fetch_add(1, std::memory_order_relaxed);
  Shard& s = *shards_[shards_.size() == 1
                          ? 0
                          : next_send_shard_.fetch_add(1, std::memory_order_relaxed) %
                                shards_.size()];
  std::string id;
  {
    std::lock_guard lock(s.mu);
    id = enqueue_locked(s, std::move(body));
  }
  if (span != 0) tracer->op_end(span, /*failed=*/false);
  return id;
}

std::vector<std::string> MessageQueue::send_batch(const std::vector<std::string>& bodies) {
  PPC_REQUIRE(!bodies.empty(), "empty batch");
  // One API request per kBatchLimit messages.
  meter_.sends.fetch_add((bodies.size() + kBatchLimit - 1) / kBatchLimit,
                         std::memory_order_relaxed);
  meter_.messages_sent.fetch_add(bodies.size(), std::memory_order_relaxed);
  std::vector<std::string> ids;
  ids.reserve(bodies.size());
  if (shards_.size() == 1) {
    Shard& s = *shards_[0];
    std::lock_guard lock(s.mu);
    for (const std::string& body : bodies) ids.push_back(enqueue_locked(s, body));
  } else {
    for (const std::string& body : bodies) {
      Shard& s = *shards_[next_send_shard_.fetch_add(1, std::memory_order_relaxed) %
                          shards_.size()];
      std::lock_guard lock(s.mu);
      ids.push_back(enqueue_locked(s, body));
    }
  }
  return ids;
}

std::string MessageQueue::enqueue_locked(Shard& s, std::string body) {
  std::uint32_t slot;
  if (!s.free_slots.empty()) {
    slot = s.free_slots.back();
    s.free_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(s.entries.size());
    s.entries.emplace_back();
  }
  Entry& e = s.entries[slot];
  e.id_num = next_msg_.fetch_add(1, std::memory_order_relaxed);
  e.body_checksum = ppc::crc32c(body);
  e.body = std::make_shared<const std::string>(std::move(body));
  e.current_receipt_serial = 0;
  e.receive_count = 0;
  e.deleted = false;
  ++s.undeleted;
  const Seconds lag =
      config_.visibility_lag_mean > 0.0 ? s.rng.exponential(config_.visibility_lag_mean) : 0.0;
  const Seconds now = clock_->now();
  e.visible_at = now + lag;
  if (lag > 0.0) {
    ++e.hidden_stamp;
    s.hidden.push(HiddenRec{e.visible_at, slot, e.hidden_stamp});
  } else {
    make_visible_locked(s, slot, e);
  }
  return format_message_id(e.id_num);
}

void MessageQueue::enable_dead_letter(std::shared_ptr<MessageQueue> dlq, int max_receive_count) {
  PPC_REQUIRE(dlq != nullptr, "enable_dead_letter needs a queue");
  PPC_REQUIRE(dlq.get() != this, "a queue cannot be its own dead-letter queue");
  PPC_REQUIRE(max_receive_count >= 1, "max_receive_count must be >= 1");
  {
    std::lock_guard lock(meta_mu_);
    dlq_ = std::move(dlq);
  }
  max_receive_count_.store(max_receive_count, std::memory_order_relaxed);
  // Messages that already burned through their receive budget before the
  // redrive policy was attached move to the exhausted list so the next
  // receive sweep finds them (same timing as the old full-scan sweep).
  for (auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard lock(s.mu);
    for (std::size_t i = 0; i < s.ready.size();) {
      Entry& e = s.entries[s.ready[i]];
      if (e.receive_count >= max_receive_count) {
        const std::uint32_t slot = s.ready[i];
        list_remove_locked(s, e);
        e.ready_pos = static_cast<std::int32_t>(s.exhausted_ready.size());
        e.in_exhausted = true;
        s.exhausted_ready.push_back(slot);
        // list_remove swapped the tail into position i; re-examine it.
      } else {
        ++i;
      }
    }
  }
}

bool MessageQueue::has_dead_letter_queue() const {
  std::lock_guard lock(meta_mu_);
  return dlq_ != nullptr;
}

int MessageQueue::max_receive_count() const {
  return max_receive_count_.load(std::memory_order_relaxed);
}

std::shared_ptr<MessageQueue> MessageQueue::dead_letter_queue() const {
  std::lock_guard lock(meta_mu_);
  return dlq_;
}

std::size_t MessageQueue::dlq_depth() const {
  std::shared_ptr<MessageQueue> dlq = dead_letter_queue();
  return dlq == nullptr ? 0 : dlq->undeleted();
}

bool MessageQueue::move_to_dlq(const std::string& receipt_handle) {
  std::shared_ptr<MessageQueue> dlq = dead_letter_queue();
  if (dlq == nullptr) return false;
  const auto parsed = parse_receipt(receipt_handle);
  if (!parsed || parsed->shard >= shards_.size()) return false;
  std::shared_ptr<const std::string> body;
  {
    Shard& s = *shards_[parsed->shard];
    std::lock_guard lock(s.mu);
    if (parsed->slot >= s.entries.size()) return false;
    Entry& e = s.entries[parsed->slot];
    if (e.deleted || e.current_receipt_serial != parsed->serial) return false;
    body = std::move(e.body);
    free_entry_locked(s, parsed->slot, e);
    meter_.dlq_moves.fetch_add(1, std::memory_order_relaxed);
  }
  dlq->send(std::string(*body));
  return true;
}

void MessageQueue::expire_locked(Shard& s, Seconds now) const {
  while (!s.hidden.empty() && s.hidden.top().at <= now) {
    const HiddenRec rec = s.hidden.top();
    s.hidden.pop();
    Entry& e = s.entries[rec.slot];
    if (e.deleted || e.hidden_stamp != rec.stamp) continue;  // superseded record
    ++e.hidden_stamp;  // consume: the entry leaves the heap's custody
    make_visible_locked(s, rec.slot, e);
  }
}

void MessageQueue::make_visible_locked(Shard& s, std::uint32_t slot, Entry& e) const {
  // A message that came back (visible again) after max_receive_count
  // deliveries is poison: park it for the redrive sweep instead of making
  // it deliverable again.
  if (max_receive_count_.load(std::memory_order_relaxed) > 0 &&
      e.receive_count >= max_receive_count_.load(std::memory_order_relaxed)) {
    e.ready_pos = static_cast<std::int32_t>(s.exhausted_ready.size());
    e.in_exhausted = true;
    s.exhausted_ready.push_back(slot);
  } else {
    e.ready_pos = static_cast<std::int32_t>(s.ready.size());
    e.in_exhausted = false;
    s.ready.push_back(slot);
  }
}

void MessageQueue::list_remove_locked(Shard& s, Entry& e) const {
  auto& list = e.in_exhausted ? s.exhausted_ready : s.ready;
  const auto pos = static_cast<std::size_t>(e.ready_pos);
  list[pos] = list.back();
  s.entries[list[pos]].ready_pos = static_cast<std::int32_t>(pos);
  list.pop_back();
  e.ready_pos = -1;
  e.in_exhausted = false;
}

void MessageQueue::hide_locked(Shard& s, std::uint32_t slot, Entry& e, Seconds until) const {
  if (e.ready_pos >= 0) list_remove_locked(s, e);
  e.visible_at = until;
  ++e.hidden_stamp;
  s.hidden.push(HiddenRec{until, slot, e.hidden_stamp});
}

void MessageQueue::free_entry_locked(Shard& s, std::uint32_t slot, Entry& e) const {
  if (e.ready_pos >= 0) list_remove_locked(s, e);
  ++e.hidden_stamp;  // orphan any outstanding heap record
  e.deleted = true;
  e.body.reset();
  --s.undeleted;
  s.free_slots.push_back(slot);
}

void MessageQueue::drain_exhausted_locked(
    Shard& s, std::vector<std::shared_ptr<const std::string>>& redriven) {
  while (!s.exhausted_ready.empty()) {
    const std::uint32_t slot = s.exhausted_ready.back();
    Entry& e = s.entries[slot];
    redriven.push_back(std::move(e.body));
    free_entry_locked(s, slot, e);
    meter_.dlq_moves.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<Message> MessageQueue::receive(Seconds visibility_timeout) {
  Message out;
  if (receive_core(1, visibility_timeout, &out) == 0) return std::nullopt;
  return out;
}

std::size_t MessageQueue::receive_batch(std::size_t max_messages, Seconds visibility_timeout,
                                        std::vector<Message>& out) {
  PPC_REQUIRE(max_messages >= 1 && max_messages <= kBatchLimit,
              "receive batch size must be in [1, kBatchLimit]");
  Message scratch[kBatchLimit];
  const std::size_t n = receive_core(max_messages, visibility_timeout, scratch);
  for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(scratch[i]));
  return n;
}

std::size_t MessageQueue::receive_core(std::size_t max, Seconds visibility_timeout,
                                       Message* out) {
  const Seconds timeout =
      visibility_timeout < 0.0 ? config_.default_visibility_timeout : visibility_timeout;
  PPC_REQUIRE(timeout > 0.0, "visibility timeout must be positive");

  ppc::TraceHook* tracer = tracer_.load(std::memory_order_relaxed);
  std::uint64_t span = 0;
  if (tracer != nullptr && tracer->tracing()) {
    span = tracer->op_begin("cloudq." + name_ + ".receive", "");
  }

  meter_.receives.fetch_add(1, std::memory_order_relaxed);
  const int max_rc = max_receive_count_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<const std::string>> redriven;
  std::size_t attempted = 0;

  const std::size_t nshards = shards_.size();
  const std::size_t start =
      nshards == 1 ? 0 : next_sweep_shard_.fetch_add(1, std::memory_order_relaxed) % nshards;
  bool missed = false;
  for (std::size_t k = 0; k < nshards; ++k) {
    const std::size_t shard_idx = (start + k) % nshards;
    Shard& s = *shards_[shard_idx];
    std::lock_guard lock(s.mu);
    const Seconds now = clock_->now();
    if (k == 0 && config_.receive_miss_prob > 0.0) {
      missed = s.rng.bernoulli(config_.receive_miss_prob);
    }
    // The redrive sweep runs even on an eventually-consistent miss: it is
    // the service noticing exhausted messages, not the caller.
    expire_locked(s, now);
    drain_exhausted_locked(s, redriven);
    if (missed) break;

    while (attempted < max && !s.ready.empty()) {
      const std::uint32_t slot = s.ready[s.rng.index(s.ready.size())];
      Entry& e = s.entries[slot];
      ++e.receive_count;
      e.current_receipt_serial = next_receipt_serial_.fetch_add(1, std::memory_order_relaxed);
      if (!(config_.duplicate_delivery_prob > 0.0 &&
            s.rng.bernoulli(config_.duplicate_delivery_prob))) {
        hide_locked(s, slot, e, now + timeout);  // normal path: hide until timeout
      } else if (max_rc > 0 && e.receive_count >= max_rc && !e.in_exhausted) {
        // Duplicate-delivery path: the message stays visible, so a second
        // reader can receive it immediately; the second delivery will
        // supersede this receipt, making the first delete fail —
        // at-least-once in action. If this delivery burned the receive
        // budget, re-park it as poison for the redrive sweep.
        list_remove_locked(s, e);
        e.ready_pos = static_cast<std::int32_t>(s.exhausted_ready.size());
        e.in_exhausted = true;
        s.exhausted_ready.push_back(slot);
      }

      Message& m = out[attempted++];
      m.id = format_message_id(e.id_num);
      m.payload = e.body;  // aliases the stored body: delivery copies a pointer
      m.receipt_handle =
          make_receipt(static_cast<std::uint32_t>(shard_idx), slot, e.current_receipt_serial);
      m.receive_count = e.receive_count;
      m.body_checksum = e.body_checksum;
    }
    if (attempted >= max) break;
  }

  if (!redriven.empty()) {
    std::shared_ptr<MessageQueue> dlq = dead_letter_queue();
    for (const auto& body : redriven) dlq->send(std::string(*body));
  }

  std::size_t delivered = attempted;
  if (ppc::FaultHook* hook = hook_.load(); hook != nullptr && attempted > 0) {
    delivered = 0;
    for (std::size_t i = 0; i < attempted; ++i) {
      Message& m = out[i];
      ppc::PayloadRef in_flight(m.payload.get());
      const ppc::FaultDecision d =
          hook->on_operation("cloudq." + name_ + ".receive", m.id, &in_flight);
      if (d.fail) {
        // The response was lost after the service hid the message. Making the
        // caller wait out the full visibility timeout for a message nobody
        // holds would just stall the run, so the entry becomes immediately
        // redeliverable; its receive_count bump stands (the service *did*
        // deliver).
        const auto parsed = parse_receipt(m.receipt_handle);
        Shard& s = *shards_[parsed->shard];
        std::lock_guard lock(s.mu);
        Entry& e = s.entries[parsed->slot];
        if (!e.deleted && e.current_receipt_serial == parsed->serial) {
          e.visible_at = clock_->now();
          if (e.ready_pos < 0) {
            ++e.hidden_stamp;  // orphan the heap record; it is visible now
            make_visible_locked(s, parsed->slot, e);
          }
        }
        continue;
      }
      if (d.corrupted) {
        // Only this delivery is tainted; body_checksum still describes the
        // stored bytes, so Message::intact() flags the mismatch.
        m.payload = std::make_shared<const std::string>(in_flight.take());
      }
      if (delivered != i) out[delivered] = std::move(m);
      ++delivered;
    }
  }
  meter_.messages_received.fetch_add(delivered, std::memory_order_relaxed);

  if (span != 0) {
    if (attempted == 0) {
      // Empty poll: not worth a span (workers poll at high rate while idle).
      tracer->op_cancel(span);
    } else {
      tracer->op_end(span, /*failed=*/delivered == 0);
    }
  }
  return delivered;
}

bool MessageQueue::delete_message(const std::string& receipt_handle) {
  ppc::TraceHook* tracer = tracer_.load(std::memory_order_relaxed);
  std::uint64_t span = 0;
  if (tracer != nullptr && tracer->tracing()) {
    span = tracer->op_begin("cloudq." + name_ + ".delete", receipt_handle);
  }
  const bool deleted = delete_message_impl(receipt_handle);
  if (span != 0) tracer->op_end(span, /*failed=*/!deleted);
  return deleted;
}

bool MessageQueue::delete_message_impl(const std::string& receipt_handle) {
  if (ppc::FaultHook* hook = hook_.load()) {
    const ppc::FaultDecision d =
        hook->on_operation("cloudq." + name_ + ".delete", receipt_handle, nullptr);
    if (d.fail) {
      // Request lost in flight: still billed, nothing deleted. The message
      // will time out and be redelivered; idempotency absorbs it.
      meter_.deletes.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  meter_.deletes.fetch_add(1, std::memory_order_relaxed);
  return delete_entry(receipt_handle);
}

std::size_t MessageQueue::delete_batch(const std::vector<std::string>& receipt_handles) {
  PPC_REQUIRE(!receipt_handles.empty(), "empty batch");
  ppc::TraceHook* tracer = tracer_.load(std::memory_order_relaxed);
  std::uint64_t span = 0;
  if (tracer != nullptr && tracer->tracing()) {
    span = tracer->op_begin("cloudq." + name_ + ".delete", receipt_handles.front());
  }
  // One API request per kBatchLimit receipts.
  meter_.deletes.fetch_add((receipt_handles.size() + kBatchLimit - 1) / kBatchLimit,
                           std::memory_order_relaxed);
  ppc::FaultHook* hook = hook_.load();
  std::size_t ok = 0;
  for (const std::string& receipt : receipt_handles) {
    if (hook != nullptr) {
      const ppc::FaultDecision d =
          hook->on_operation("cloudq." + name_ + ".delete", receipt, nullptr);
      if (d.fail) continue;  // this entry's delete lost; billed with the batch
    }
    if (delete_entry(receipt)) ++ok;
  }
  if (span != 0) tracer->op_end(span, /*failed=*/ok < receipt_handles.size());
  return ok;
}

bool MessageQueue::delete_entry(const std::string& receipt_handle) {
  const auto parsed = parse_receipt(receipt_handle);
  if (!parsed || parsed->shard >= shards_.size()) return false;
  Shard& s = *shards_[parsed->shard];
  std::lock_guard lock(s.mu);
  if (parsed->slot >= s.entries.size()) return false;
  Entry& e = s.entries[parsed->slot];
  // Stale when the message was deleted, was never delivered with this serial,
  // or a newer delivery superseded this receipt. (A recycled slot holds a
  // fresh serial, so receipts to the previous occupant fail here too.)
  if (e.deleted || e.current_receipt_serial != parsed->serial) return false;
  if (e.visible_at <= clock_->now()) {
    // The receipt's visibility timeout lapsed: the message is back in the
    // queue and may be redelivered at any moment, so honoring the delete
    // would race that redelivery. Detected no-op — SQS honors deletes with
    // the *current* receipt only while the message is still hidden.
    meter_.stale_deletes.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  free_entry_locked(s, parsed->slot, e);
  meter_.messages_deleted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool MessageQueue::change_visibility(const std::string& receipt_handle, Seconds timeout) {
  PPC_REQUIRE(timeout >= 0.0, "visibility timeout must be >= 0");
  meter_.visibility_changes.fetch_add(1, std::memory_order_relaxed);
  const auto parsed = parse_receipt(receipt_handle);
  if (!parsed || parsed->shard >= shards_.size()) return false;
  Shard& s = *shards_[parsed->shard];
  std::lock_guard lock(s.mu);
  if (parsed->slot >= s.entries.size()) return false;
  Entry& e = s.entries[parsed->slot];
  if (e.deleted || e.current_receipt_serial != parsed->serial) return false;
  const Seconds now = clock_->now();
  const Seconds target = now + timeout;
  if (target <= now) {
    // Shrunk to zero: deliverable immediately.
    e.visible_at = target;
    if (e.ready_pos < 0) {
      ++e.hidden_stamp;  // orphan the heap record
      make_visible_locked(s, parsed->slot, e);
    }
  } else {
    hide_locked(s, parsed->slot, e, target);
  }
  return true;
}

std::size_t MessageQueue::approximate_visible() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard lock(s.mu);
    expire_locked(s, clock_->now());
    n += s.ready.size() + s.exhausted_ready.size();
  }
  return n;
}

std::size_t MessageQueue::in_flight() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard lock(s.mu);
    expire_locked(s, clock_->now());
    n += s.undeleted - (s.ready.size() + s.exhausted_ready.size());
  }
  return n;
}

std::size_t MessageQueue::undeleted() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard lock(s.mu);
    n += s.undeleted;
  }
  return n;
}

RequestMeter MessageQueue::meter() const {
  RequestMeter m;
  m.sends = meter_.sends.load(std::memory_order_relaxed);
  m.receives = meter_.receives.load(std::memory_order_relaxed);
  m.deletes = meter_.deletes.load(std::memory_order_relaxed);
  m.visibility_changes = meter_.visibility_changes.load(std::memory_order_relaxed);
  m.stale_deletes = meter_.stale_deletes.load(std::memory_order_relaxed);
  m.dlq_moves = meter_.dlq_moves.load(std::memory_order_relaxed);
  m.messages_sent = meter_.messages_sent.load(std::memory_order_relaxed);
  m.messages_received = meter_.messages_received.load(std::memory_order_relaxed);
  m.messages_deleted = meter_.messages_deleted.load(std::memory_order_relaxed);
  return m;
}

Dollars MessageQueue::request_cost() const {
  return static_cast<double>(meter().total()) / 10000.0 * config_.cost_per_10k_requests;
}

std::string MessageQueue::make_receipt(std::uint32_t shard, std::uint32_t slot,
                                       std::uint64_t serial) {
  // Worst case: "r-" + 10 + 10 + 20 digits + 2 dashes = 44 chars; capping
  // to_chars at buf+48 leaves provable room for the separator writes.
  char buf[64];
  std::size_t len = 0;
  buf[len++] = 'r';
  buf[len++] = '-';
  len = static_cast<std::size_t>(std::to_chars(buf + len, buf + 48, shard).ptr - buf);
  buf[len++] = '-';
  len = static_cast<std::size_t>(std::to_chars(buf + len, buf + 48, slot).ptr - buf);
  buf[len++] = '-';
  len = static_cast<std::size_t>(std::to_chars(buf + len, buf + 48, serial).ptr - buf);
  return std::string(buf, len);
}

std::optional<MessageQueue::Receipt> MessageQueue::parse_receipt(const std::string& receipt) {
  if (receipt.size() < 2 || receipt[0] != 'r' || receipt[1] != '-') return std::nullopt;
  const char* p = receipt.data() + 2;
  const char* end = receipt.data() + receipt.size();
  Receipt out;
  const auto take = [&](auto& value) -> bool {
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc() || next == p) return false;
    p = next;
    return true;
  };
  if (!take(out.shard)) return std::nullopt;
  if (p == end || *p != '-') return std::nullopt;
  ++p;
  if (!take(out.slot)) return std::nullopt;
  if (p == end || *p != '-') return std::nullopt;
  ++p;
  if (!take(out.serial) || p != end) return std::nullopt;
  return out;
}

}  // namespace ppc::cloudq
