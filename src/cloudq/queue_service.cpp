#include "cloudq/queue_service.h"

#include "common/error.h"

namespace ppc::cloudq {

QueueService::QueueService(std::shared_ptr<const ppc::Clock> clock, QueueConfig config,
                           ppc::Rng rng)
    : clock_(std::move(clock)), config_(config), rng_(rng) {
  PPC_REQUIRE(clock_ != nullptr, "QueueService requires a clock");
}

std::shared_ptr<MessageQueue> QueueService::create_queue(const std::string& name) {
  PPC_REQUIRE(!name.empty(), "queue name must be non-empty");
  std::lock_guard lock(mu_);
  auto it = queues_.find(name);
  if (it != queues_.end()) return it->second;
  auto q = std::make_shared<MessageQueue>(name, clock_, config_, rng_.split());
  q->set_fault_hook(hook_);
  q->set_tracer(tracer_);
  queues_.emplace(name, q);
  return q;
}

std::shared_ptr<MessageQueue> QueueService::create_queue_with_dlq(const std::string& name,
                                                                  int max_receive_count) {
  auto main = create_queue(name);
  auto dlq = create_queue(name + "-dlq");
  main->enable_dead_letter(dlq, max_receive_count);
  return main;
}

void QueueService::set_fault_hook(ppc::FaultHook* hook) {
  std::lock_guard lock(mu_);
  hook_ = hook;
  for (const auto& [_, q] : queues_) q->set_fault_hook(hook);
}

void QueueService::set_tracer(ppc::TraceHook* tracer) {
  std::lock_guard lock(mu_);
  tracer_ = tracer;
  for (const auto& [_, q] : queues_) q->set_tracer(tracer);
}

std::shared_ptr<MessageQueue> QueueService::get_queue(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = queues_.find(name);
  return it == queues_.end() ? nullptr : it->second;
}

bool QueueService::delete_queue(const std::string& name) {
  std::lock_guard lock(mu_);
  return queues_.erase(name) > 0;
}

std::vector<std::string> QueueService::list_queues() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(queues_.size());
  for (const auto& [name, _] : queues_) names.push_back(name);
  return names;
}

Dollars QueueService::total_request_cost() const {
  std::lock_guard lock(mu_);
  Dollars total = 0.0;
  for (const auto& [_, q] : queues_) total += q->request_cost();
  return total;
}

}  // namespace ppc::cloudq
