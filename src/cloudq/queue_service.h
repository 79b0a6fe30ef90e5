// Account-level queue management, mirroring the SQS / Azure Queue service
// surface: create/look up/delete named queues. The Classic Cloud framework
// uses two queues per computation — one for task scheduling and one for
// monitoring (§2.1.3).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloudq/message_queue.h"

namespace ppc::cloudq {

class QueueService {
 public:
  /// All queues created by this service share `clock` and default `config`;
  /// per-queue RNG streams are split from `rng` deterministically.
  QueueService(std::shared_ptr<const ppc::Clock> clock, QueueConfig config = {},
               ppc::Rng rng = ppc::Rng(0x5E5D));

  /// Creates (or returns the existing) queue with this name.
  std::shared_ptr<MessageQueue> create_queue(const std::string& name);

  /// Creates queue `name` (if needed) plus a companion "<name>-dlq" queue
  /// and wires the redrive policy between them. Returns the main queue.
  std::shared_ptr<MessageQueue> create_queue_with_dlq(const std::string& name,
                                                      int max_receive_count);

  /// Installs `hook` on every existing queue and every queue created later
  /// (account-wide chaos instrumentation). Non-owning; nullptr clears.
  void set_fault_hook(ppc::FaultHook* hook);

  /// Installs `tracer` on every existing queue and every queue created later
  /// (account-wide tracing). Non-owning; nullptr clears.
  void set_tracer(ppc::TraceHook* tracer);

  /// Returns the queue or nullptr when it does not exist.
  std::shared_ptr<MessageQueue> get_queue(const std::string& name) const;

  /// Removes the queue; outstanding shared_ptrs keep it alive but it is no
  /// longer discoverable. Returns false when absent.
  bool delete_queue(const std::string& name);

  std::vector<std::string> list_queues() const;

  /// Sum of request costs across live queues (feeds the billing report).
  Dollars total_request_cost() const;

 private:
  std::shared_ptr<const ppc::Clock> clock_;
  QueueConfig config_;
  mutable std::mutex mu_;
  ppc::Rng rng_;
  ppc::FaultHook* hook_ = nullptr;     // applied to new queues; guarded by mu_
  ppc::TraceHook* tracer_ = nullptr;   // applied to new queues; guarded by mu_
  std::map<std::string, std::shared_ptr<MessageQueue>> queues_;
};

}  // namespace ppc::cloudq
