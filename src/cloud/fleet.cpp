#include "cloud/fleet.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace ppc::cloud {

const char* to_string(InstanceState s) {
  switch (s) {
    case InstanceState::kBooting:
      return "booting";
    case InstanceState::kRunning:
      return "running";
    case InstanceState::kDraining:
      return "draining";
    case InstanceState::kTerminated:
      return "terminated";
  }
  return "?";
}

Seconds Instance::uptime(Seconds now) const {
  const Seconds end = state == InstanceState::kTerminated ? terminate_time : now;
  return std::max(0.0, end - launch_time);
}

int Instance::billed_hours(Seconds now) const {
  const Seconds up = uptime(now);
  return std::max(1, static_cast<int>(std::ceil(up / 3600.0)));
}

Fleet::Fleet(std::shared_ptr<const ppc::Clock> clock) : clock_(std::move(clock)) {
  PPC_REQUIRE(clock_ != nullptr, "Fleet requires a clock");
}

std::vector<std::string> Fleet::scale_out(const InstanceType& type, int count,
                                          bool spot_market) {
  PPC_REQUIRE(count >= 1, "scale_out count must be >= 1");
  const InstanceType launched = spot_market ? spot_variant(type) : type;
  std::vector<std::string> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Instance inst;
    inst.id = launched.name + "#" + std::to_string(next_id_++);
    inst.type = launched;
    inst.launch_time = clock_->now();
    index_.emplace(inst.id, instances_.size());
    ids.push_back(inst.id);
    instances_.push_back(std::move(inst));
  }
  ++scale_out_events_;
  return ids;
}

void Fleet::mark_running(const std::string& id) {
  Instance& inst = find(id);
  PPC_REQUIRE(inst.state == InstanceState::kBooting,
              "mark_running on a non-booting instance: " + id);
  inst.state = InstanceState::kRunning;
}

void Fleet::begin_drain(const std::string& id) {
  Instance& inst = find(id);
  PPC_REQUIRE(inst.state == InstanceState::kRunning,
              "begin_drain on a non-running instance: " + id);
  inst.state = InstanceState::kDraining;
  inst.drain_started = clock_->now();
  ++scale_in_events_;
}

void Fleet::finish_drain(const std::string& id) {
  Instance& inst = find(id);
  PPC_REQUIRE(inst.state == InstanceState::kDraining,
              "finish_drain on a non-draining instance: " + id);
  terminate(inst);
  total_drain_seconds_ += clock_->now() - inst.drain_started;
  ++drains_completed_;
}

Seconds Fleet::revoke(const std::string& id, Seconds notice) {
  Instance& inst = find(id);
  PPC_REQUIRE(inst.type.spot, "revoke on a non-spot instance: " + id);
  const Seconds now = clock_->now();
  if (inst.state == InstanceState::kTerminated) return now;
  ++revocations_;
  inst.revoked = true;
  if (notice <= 0.0) {
    hard_kill(id);
    return now;
  }
  if (inst.state != InstanceState::kDraining) {
    // A revocation landing on an instance already draining for scale-in
    // just adds the deadline; it is not a second scale-in event.
    inst.state = InstanceState::kDraining;
    inst.drain_started = now;
  }
  inst.revoke_deadline = now + notice;
  return inst.revoke_deadline;
}

void Fleet::hard_kill(const std::string& id) {
  Instance& inst = find(id);
  if (inst.state == InstanceState::kTerminated) {
    ++stale_terminates_;
    return;
  }
  terminate(inst);
  ++hard_kills_;
}

void Fleet::terminate_all() {
  for (Instance& inst : instances_) {
    if (inst.state != InstanceState::kTerminated) terminate(inst);
  }
}

void Fleet::terminate(Instance& inst) {
  inst.state = InstanceState::kTerminated;
  inst.terminate_time = clock_->now();
  inst.revoke_deadline = -1.0;
}

const Instance& Fleet::info(const std::string& id) const {
  const auto it = index_.find(id);
  PPC_REQUIRE(it != index_.end(), "unknown instance: " + id);
  return instances_[it->second];
}

Instance& Fleet::find(const std::string& id) {
  return const_cast<Instance&>(std::as_const(*this).info(id));
}

Seconds Fleet::seconds_to_hour_boundary(const std::string& id, Seconds now) const {
  const Seconds into_hour = std::fmod(info(id).uptime(now), 3600.0);
  return into_hour == 0.0 ? 0.0 : 3600.0 - into_hour;
}

int Fleet::count_state(InstanceState s) const {
  return static_cast<int>(std::count_if(instances_.begin(), instances_.end(),
                                        [s](const Instance& i) { return i.state == s; }));
}

int Fleet::active_count() const {
  return static_cast<int>(instances_.size()) - count_state(InstanceState::kTerminated);
}

int Fleet::running_count() const { return count_state(InstanceState::kRunning); }
int Fleet::booting_count() const { return count_state(InstanceState::kBooting); }
int Fleet::draining_count() const { return count_state(InstanceState::kDraining); }

int Fleet::spot_running() const {
  return static_cast<int>(std::count_if(
      instances_.begin(), instances_.end(), [](const Instance& i) {
        return i.type.spot &&
               (i.state == InstanceState::kRunning || i.state == InstanceState::kDraining);
      }));
}

Dollars Fleet::hourly_billed_cost(Seconds now) const {
  Dollars total = 0.0;
  for (const Instance& inst : instances_) {
    total += inst.billed_hours(now) * inst.type.cost_per_hour;
  }
  return total;
}

Dollars Fleet::amortized_cost(Seconds now) const {
  Dollars total = 0.0;
  for (const Instance& inst : instances_) {
    total += inst.uptime(now) / 3600.0 * inst.type.cost_per_hour;
  }
  return total;
}

Fleet::CostBreakdown Fleet::hourly_billed_breakdown(Seconds now) const {
  CostBreakdown b;
  for (const Instance& inst : instances_) {
    const Dollars billed = inst.billed_hours(now) * inst.type.cost_per_hour;
    (inst.type.spot ? b.spot : b.on_demand) += billed;
    b.on_demand_equivalent += inst.billed_hours(now) * inst.type.undiscounted_rate();
  }
  return b;
}

}  // namespace ppc::cloud
