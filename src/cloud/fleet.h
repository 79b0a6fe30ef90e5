// A fleet of hourly-billed instances with an elastic lifecycle.
//
// Cloud VMs are "billed hourly" (§3): a computation occupying an instance
// for any fraction of an hour is charged the full hour. The Fleet tracks
// launch/terminate times against the injected clock and produces both the
// paper's cost views:
//   * "Compute Cost (hour units)" — ceil(uptime) hours, the computation pays
//     for the whole final hour;
//   * "Amortized Cost" — exact fraction of uptime, assuming the remainder of
//     the hour does other useful work.
//
// The paper prices statically provisioned fleets (§3, Table 4); a
// production service scales mid-job and survives preemption. Each instance
// therefore walks the state machine that makes that safe (a static fleet
// just marks every instance running at launch):
//
//            scale_out          mark_running
//   (none) ------------> kBooting ----------> kRunning
//                            |                    | begin_drain, or
//                  hard_kill |                    | revoke(notice)
//                            v                    v
//                      kTerminated <-------- kDraining
//                            ^  finish_drain     |
//                            +--------------------+
//                               hard_kill (revocation notice expired)
//
// A *graceful drain* (scale-in, or a notice-respecting spot revocation) is:
// stop polling -> flush buffered acks -> finish the in-flight task ->
// terminate; the driver calls finish_drain() once the instance's last
// worker has retired, so no task is silently lost. A *hard kill* (notice
// expired, or a no-notice revocation) terminates immediately: in-flight
// work, prefetched deliveries, and buffered acks die with the instance and
// queue redelivery + idempotent re-execution absorb the loss.
//
// Spot instances carry their discounted rate in their InstanceType (see
// spot_variant), so hourly_billed_breakdown() yields the Table 4 spot line
// items directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/instance_types.h"
#include "common/clock.h"

namespace ppc::cloud {

namespace sites {
/// FaultInjector site the elastic drivers fire once per running spot
/// instance per autoscale tick (key = instance id). Arm it with
/// FaultPlan::revoke_spot rules to script single kills or correlated
/// revocation storms.
inline constexpr const char* kSpotRevoke = "cloud.fleet.revoke_spot";
}  // namespace sites

enum class InstanceState { kBooting, kRunning, kDraining, kTerminated };

const char* to_string(InstanceState s);

struct Instance {
  std::string id;
  InstanceType type;  // type.spot: billed at a spot-market rate, revocable
  InstanceState state = InstanceState::kBooting;
  Seconds launch_time = 0.0;
  Seconds terminate_time = -1.0;  // >= 0 once terminated
  Seconds drain_started = -1.0;   // >= 0 once draining
  /// Hard-kill time of a live revocation notice; < 0 otherwise.
  Seconds revoke_deadline = -1.0;
  bool revoked = false;

  /// Uptime as of `now` (or total uptime once terminated).
  Seconds uptime(Seconds now) const;

  /// Whole billing hours charged as of `now` (>= 1 once launched).
  int billed_hours(Seconds now) const;
};

class Fleet {
 public:
  explicit Fleet(std::shared_ptr<const ppc::Clock> clock);

  /// Launches `count` instances of `type` (its spot variant when
  /// `spot_market`) in kBooting; one scale-out event. Returns the ids.
  std::vector<std::string> scale_out(const InstanceType& type, int count, bool spot_market);

  /// Boot finished; the instance's workers may start polling.
  void mark_running(const std::string& id);

  /// Starts a graceful scale-in drain; one scale-in event.
  void begin_drain(const std::string& id);

  /// The instance's last worker retired: terminate and meter the drain.
  void finish_drain(const std::string& id);

  /// Spot revocation with a notice window: the instance enters kDraining
  /// (revoked) and must be gone by the returned deadline — the caller
  /// hard-kills it then unless the drain finished first. notice <= 0 is an
  /// immediate hard kill. Spot instances only.
  Seconds revoke(const std::string& id, Seconds notice);

  /// Terminates immediately (notice expired / no notice): whatever the
  /// instance held is lost. Killing an already-terminated instance is a
  /// metered no-op (`stale_terminates`), mirroring the queue's stale
  /// deletes: a revocation racing a scale-in decision must not abort the
  /// run, and the first termination's billing stands.
  void hard_kill(const std::string& id);

  /// Terminates everything still up (end of run).
  void terminate_all();

  /// Looks up one instance by id (O(1)); throws when unknown.
  const Instance& info(const std::string& id) const;
  InstanceState state(const std::string& id) const { return info(id).state; }
  /// Every instance ever launched, in launch order.
  const std::vector<Instance>& instances() const { return instances_; }

  /// Seconds until the instance's next billing-hour boundary at `now` —
  /// the scale-in eligibility input (drain only within hour_slack of it).
  Seconds seconds_to_hour_boundary(const std::string& id, Seconds now) const;

  // Gauges for the Monitor probes.
  int active_count() const;  // booting + running + draining
  int running_count() const;
  int booting_count() const;
  int draining_count() const;
  /// Spot instances still up (running or draining) — fleet.spot_running.
  int spot_running() const;

  // Meters.
  std::int64_t scale_out_events() const { return scale_out_events_; }
  std::int64_t scale_in_events() const { return scale_in_events_; }
  std::int64_t scale_events() const { return scale_out_events_ + scale_in_events_; }
  std::int64_t revocations() const { return revocations_; }
  std::int64_t hard_kills() const { return hard_kills_; }
  std::int64_t drains_completed() const { return drains_completed_; }
  Seconds total_drain_seconds() const { return total_drain_seconds_; }
  /// Kills suppressed because the instance was already terminated.
  std::uint64_t stale_terminates() const { return stale_terminates_; }

  /// Hour-unit compute cost as of `now` (terminated instances use their
  /// final uptime). This is the paper's "Compute Cost (hour units)".
  Dollars hourly_billed_cost(Seconds now) const;

  /// Amortized compute cost: exact uptime fraction times hourly rate.
  Dollars amortized_cost(Seconds now) const;

  /// The hour-unit bill split by market, plus the counterfactual all-on-
  /// demand figure the spot-savings line item is measured against.
  struct CostBreakdown {
    Dollars on_demand = 0.0;
    Dollars spot = 0.0;
    Dollars on_demand_equivalent = 0.0;  // every hour billed at on-demand rates

    Dollars total() const { return on_demand + spot; }
    Dollars spot_savings() const { return on_demand_equivalent - total(); }
  };
  CostBreakdown hourly_billed_breakdown(Seconds now) const;

 private:
  Instance& find(const std::string& id);
  void terminate(Instance& inst);
  int count_state(InstanceState s) const;

  std::shared_ptr<const ppc::Clock> clock_;
  std::vector<Instance> instances_;
  /// id -> index into instances_; keeps find() O(1) at elastic-fleet scale.
  std::unordered_map<std::string, std::size_t> index_;
  int next_id_ = 1;

  std::int64_t scale_out_events_ = 0;
  std::int64_t scale_in_events_ = 0;
  std::int64_t revocations_ = 0;
  std::int64_t hard_kills_ = 0;
  std::int64_t drains_completed_ = 0;
  Seconds total_drain_seconds_ = 0.0;
  std::uint64_t stale_terminates_ = 0;
};

}  // namespace ppc::cloud
