// Discrete-event simulation kernel.
//
// The figure-reproduction benches model hundreds of cloud instances (the
// paper runs up to 128 Azure Small instances and 256-core bare-metal
// clusters) that this repository cannot provision. Each simulated worker is
// an event-driven state machine; the Simulator executes events in
// (time, insertion-order) order and exposes its clock through the same
// ppc::Clock interface the real-time services consume, so the *same*
// message-queue / blob-store / billing code runs under simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/units.h"

namespace ppc::sim {

using EventFn = std::function<void()>;

class Simulator {
 public:
  Simulator();

  /// Current simulation time in seconds.
  Seconds now() const { return clock_->now(); }

  /// Clock view suitable for handing to cloud services. Lives as long as the
  /// returned shared_ptr; safe to outlive the Simulator (time just freezes).
  std::shared_ptr<ppc::Clock> clock() const { return clock_; }

  /// Schedules `fn` at absolute sim time `t` (>= now()).
  void at(Seconds t, EventFn fn);

  /// Schedules `fn` after `delay` seconds (>= 0).
  void after(Seconds delay, EventFn fn);

  /// Runs events until none remain. An event that throws is consumed; the
  /// exception propagates and a later run() resumes with the next event.
  void run();

  /// Events scheduled and not yet started. The event currently running is
  /// not counted, so a self-rescheduling chain can tell whether anything
  /// else is left.
  std::size_t events_pending() const { return heap_.size(); }

 private:
  struct Event {
    Seconds time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    EventFn fn;
  };
  // The std heap algorithms keep the greatest element on top: greater = later.
  static bool later(const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  std::shared_ptr<ppc::ManualClock> clock_;
  std::vector<Event> heap_;  // min-heap on (time, seq)
  std::uint64_t next_seq_ = 0;
};

}  // namespace ppc::sim
