#include "sim/simulator.h"

#include <algorithm>

#include "common/error.h"

namespace ppc::sim {

Simulator::Simulator() : clock_(std::make_shared<ppc::ManualClock>(0.0)) {}

void Simulator::at(Seconds t, EventFn fn) {
  PPC_REQUIRE(t >= now(), "cannot schedule an event in the past");
  PPC_REQUIRE(fn != nullptr, "null event function");
  heap_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void Simulator::after(Seconds delay, EventFn fn) {
  PPC_REQUIRE(delay >= 0.0, "negative delay");
  at(now() + delay, std::move(fn));
}

void Simulator::run() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event next = std::move(heap_.back());
    heap_.pop_back();
    clock_->set(next.time);
    next.fn();
  }
}

}  // namespace ppc::sim
