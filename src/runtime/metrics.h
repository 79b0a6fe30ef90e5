// One metrics API for all four substrates.
//
// The seed grew a stats struct per framework (`WorkerStats`, scheduler
// stats, per-driver ad-hoc counters); this
// registry replaces the storage behind them with named counters, gauges and
// histograms plus a structured event sink. Workers scope their counters by
// id ("<worker>.tasks_completed"), so per-worker views and fleet-wide
// aggregates (`sum_counters(".tasks_completed")`) come from the same data,
// and the CLI / benches read parallel efficiency (Eq 1) from a gauge instead
// of reaching into per-substrate structs.
//
// Thread-safe. Counter/histogram references returned by the registry stay
// valid for the registry's lifetime, so hot paths can look up once and
// increment lock-free afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace ppc::runtime {

class Counter {
 public:
  void inc(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Mutex-guarded sample accumulator with exact percentiles (SampleSet).
class HistogramMetric {
 public:
  void record(double x);
  /// Copy of the samples accumulated so far.
  ppc::SampleSet snapshot() const;
  std::size_t count() const;

 private:
  mutable std::mutex mu_;
  ppc::SampleSet samples_;
};

/// A structured event: a name plus free-form key/value fields. Routed to the
/// registry's sink (when set) — the monitoring-queue analog for in-process
/// observers (tests, tracing, progress UIs).
struct MetricEvent {
  std::string name;
  std::vector<std::pair<std::string, std::string>> fields;
};

using EventSink = std::function<void(const MetricEvent&)>;

class MetricsRegistry {
 public:
  /// Returns the named counter, creating it on first use.
  Counter& counter(const std::string& name);

  /// Returns the named histogram, creating it on first use.
  HistogramMetric& histogram(const std::string& name);

  void set_gauge(const std::string& name, double value);

  /// Current gauge value; 0.0 when never set.
  double gauge(const std::string& name) const;

  /// Current counter value; 0 when never touched.
  std::int64_t counter_value(const std::string& name) const;

  /// Sum over every counter whose name ends with `suffix` — aggregates
  /// worker-scoped counters ("w0.tasks_completed" + "w1.tasks_completed")
  /// in one call.
  std::int64_t sum_counters(std::string_view suffix) const;

  /// Forwards to the event sink, if one is installed; otherwise drops.
  void emit(MetricEvent event);

  void set_event_sink(EventSink sink);

  // -- snapshots for reporting ---------------------------------------
  std::vector<std::pair<std::string, std::int64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::string> histogram_names() const;

  /// Reusable scrape buffer for the monitoring hot path: the name fields
  /// are string_views into the registry's own keys. Counters and histograms
  /// are never erased and gauge map nodes are stable, so the views stay
  /// valid for the registry's lifetime.
  struct ScrapeBuffer {
    std::vector<std::pair<std::string_view, std::int64_t>> counters;
    std::vector<std::pair<std::string_view, double>> gauges;
  };

  /// Snapshots every counter and gauge in ONE lock pass into `out`,
  /// clearing but not shrinking it — after the first call a steady-state
  /// scrape allocates nothing (names are views, vectors keep their
  /// capacity). This is what runtime::Monitor calls once per sample period;
  /// see src/runtime/README.md for the thread-safety contract.
  void scrape(ScrapeBuffer& out) const;

  /// Whole-registry snapshot as a JSON object — {"counters": {...},
  /// "gauges": {...}, "histograms": {name: {count, mean, max, p50, p95}}} —
  /// the artifact format the bench/CI jobs archive chaos and recovery
  /// metrics in.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
  std::map<std::string, double> gauges_;
  EventSink sink_;
};

}  // namespace ppc::runtime
