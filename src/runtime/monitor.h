// Time-series monitoring plane: periodic metric sampling, alarms, exports.
//
// MetricsRegistry holds *instantaneous* state — counters only ever grow,
// gauges only remember their latest value. The paper's sustained-performance
// study (Fig 16-style variability over time) and the ROADMAP's elastic-fleet
// item both need *signals over time*: queue depth while the job drains,
// worker utilization through the tail, cost accrual per hour. The Monitor is
// the CloudWatch/Azure-Monitor analog that produces them:
//
//  * it scrapes a MetricsRegistry on a fixed period — every counter becomes
//    a RATE series ("<name>.rate", delta per second, tolerant of counter
//    resets) and every gauge a LEVEL series — using the registry's
//    single-lock-pass scrape() so the hot path stays allocation-light;
//  * probes add signals the registry never sees: callbacks evaluated at
//    each tick (queue depth from MessageQueue::approximate_visible, busy
//    workers from the engine, accrued dollars from cloud::Fleet). A kLevel
//    probe records its value; a kCumulative probe records the rate of its
//    value (x scale — $/s x 3600 = $/hr);
//  * declarative Alarm rules ("queue.depth > 100 for 60s") are evaluated at
//    every tick with sustain-duration semantics: the condition must hold
//    over the full sustain window to fire — flapping just under the window
//    never fires. A firing emits a MetricEvent ("alarm.fired") and marks the
//    monitor degraded;
//  * exports: to_json() (deterministic, byte-stable for DES runs),
//    to_prometheus() (text exposition of the latest samples), and
//    dashboard() (ASCII sparkline table for terminals).
//
// Clock discipline: the Monitor itself is clock-free. sample_at(now) takes
// the timestamp from the caller, so a DES driver schedules ticks on the
// simulation clock (deterministic, byte-identical reruns) while real-thread
// runs call start(), which spawns a sampler thread stamping ticks from an
// injectable ppc::Clock (steady_clock by default).
//
// Thread-safety: sample_at(), the exports, and the accessors all serialize
// on one mutex. add_probe()/add_alarm() must happen before sampling starts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "runtime/metrics.h"
#include "runtime/time_series.h"

namespace ppc::runtime {

/// How a probe's value is turned into a series sample.
enum class ProbeKind {
  kLevel,       // record value() as-is (a gauge: queue depth, busy workers)
  kCumulative,  // record the rate of value() (a meter: bytes moved, $ spent)
};

struct MonitorConfig {
  /// Sample period. sample_at() callers enforce it themselves (the DES
  /// drivers schedule ticks at this spacing); start() sleeps it between
  /// ticks.
  Seconds period = 1.0;
  /// Ring capacity per series (oldest samples evicted beyond this). The
  /// window aggregates in exports and the dashboard span every retained
  /// sample.
  std::size_t capacity = 4096;
  /// Scrape the registry's counters/gauges into series on every tick. Off,
  /// only probes feed the monitor (cheaper when per-worker counters are
  /// numerous and the probes already cover the signals of interest).
  bool scrape_registry = true;
};

/// Threshold + sustain alarm over one series: fires when `series op
/// threshold` has held for at least `sustain` seconds of consecutive
/// samples. See parse_alarm for the text grammar.
struct AlarmRule {
  enum class Op { kGreater, kLess };

  std::string name;    // display name; defaults to the rule text
  std::string series;  // series to watch (e.g. "queue.tasks.depth")
  Op op = Op::kGreater;
  double threshold = 0.0;
  Seconds sustain = 0.0;

  /// Canonical text form: "<series> > <threshold> for <sustain>s".
  std::string to_text() const;
};

/// Parses "[name :] <series> <op> <threshold> for <duration>[s|m|h]", e.g.
///   "queue.tasks.depth > 100 for 60s"
///   "stalled: workers.idle_with_backlog > 0.5 for 30s"
///   "worker.utilization < 0.5 for 2m"
/// Throws ppc::InvalidArgument on malformed rules.
AlarmRule parse_alarm(const std::string& text);

/// One alarm firing (an episode fires at most once until it clears).
struct AlarmFiring {
  std::string alarm;
  std::string series;
  Seconds at = 0.0;      // sample time of the firing tick
  double value = 0.0;    // series value at that tick
  Seconds held = 0.0;    // how long the condition had held
};

class Monitor {
 public:
  explicit Monitor(MetricsRegistry& registry, MonitorConfig config = {});
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  const MonitorConfig& config() const { return config_; }

  /// Registers a probe evaluated at every tick, feeding series `series`.
  /// kCumulative probes record rate x `scale` (e.g. dollars with scale 3600
  /// gives $/hr); kLevel probes record value x `scale`. Call before
  /// sampling starts.
  void add_probe(std::string series, ProbeKind kind, std::function<double()> fn,
                 double scale = 1.0);

  /// Registers an alarm rule. Call before sampling starts.
  void add_alarm(AlarmRule rule);

  /// Takes one sample stamped `now`: runs the probes, scrapes the registry,
  /// evaluates the alarms. `now` must be non-decreasing across calls.
  void sample_at(Seconds now);

  /// Ticks taken so far.
  std::uint64_t samples() const;

  /// Real-thread mode: spawns a sampler thread calling sample_at(
  /// clock->now()) every period. `clock` defaults to a private SystemClock.
  void start(std::shared_ptr<const ppc::Clock> clock = nullptr);

  /// Stops the sampler thread (idempotent; no-op without start()).
  void stop();

  // -- state --
  std::vector<std::string> series_names() const;
  /// Borrowed view of one series; nullptr when unknown. Stable for the
  /// monitor's lifetime, but mutated by concurrent sampling — real-thread
  /// callers should stop() first.
  const TimeSeries* series(const std::string& name) const;
  /// True once any alarm has fired.
  bool degraded() const;
  std::vector<AlarmFiring> firings() const;

  // -- exports --
  /// Deterministic JSON dump: {"period", "samples", "series": {name:
  /// {"kind", "points": [[t,v],...], "window": {...}}}, "alarms": [...],
  /// "degraded"}. Identical DES runs produce identical bytes.
  std::string to_json() const;
  /// Prometheus text exposition of each series' latest sample
  /// (`ppc_<sanitized_name> <value>` with gauge TYPE lines).
  std::string to_prometheus() const;
  /// ASCII dashboard: one sparkline row per series plus the alarm log.
  std::string dashboard(std::size_t width = 44) const;

 private:
  struct SeriesEntry {
    TimeSeries ts;
    ProbeKind kind = ProbeKind::kLevel;  // how samples were derived

    explicit SeriesEntry(std::size_t capacity, ProbeKind k)
        : ts(capacity), kind(k) {}
  };

  struct Probe {
    std::string series;
    ProbeKind kind;
    std::function<double()> fn;
    double scale = 1.0;
    bool has_prev = false;
    double prev = 0.0;
  };

  struct AlarmState {
    AlarmRule rule;
    Seconds true_since = -1.0;  // < 0: condition currently false
    bool fired = false;         // fired during the current episode
  };

  /// Returns the series, creating it on first use. Caller holds mu_.
  SeriesEntry& series_locked(std::string_view name, ProbeKind kind);
  /// Rate with counter-reset tolerance: a decrease counts as a restart
  /// from zero. Caller holds mu_.
  static double rate_of(double prev, double cur, Seconds dt);
  void evaluate_alarms_locked(Seconds now);

  MetricsRegistry& registry_;
  const MonitorConfig config_;

  mutable std::mutex mu_;
  std::map<std::string, SeriesEntry> series_;
  std::vector<Probe> probes_;
  std::vector<AlarmState> alarms_;
  std::vector<AlarmFiring> firings_;
  MetricsRegistry::ScrapeBuffer scratch_;
  /// Previous raw value per scraped counter (names are views into the
  /// registry's stable keys).
  std::map<std::string_view, double> counter_prev_;
  Seconds last_sample_ = -1.0;
  std::uint64_t samples_ = 0;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace ppc::runtime
