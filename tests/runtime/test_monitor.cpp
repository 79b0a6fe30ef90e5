// Monitor unit coverage: alarm grammar + sustain-duration semantics, probe
// rate derivation (counter-reset tolerance, first-sighting), registry
// scraping, and the three exports. Everything here drives sample_at()
// directly with explicit timestamps — the same call path the DES drivers
// use — so the tests are exact, not timing-dependent.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"

namespace ppc::runtime {
namespace {

MonitorConfig probe_only(Seconds period = 1.0) {
  MonitorConfig mc;
  mc.period = period;
  mc.scrape_registry = false;
  return mc;
}

TEST(ParseAlarm, BasicGreaterRule) {
  const AlarmRule rule = parse_alarm("queue.tasks.depth > 100 for 60s");
  EXPECT_EQ(rule.series, "queue.tasks.depth");
  EXPECT_EQ(rule.op, AlarmRule::Op::kGreater);
  EXPECT_EQ(rule.threshold, 100.0);
  EXPECT_EQ(rule.sustain, 60.0);
  // Unnamed rules display as their canonical text.
  EXPECT_EQ(rule.name, "queue.tasks.depth > 100 for 60s");
}

TEST(ParseAlarm, NamedRuleAndLessThan) {
  const AlarmRule rule = parse_alarm("starving: worker.utilization < 0.5 for 2m");
  EXPECT_EQ(rule.name, "starving");
  EXPECT_EQ(rule.series, "worker.utilization");
  EXPECT_EQ(rule.op, AlarmRule::Op::kLess);
  EXPECT_EQ(rule.threshold, 0.5);
  EXPECT_EQ(rule.sustain, 120.0);
}

TEST(ParseAlarm, DurationUnits) {
  EXPECT_EQ(parse_alarm("a.b > 1 for 90").sustain, 90.0);    // bare seconds
  EXPECT_EQ(parse_alarm("a.b > 1 for 90s").sustain, 90.0);
  EXPECT_EQ(parse_alarm("a.b > 1 for 1.5m").sustain, 90.0);
  EXPECT_EQ(parse_alarm("a.b > 1 for 2h").sustain, 7200.0);
}

TEST(ParseAlarm, RoundTripsThroughToText) {
  const AlarmRule rule = parse_alarm("cache.hit_rate < 0.25 for 30s");
  const AlarmRule again = parse_alarm(rule.to_text());
  EXPECT_EQ(again.series, rule.series);
  EXPECT_EQ(again.op, rule.op);
  EXPECT_EQ(again.threshold, rule.threshold);
  EXPECT_EQ(again.sustain, rule.sustain);
}

TEST(ParseAlarm, RejectsMalformedRules) {
  EXPECT_THROW(parse_alarm(""), ppc::InvalidArgument);
  EXPECT_THROW(parse_alarm("queue.depth 100 for 60s"), ppc::InvalidArgument);
  EXPECT_THROW(parse_alarm("> 100 for 60s"), ppc::InvalidArgument);
  EXPECT_THROW(parse_alarm("queue.depth > 100"), ppc::InvalidArgument);
  EXPECT_THROW(parse_alarm("queue.depth > many for 60s"), ppc::InvalidArgument);
  EXPECT_THROW(parse_alarm("queue.depth > 100 for soon"), ppc::InvalidArgument);
  EXPECT_THROW(parse_alarm("queue.depth > 100 for -5s"), ppc::InvalidArgument);
  EXPECT_THROW(parse_alarm("queue.depth > 100x for 60s"), ppc::InvalidArgument);
}

// A NaN threshold compares false both ways, so the alarm could never fire.
TEST(ParseAlarm, RejectsNanThreshold) {
  EXPECT_THROW(parse_alarm("x > nan for 5s"), ppc::InvalidArgument);
}

TEST(ParseAlarm, RejectsInfiniteSustain) {
  EXPECT_THROW(parse_alarm("x > 1 for infs"), ppc::InvalidArgument);
}

// 1e308 hours overflows to an infinite sustain once scaled to seconds.
TEST(ParseAlarm, RejectsSustainThatOverflowsInSeconds) {
  EXPECT_THROW(parse_alarm("x > 1 for 1e308h"), ppc::InvalidArgument);
}

// The first ':' ends the name, so a series with a ':' would not survive
// to_text() -> parse_alarm.
TEST(ParseAlarm, RejectsColonInSeries) {
  EXPECT_THROW(parse_alarm("n: a:b > 1 for 5s"), ppc::InvalidArgument);
}

TEST(Monitor, LevelProbeRecordsScaledValues) {
  MetricsRegistry registry;
  Monitor monitor(registry, probe_only());
  double depth = 0.0;
  monitor.add_probe("queue.depth", ProbeKind::kLevel, [&] { return depth; }, 2.0);
  depth = 3.0;
  monitor.sample_at(0.0);
  depth = 5.0;
  monitor.sample_at(1.0);
  const TimeSeries* ts = monitor.series("queue.depth");
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->size(), 2u);
  EXPECT_EQ(ts->at(0).value, 6.0);
  EXPECT_EQ(ts->at(1).value, 10.0);
  EXPECT_EQ(monitor.samples(), 2u);
}

TEST(Monitor, CumulativeProbeFirstSightingIsZeroRate) {
  MetricsRegistry registry;
  Monitor monitor(registry, probe_only());
  double bytes = 1000.0;  // nonzero before the first tick
  monitor.add_probe("storage.bytes_per_sec", ProbeKind::kCumulative,
                    [&] { return bytes; });
  monitor.sample_at(0.0);
  const TimeSeries* ts = monitor.series("storage.bytes_per_sec");
  ASSERT_NE(ts, nullptr);
  // No previous observation: a startup spike of 1000/0 would be a lie.
  EXPECT_EQ(ts->at(0).value, 0.0);
  bytes = 1500.0;
  monitor.sample_at(2.0);
  EXPECT_EQ(ts->at(1).value, 250.0);  // 500 bytes over 2s
}

TEST(Monitor, CumulativeProbeToleratesCounterReset) {
  MetricsRegistry registry;
  Monitor monitor(registry, probe_only());
  double total = 0.0;
  monitor.add_probe("work.per_sec", ProbeKind::kCumulative, [&] { return total; });
  monitor.sample_at(0.0);
  total = 10.0;
  monitor.sample_at(1.0);  // rate 10
  total = 3.0;             // restart from zero (worker crashed and came back)
  monitor.sample_at(2.0);  // rate counts the 3 accrued since the reset
  const TimeSeries* ts = monitor.series("work.per_sec");
  ASSERT_EQ(ts->size(), 3u);
  EXPECT_EQ(ts->at(1).value, 10.0);
  EXPECT_EQ(ts->at(2).value, 3.0);
}

TEST(Monitor, CumulativeScaleTurnsDollarsIntoDollarsPerHour) {
  MetricsRegistry registry;
  Monitor monitor(registry, probe_only());
  double dollars = 0.0;
  monitor.add_probe("cost.dollars_per_hour", ProbeKind::kCumulative,
                    [&] { return dollars; }, 3600.0);
  monitor.sample_at(0.0);
  dollars = 0.01;  // one cent in 60 simulated seconds
  monitor.sample_at(60.0);
  const TimeSeries* ts = monitor.series("cost.dollars_per_hour");
  EXPECT_NEAR(ts->at(1).value, 0.60, 1e-12);  // $0.60/hr
}

TEST(Monitor, ScrapesCountersAsRatesAndGaugesAsLevels) {
  MetricsRegistry registry;
  MonitorConfig mc;
  mc.period = 1.0;
  mc.scrape_registry = true;
  Monitor monitor(registry, mc);
  registry.counter("w0.tasks_completed").inc(0);
  registry.set_gauge("w0.busy", 1.0);
  monitor.sample_at(0.0);
  registry.counter("w0.tasks_completed").inc(4);
  registry.set_gauge("w0.busy", 0.0);
  monitor.sample_at(2.0);

  const TimeSeries* rate = monitor.series("w0.tasks_completed.rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(rate->size(), 2u);
  EXPECT_EQ(rate->at(0).value, 0.0);  // first sighting
  EXPECT_EQ(rate->at(1).value, 2.0);  // 4 tasks over 2s

  const TimeSeries* busy = monitor.series("w0.busy");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->at(0).value, 1.0);
  EXPECT_EQ(busy->at(1).value, 0.0);
}

TEST(Monitor, ScrapeRegistryOffKeepsRegistryOutOfSeries) {
  MetricsRegistry registry;
  registry.counter("noise").inc(100);
  Monitor monitor(registry, probe_only());
  monitor.add_probe("signal", ProbeKind::kLevel, [] { return 1.0; });
  monitor.sample_at(0.0);
  EXPECT_EQ(monitor.series_names(), std::vector<std::string>{"signal"});
}

// --- alarm sustain semantics -----------------------------------------------

// Drives one controllable level series through a monitor with the given
// alarm, sampling once per second with `value` returned per tick.
struct AlarmHarness {
  MetricsRegistry registry;
  Monitor monitor;
  double value = 0.0;
  Seconds now = 0.0;

  explicit AlarmHarness(const std::string& rule)
      : monitor(registry, probe_only()) {
    monitor.add_probe("sig", ProbeKind::kLevel, [this] { return value; });
    monitor.add_alarm(parse_alarm(rule));
  }

  void tick(double v) {
    value = v;
    monitor.sample_at(now);
    now += 1.0;
  }
};

TEST(MonitorAlarm, FlappingJustUnderSustainNeverFires) {
  // Condition true for 4s, false for 1s, repeatedly — never holds the full
  // 5s sustain, so the alarm must never fire no matter how long it flaps.
  AlarmHarness h("sig > 10 for 5s");
  for (int cycle = 0; cycle < 12; ++cycle) {
    for (int i = 0; i < 4; ++i) h.tick(50.0);
    h.tick(0.0);
  }
  EXPECT_FALSE(h.monitor.degraded());
  EXPECT_TRUE(h.monitor.firings().empty());
}

TEST(MonitorAlarm, FiresOnceWhenHeldThroughSustain) {
  AlarmHarness h("stuck: sig > 10 for 5s");
  h.tick(0.0);
  for (int i = 0; i < 20; ++i) h.tick(50.0);  // held 19s by the last tick
  ASSERT_EQ(h.monitor.firings().size(), 1u);
  const AlarmFiring f = h.monitor.firings()[0];
  EXPECT_EQ(f.alarm, "stuck");
  EXPECT_EQ(f.series, "sig");
  EXPECT_GE(f.held, 5.0);
  EXPECT_EQ(f.value, 50.0);
  EXPECT_TRUE(h.monitor.degraded());
}

TEST(MonitorAlarm, RefiresInANewEpisodeAfterClearing) {
  AlarmHarness h("sig > 10 for 3s");
  for (int i = 0; i < 6; ++i) h.tick(50.0);  // episode 1 fires
  for (int i = 0; i < 3; ++i) h.tick(0.0);   // clears
  for (int i = 0; i < 6; ++i) h.tick(50.0);  // episode 2 fires again
  EXPECT_EQ(h.monitor.firings().size(), 2u);
}

TEST(MonitorAlarm, LessThanRuleWatchesUnderruns) {
  AlarmHarness h("idle: sig < 0.5 for 3s");
  for (int i = 0; i < 10; ++i) h.tick(1.0);
  EXPECT_TRUE(h.monitor.firings().empty());
  for (int i = 0; i < 5; ++i) h.tick(0.1);
  EXPECT_EQ(h.monitor.firings().size(), 1u);
  EXPECT_EQ(h.monitor.firings()[0].alarm, "idle");
}

TEST(MonitorAlarm, ZeroSustainFiresOnFirstBreach) {
  AlarmHarness h("sig > 10 for 0s");
  h.tick(5.0);
  EXPECT_TRUE(h.monitor.firings().empty());
  h.tick(11.0);
  EXPECT_EQ(h.monitor.firings().size(), 1u);
}

TEST(MonitorAlarm, FiringEmitsMetricEvent) {
  MetricsRegistry registry;
  std::vector<MetricEvent> events;
  registry.set_event_sink([&](const MetricEvent& e) { events.push_back(e); });
  Monitor monitor(registry, probe_only());
  double v = 100.0;
  monitor.add_probe("sig", ProbeKind::kLevel, [&] { return v; });
  monitor.add_alarm(parse_alarm("hot: sig > 10 for 2s"));
  for (int i = 0; i < 5; ++i) monitor.sample_at(i);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "alarm.fired");
  bool saw_alarm_field = false;
  for (const auto& [key, val] : events[0].fields) {
    if (key == "alarm") {
      saw_alarm_field = true;
      EXPECT_EQ(val, "hot");
    }
  }
  EXPECT_TRUE(saw_alarm_field);
}

// --- exports ----------------------------------------------------------------

TEST(MonitorExport, JsonIsDeterministicAcrossIdenticalRuns) {
  auto run = [] {
    MetricsRegistry registry;
    Monitor monitor(registry, probe_only(0.5));
    double v = 0.0;
    monitor.add_probe("sig", ProbeKind::kLevel, [&] { return v; });
    monitor.add_probe("rate", ProbeKind::kCumulative, [&] { return v * 2.0; });
    monitor.add_alarm(parse_alarm("sig > 3 for 1s"));
    for (int i = 0; i < 10; ++i) {
      v = i * 0.7;
      monitor.sample_at(i * 0.5);
    }
    return monitor.to_json();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"series\""), std::string::npos);
  EXPECT_NE(a.find("\"degraded\": true"), std::string::npos);
}

TEST(MonitorExport, PrometheusExposesLatestSamples) {
  MetricsRegistry registry;
  Monitor monitor(registry, probe_only());
  monitor.add_probe("queue.tasks.depth", ProbeKind::kLevel, [] { return 7.0; });
  monitor.sample_at(3.0);
  const std::string text = monitor.to_prometheus();
  EXPECT_NE(text.find("# TYPE ppc_queue_tasks_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("ppc_queue_tasks_depth 7"), std::string::npos);
}

TEST(MonitorExport, DashboardShowsSeriesAndAlarmLog) {
  AlarmHarness h("stall: sig > 10 for 2s");
  for (int i = 0; i < 6; ++i) h.tick(42.0);
  const std::string dash = h.monitor.dashboard();
  EXPECT_NE(dash.find("sig"), std::string::npos);
  EXPECT_NE(dash.find("stall"), std::string::npos);
  const std::string json = h.monitor.to_json();
  EXPECT_NE(json.find("\"alarms\""), std::string::npos);
  EXPECT_NE(json.find("stall"), std::string::npos);
}

}  // namespace
}  // namespace ppc::runtime
