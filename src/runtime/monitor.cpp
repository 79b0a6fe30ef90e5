#include "runtime/monitor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>

#include "common/clock.h"
#include "common/error.h"
#include "common/string_util.h"
#include "runtime/retry_policy.h"

namespace ppc::runtime {

namespace {

// Deterministic double formatting for exports: shortest round-trippable-ish
// form with a fixed precision, so two identical DES runs render identical
// bytes and small values don't explode into 17 digits of noise.
std::string fmt_value(double v) {
  if (std::isnan(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_time(Seconds t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", t);
  return buf;
}

void append_json_string(std::ostringstream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

std::string AlarmRule::to_text() const {
  std::ostringstream os;
  os << series << (op == Op::kGreater ? " > " : " < ") << fmt_value(threshold)
     << " for " << fmt_value(sustain) << "s";
  return os.str();
}

AlarmRule parse_alarm(const std::string& text) {
  AlarmRule rule;
  std::string body = text;
  // Optional "name:" prefix. A ':' can't appear in series names (they are
  // dotted metric names), so the first colon, if any, ends the name.
  if (auto colon = body.find(':'); colon != std::string::npos) {
    rule.name = trim(body.substr(0, colon));
    body = body.substr(colon + 1);
  }
  // "<series> <op> <threshold> for <duration>"
  std::size_t op_pos = body.find_first_of("<>");
  PPC_REQUIRE(op_pos != std::string::npos,
              "alarm rule needs '<' or '>': " + text);
  rule.series = trim(body.substr(0, op_pos));
  PPC_REQUIRE(!rule.series.empty() && rule.series.find(':') == std::string::npos,
              "alarm rule has an empty or bad series: " + text);
  rule.op = body[op_pos] == '>' ? AlarmRule::Op::kGreater : AlarmRule::Op::kLess;

  std::string rest = body.substr(op_pos + 1);
  const std::size_t for_pos = rest.find(" for ");
  PPC_REQUIRE(for_pos != std::string::npos,
              "alarm rule needs 'for <duration>': " + text);
  const std::string threshold_str = trim(rest.substr(0, for_pos));
  std::string duration_str = trim(rest.substr(for_pos + 5));
  PPC_REQUIRE(!threshold_str.empty() && !duration_str.empty(),
              "alarm rule missing threshold or duration: " + text);

  const std::optional<double> threshold = parse_finite(threshold_str);
  PPC_REQUIRE(threshold.has_value(), "alarm rule has bad threshold: " + text);
  rule.threshold = *threshold;

  double unit = 1.0;
  const char suffix = duration_str.back();
  if (suffix == 's' || suffix == 'm' || suffix == 'h') {
    unit = suffix == 's' ? 1.0 : suffix == 'm' ? 60.0 : 3600.0;
    duration_str.pop_back();
  }
  const std::optional<double> duration = parse_finite(duration_str);
  rule.sustain = duration.value_or(-1.0) * unit;
  PPC_REQUIRE(std::isfinite(rule.sustain) && rule.sustain >= 0.0,
              "alarm rule has bad duration: " + text);

  if (rule.name.empty()) rule.name = rule.to_text();
  return rule;
}

Monitor::Monitor(MetricsRegistry& registry, MonitorConfig config)
    : registry_(registry), config_(config) {
  PPC_REQUIRE(config_.period > 0.0, "monitor period must be > 0");
  PPC_REQUIRE(config_.capacity >= 1, "monitor capacity must be >= 1");
}

Monitor::~Monitor() { stop(); }

void Monitor::add_probe(std::string series, ProbeKind kind,
                        std::function<double()> fn, double scale) {
  PPC_REQUIRE(fn != nullptr, "monitor probe needs a callback");
  std::lock_guard lock(mu_);
  probes_.push_back(Probe{std::move(series), kind, std::move(fn), scale});
}

void Monitor::add_alarm(AlarmRule rule) {
  PPC_REQUIRE(!rule.series.empty(), "alarm rule needs a series");
  if (rule.name.empty()) rule.name = rule.to_text();
  std::lock_guard lock(mu_);
  alarms_.push_back(AlarmState{std::move(rule)});
}

Monitor::SeriesEntry& Monitor::series_locked(std::string_view name,
                                             ProbeKind kind) {
  auto it = series_.find(std::string(name));
  if (it == series_.end()) {
    it = series_
             .try_emplace(std::string(name), config_.capacity, kind)
             .first;
  }
  return it->second;
}

double Monitor::rate_of(double prev, double cur, Seconds dt) {
  if (dt <= 0.0) return 0.0;
  // Counter-reset tolerance: monotone counters only ever grow, so a drop
  // means the source restarted — treat the current value as accumulation
  // since the reset rather than emitting a huge negative rate.
  const double delta = cur >= prev ? cur - prev : cur;
  return delta / dt;
}

void Monitor::sample_at(Seconds now) {
  std::lock_guard lock(mu_);
  const Seconds dt = last_sample_ < 0.0 ? 0.0 : now - last_sample_;

  for (Probe& probe : probes_) {
    const double raw = probe.fn();
    double value = 0.0;
    if (probe.kind == ProbeKind::kLevel) {
      value = raw * probe.scale;
    } else {
      // First sighting records rate 0 — there is no baseline to rate
      // against, and a spike of `total / epsilon` would poison the series.
      value = probe.has_prev ? rate_of(probe.prev, raw, dt) * probe.scale : 0.0;
      probe.has_prev = true;
      probe.prev = raw;
    }
    series_locked(probe.series, probe.kind).ts.add(now, value);
  }

  if (config_.scrape_registry) {
    registry_.scrape(scratch_);
    for (const auto& [name, raw] : scratch_.counters) {
      const double cur = static_cast<double>(raw);
      double rate = 0.0;
      if (auto it = counter_prev_.find(name); it != counter_prev_.end()) {
        rate = rate_of(it->second, cur, dt);
        it->second = cur;
      } else {
        counter_prev_.emplace(name, cur);
      }
      std::string series_name(name);
      series_name += ".rate";
      series_locked(series_name, ProbeKind::kCumulative).ts.add(now, rate);
    }
    for (const auto& [name, value] : scratch_.gauges) {
      series_locked(name, ProbeKind::kLevel).ts.add(now, value);
    }
  }

  evaluate_alarms_locked(now);
  last_sample_ = now;
  ++samples_;
}

void Monitor::evaluate_alarms_locked(Seconds now) {
  for (AlarmState& state : alarms_) {
    auto it = series_.find(state.rule.series);
    if (it == series_.end() || it->second.ts.empty()) continue;
    const double value = it->second.ts.latest().value;
    const bool cond = state.rule.op == AlarmRule::Op::kGreater
                          ? value > state.rule.threshold
                          : value < state.rule.threshold;
    if (!cond) {
      // Episode over: clear so a later breach can fire again.
      state.true_since = -1.0;
      state.fired = false;
      continue;
    }
    if (state.true_since < 0.0) state.true_since = now;
    const Seconds held = now - state.true_since;
    if (!state.fired && held >= state.rule.sustain) {
      state.fired = true;
      firings_.push_back(
          AlarmFiring{state.rule.name, state.rule.series, now, value, held});
      MetricEvent event;
      event.name = "alarm.fired";
      event.fields = {{"alarm", state.rule.name},
                      {"series", state.rule.series},
                      {"value", fmt_value(value)},
                      {"held_s", fmt_value(held)}};
      // emit() grabs the registry lock, not mu_ — no lock-order cycle, the
      // registry never calls back into the monitor.
      registry_.emit(std::move(event));
    }
  }
}

std::uint64_t Monitor::samples() const {
  std::lock_guard lock(mu_);
  return samples_;
}

void Monitor::start(std::shared_ptr<const ppc::Clock> clock) {
  PPC_REQUIRE(!thread_.joinable(), "monitor already started");
  if (!clock) clock = std::make_shared<SystemClock>();
  stop_requested_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this, clock = std::move(clock)] {
    // Sample immediately so short-lived runs still get at least one tick,
    // then on every period boundary until stop().
    while (!stop_requested_.load(std::memory_order_relaxed)) {
      sample_at(clock->now());
      sleep_for(config_.period);
    }
    sample_at(clock->now());  // final tick captures the drained end state
  });
}

void Monitor::stop() {
  if (!thread_.joinable()) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  thread_.join();
}

std::vector<std::string> Monitor::series_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, _] : series_) out.push_back(name);
  return out;
}

const TimeSeries* Monitor::series(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second.ts;
}

bool Monitor::degraded() const {
  std::lock_guard lock(mu_);
  return !firings_.empty();
}

std::vector<AlarmFiring> Monitor::firings() const {
  std::lock_guard lock(mu_);
  return firings_;
}

std::string Monitor::to_json() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "{\n  \"period\": " << fmt_value(config_.period)
     << ",\n  \"samples\": " << samples_ << ",\n  \"series\": {";
  bool first = true;
  for (const auto& [name, entry] : series_) {
    os << (first ? "\n" : ",\n") << "    ";
    first = false;
    append_json_string(os, name);
    os << ": {\"kind\": \""
       << (entry.kind == ProbeKind::kCumulative ? "rate" : "level")
       << "\", \"points\": [";
    for (std::size_t i = 0; i < entry.ts.size(); ++i) {
      const TimeSeries::Sample s = entry.ts.at(i);
      os << (i == 0 ? "" : ", ") << '[' << fmt_time(s.time) << ", "
         << fmt_value(s.value) << ']';
    }
    const WindowStats w = entry.ts.window();
    os << "], \"window\": {\"count\": " << w.count << ", \"min\": "
       << fmt_value(w.min) << ", \"mean\": " << fmt_value(w.mean)
       << ", \"max\": " << fmt_value(w.max) << ", \"p95\": " << fmt_value(w.p95)
       << "}}";
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"alarms\": [";
  for (std::size_t i = 0; i < firings_.size(); ++i) {
    const AlarmFiring& f = firings_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"alarm\": ";
    append_json_string(os, f.alarm);
    os << ", \"series\": ";
    append_json_string(os, f.series);
    os << ", \"at\": " << fmt_time(f.at) << ", \"value\": " << fmt_value(f.value)
       << ", \"held\": " << fmt_value(f.held) << "}";
  }
  os << (firings_.empty() ? "],\n" : "\n  ],\n");
  os << "  \"degraded\": " << (firings_.empty() ? "false" : "true") << "\n}\n";
  return os.str();
}

std::string Monitor::to_prometheus() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  for (const auto& [name, entry] : series_) {
    if (entry.ts.empty()) continue;
    std::string metric = "ppc_";
    for (const char c : name) {
      metric += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    }
    const TimeSeries::Sample s = entry.ts.latest();
    os << "# TYPE " << metric << " gauge\n"
       << metric << ' ' << fmt_value(s.value) << ' '
       << static_cast<std::int64_t>(s.time * 1000.0) << '\n';
  }
  return os.str();
}

std::string Monitor::dashboard(std::size_t width) const {
  std::lock_guard lock(mu_);
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  std::ostringstream os;
  std::size_t name_width = 8;
  for (const auto& [name, _] : series_) name_width = std::max(name_width, name.size());
  for (const auto& [name, entry] : series_) {
    if (entry.ts.empty()) continue;
    const WindowStats w = entry.ts.window();
    // Downsample the retained window onto `width` columns; each column shows
    // the max of its bucket so short spikes stay visible.
    const std::size_t n = entry.ts.size();
    const std::size_t cols = std::min(width, n);
    std::string spark;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t lo = c * n / cols;
      const std::size_t hi = std::max(lo + 1, (c + 1) * n / cols);
      double bucket = entry.ts.at(lo).value;
      for (std::size_t i = lo + 1; i < hi; ++i) {
        bucket = std::max(bucket, entry.ts.at(i).value);
      }
      const double span = w.max - w.min;
      const double norm = span > 0.0 ? (bucket - w.min) / span : 0.0;
      const int level = std::min(7, static_cast<int>(norm * 8.0));
      spark += kBlocks[std::max(0, level)];
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%-*s  last %10.3f  min %10.3f  mean %10.3f  max %10.3f  p95 %10.3f  ",
                  static_cast<int>(name_width), name.c_str(),
                  entry.ts.latest().value, w.min, w.mean, w.max, w.p95);
    os << line << spark << '\n';
  }
  if (!firings_.empty()) {
    os << "alarms:\n";
    for (const AlarmFiring& f : firings_) {
      char line[200];
      std::snprintf(line, sizeof(line), "  [%.3fs] %s (%s = %.3f, held %.1fs)\n",
                    f.at, f.alarm.c_str(), f.series.c_str(), f.value, f.held);
      os << line;
    }
  } else {
    os << "alarms: none\n";
  }
  return os.str();
}

}  // namespace ppc::runtime
