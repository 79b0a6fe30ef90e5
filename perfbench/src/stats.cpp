#include "stats.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

Summary summarize(std::vector<double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  s.min = xs.front();
  s.median = median(xs);
  s.max = xs.back();
  const double n = static_cast<double>(xs.size());
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - pct / 100.0) >= 10.0) {
      // Nearest-rank percentile.
      const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
      s.tail_pct = pct;
      s.tail = xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
      break;
    }
  }
  return s;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) +
                     "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
    const char unit = text.back();
    if (unit == 'K') value *= 1024;
    if (unit == 'M') value *= 1024 * 1024;
    best = std::max(best, value);
  }
  if (best == 0) {
    const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (v > 0) best = static_cast<std::uint64_t>(v);
  }
  return best;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return "\"" + out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key, long long value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_escape(value));
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

JsonObject& JsonObject::summary(const std::string& key, const Summary& s) {
  JsonObject o;
  o.integer("count", static_cast<long long>(s.count))
      .num("min", s.min)
      .num("median", s.median)
      .num("max", s.max);
  if (s.tail_pct > 0.0) o.num("tail_pct", s.tail_pct).num("tail", s.tail);
  return raw(key, o.dump());
}

std::string JsonObject::dump() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) os << ", ";
    os << json_escape(fields_[i].first) << ": " << fields_[i].second;
  }
  os << "}";
  return os.str();
}

}  // namespace perfbench
