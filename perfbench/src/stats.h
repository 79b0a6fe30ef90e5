// Small helpers shared by every workload: timing summaries, the result
// document, and facts about the host (CPU count, cache size, peak RSS).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double now_s();

double median(std::vector<double> xs);
double mean(const std::vector<double>& xs);

/// A timing distribution as the benchmark reports it: the median plus the
/// highest of p75/p90/p95/p99/p99.9 that still has at least ten samples
/// beyond it (none when there are fewer than 40 samples).
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
  double tail_pct = 0.0;  // 0 = no percentile qualifies
  double tail = 0.0;
};
Summary summarize(std::vector<double> xs);

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus();

/// Last-level cache size in bytes (0 when the host does not say).
std::uint64_t llc_bytes();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Insertion-ordered flat JSON object with number, string, bool and nested
/// raw-JSON values — enough for the result lines this program prints.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, long long value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& raw(const std::string& key, const std::string& json);
  JsonObject& summary(const std::string& key, const Summary& s);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_escape(const std::string& s);
std::string json_number(double value);

}  // namespace perfbench
