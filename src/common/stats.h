// Streaming statistics and simple percentile support.
//
// Used by the experiment harness to summarize per-task times (Figures 6, 11,
// 15) and by the sustained-performance-variability bench (§3 of the paper,
// std-dev 1.56% AWS / 2.25% Azure).
#pragma once

#include <cstddef>
#include <vector>

namespace ppc {

/// Welford streaming mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than 2 samples.
  double variance() const;
  double stddev() const;
  /// stddev / mean; 0 when mean == 0.
  double coefficient_of_variation() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains samples; supports exact percentiles. Fine for <= millions of items.
class SampleSet {
 public:
  void add(double x) { xs_.push_back(x); }
  void add_all(const std::vector<double>& xs);

  std::size_t count() const { return xs_.size(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const;
  /// p in [0, 100]; linear interpolation between closest ranks.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace ppc
