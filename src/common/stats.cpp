#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ppc {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::coefficient_of_variation() const {
  return mean_ == 0.0 ? 0.0 : stddev() / mean_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_), nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  mean_ += delta * nb / n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void SampleSet::add_all(const std::vector<double>& xs) {
  xs_.insert(xs_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

double SampleSet::mean() const {
  PPC_REQUIRE(!xs_.empty(), "mean of empty SampleSet");
  return sum() / static_cast<double>(xs_.size());
}

double SampleSet::sum() const {
  double s = 0.0;
  for (double x : xs_) s += x;
  return s;
}

double SampleSet::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : xs_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs_.size() - 1));
}

double SampleSet::min() const {
  PPC_REQUIRE(!xs_.empty(), "min of empty SampleSet");
  return *std::min_element(xs_.begin(), xs_.end());
}

double SampleSet::max() const {
  PPC_REQUIRE(!xs_.empty(), "max of empty SampleSet");
  return *std::max_element(xs_.begin(), xs_.end());
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double p) const {
  PPC_REQUIRE(!xs_.empty(), "percentile of empty SampleSet");
  PPC_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
  ensure_sorted();
  if (xs_.size() == 1) return xs_[0];
  const double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

}  // namespace ppc
