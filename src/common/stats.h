// Lightweight statistics accumulators used by benches and runtime counters.
#ifndef TM2C_SRC_COMMON_STATS_H_
#define TM2C_SRC_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace tm2c {

// Streaming accumulator: count, sum, min, max, mean, variance (Welford).
class StatAccumulator {
 public:
  void Add(double x) {
    ++count_;
    sum_ += x;
    if (x < min_) {
      min_ = x;
    }
    if (x > max_) {
      max_ = x;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  void Merge(const StatAccumulator& other) {
    if (other.count_ == 0) {
      return;
    }
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const auto n1 = static_cast<double>(count_);
    const auto n2 = static_cast<double>(other.count_);
    const double n = n1 + n2;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    mean_ = (n1 * mean_ + n2 * other.mean_) / n;
    sum_ += other.sum_;
    count_ += other.count_;
    if (other.min_ < min_) {
      min_ = other.min_;
    }
    if (other.max_ > max_) {
      max_ = other.max_;
    }
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double variance() const { return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0; }

 private:
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Streaming moments plus exact percentiles: keeps every sample, so use it
// for bounded runs (a bench records one sample per completed operation).
// All queries are well-defined on an empty sampler and return 0.
class LatencySampler {
 public:
  void Add(double x) {
    acc_.Add(x);
    samples_.push_back(x);
  }

  void Merge(const LatencySampler& other) {
    acc_.Merge(other.acc_);
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  }

  // Nearest-rank percentiles, each q in [0,1] (clamped): the smallest
  // sample such that at least ceil(q * count) samples are <= it. q = 0 is
  // the minimum, q = 1 the maximum; 0.0 when no samples were recorded.
  // One sort of one copy serves every q, so the bench reporter's
  // p50/p95/p99 do not re-copy large sample sets.
  std::vector<double> Percentiles(const std::vector<double>& qs) const;

  uint64_t count() const { return acc_.count(); }
  double mean() const { return acc_.mean(); }
  double min() const { return acc_.min(); }
  double max() const { return acc_.max(); }
  const StatAccumulator& moments() const { return acc_; }

 private:
  StatAccumulator acc_;
  std::vector<double> samples_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_COMMON_STATS_H_
