#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace tm2c {

namespace {

// Nearest rank: the k-th smallest with k = ceil(q * n), clamped to [1, n].
size_t NearestRank(double q, size_t n) {
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) {
    rank = 1;
  }
  if (rank > n) {
    rank = n;
  }
  return rank;
}

}  // namespace

std::vector<double> LatencySampler::Percentiles(const std::vector<double>& qs) const {
  if (samples_.empty()) {
    return std::vector<double>(qs.size(), 0.0);
  }
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    out.push_back(sorted[NearestRank(q, sorted.size()) - 1]);
  }
  return out;
}

}  // namespace tm2c
