#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // 1-based nearest rank: the smallest sample with at least q*n samples at
  // or below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::optional<double> LatencySamples::PercentileUs(double q) const {
  auto ns = Percentile(ns_, q);
  if (!ns) return std::nullopt;
  return *ns / 1000.0;
}

}  // namespace perfbench
