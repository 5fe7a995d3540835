#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie above a percentile before it is
/// reported: a tail read off fewer samples is one outlier, not a tail.
constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie above it.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty. Used for small sets of repetitions, where the percentile rule does
/// not apply.
double Median(std::vector<double> values);

/// Latency samples of one operation class, in nanoseconds.
class LatencySamples {
 public:
  void Reserve(std::size_t n) { ns_.reserve(n); }
  void Add(std::uint64_t ns) { ns_.push_back(static_cast<double>(ns)); }
  std::size_t size() const { return ns_.size(); }
  const std::vector<double>& ns() const { return ns_; }
  /// Percentile in microseconds (nullopt under the kMinSamplesBeyond rule).
  std::optional<double> PercentileUs(double q) const;

 private:
  std::vector<double> ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
