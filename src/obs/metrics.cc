#include "obs/metrics.h"

namespace sentinel::obs {

std::uint64_t LatencyHistogram::Snapshot::QuantileNs(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Upper bound of bucket i: 2^i - 1 ns (bucket 0 holds exactly 0 ns).
      if (i == 0) return 0;
      if (i >= 63) return max_ns;
      const std::uint64_t bound = (1ull << i) - 1;
      return bound < max_ns ? bound : max_ns;
    }
  }
  return max_ns;
}

}  // namespace sentinel::obs
