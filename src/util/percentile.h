// Shared nearest-rank percentile over latency samples.
//
// One definition for every layer that reports a latency distribution (the
// liveness verdicts of the fault injector and the chaos harness, the
// micro-op suite and the geo bench) — three independent hand-rolled
// versions previously disagreed on the edge cases this header pins down:
//
//   - q is a fraction in [0, 1]; q <= 0 returns the minimum sample and
//     q >= 1 the maximum (nearest-rank is total on the closed interval).
//   - A single sample is every percentile of itself.
//   - The rank is ceil(q * N) clamped to [1, N], evaluated with an epsilon
//     nudge so a binary-representation artifact like 0.99 * 100 ==
//     99.00000000000001 cannot push the rank up a slot (the "p99 == max"
//     off-by-one the micro-op suite used to ship).
//   - Empty input returns 0.
#ifndef SRC_UTIL_PERCENTILE_H_
#define SRC_UTIL_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bftbase {

// Nearest-rank percentile of an ascending-sorted sample set.
inline int64_t PercentileOfSorted(const std::vector<int64_t>& sorted,
                                  double q) {
  if (sorted.empty()) {
    return 0;
  }
  if (q <= 0.0) {
    return sorted.front();
  }
  if (q >= 1.0) {
    return sorted.back();
  }
  const double n = static_cast<double>(sorted.size());
  // Nearest rank, 1-based: ceil(q * N), with an epsilon so FP noise in the
  // product cannot round an exact rank boundary upward.
  double rank = std::ceil(q * n - 1e-9);
  if (rank < 1.0) {
    rank = 1.0;
  }
  size_t index = static_cast<size_t>(rank) - 1;
  if (index >= sorted.size()) {
    index = sorted.size() - 1;
  }
  return sorted[index];
}

// Sorts a copy and takes the nearest-rank percentile.
inline int64_t Percentile(std::vector<int64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, q);
}

// The standard latency summary the workload drivers report.
struct LatencySummary {
  int64_t p50 = 0;
  int64_t p99 = 0;
  int64_t p999 = 0;
  uint64_t samples = 0;
};

inline LatencySummary SummarizeLatencies(std::vector<int64_t> samples) {
  LatencySummary s;
  s.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileOfSorted(samples, 0.50);
  s.p99 = PercentileOfSorted(samples, 0.99);
  s.p999 = PercentileOfSorted(samples, 0.999);
  return s;
}

}  // namespace bftbase

#endif  // SRC_UTIL_PERCENTILE_H_
