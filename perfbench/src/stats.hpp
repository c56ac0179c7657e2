// Sample statistics for the benchmark: the percentile rule and small helpers.
//
// Percentiles use the nearest-rank method on a sorted copy: the p-th
// percentile of n samples is the ceil(p*n)-th smallest.  A tail percentile is
// only reported when at least kMinBeyond samples lie strictly above its rank
// (p99 therefore needs >= 1000 samples, p90 >= 100); every timing is printed
// with its sample count so a reader can check the rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

// 1-based nearest rank of the p-th percentile among n samples (p in (0, 1]).
inline std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  auto r = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

// Samples strictly beyond the p-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - percentile_rank(n, p);
}

// True when n samples support reporting the p-th percentile.
inline bool percentile_supported(std::size_t n, double p) {
  return n > 0 && (p <= 0.5 || samples_beyond(n, p) >= kMinBeyond);
}

// Nearest-rank percentile of `v` (sorted in place).  0 for an empty set.
template <typename T>
T percentile(std::vector<T>& v, double p) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  return v[percentile_rank(v.size(), p) - 1];
}

// A timing (or count) sample stamped with the time it was due.
struct Sample {
  std::uint64_t due = 0;
  std::uint64_t value = 0;
};

// A percentile over one phase, with how it was computed.
struct Windowed {
  double value = 0;
  std::size_t n = 0;        // samples
  std::size_t windows = 1;  // windows the median was taken over
  std::uint64_t window_s = 0;  // window length; 0 = pooled over the phase
};

// The p-th percentile of a phase's samples, robust to a brief stall.  The
// phase [t0, t0 + seconds) is cut into equal windows of the shortest whole
// number of seconds in which every window holds enough samples for the
// percentile rule; the result is the median of the per-window percentiles.
// When fewer than two such windows fit, the percentile is pooled.
inline Windowed windowed_percentile(const std::vector<Sample>& samples, std::uint64_t t0,
                                    std::uint64_t seconds, double p) {
  Windowed out;
  out.n = samples.size();
  for (std::uint64_t w = 1; w <= seconds / 2; ++w) {
    const std::uint64_t windows = seconds / w;
    std::vector<std::vector<std::uint64_t>> buckets(windows);
    for (const Sample& s : samples) {
      const std::uint64_t off = s.due > t0 ? s.due - t0 : 0;
      buckets[std::min<std::uint64_t>(off / (w * 1'000'000'000ULL), windows - 1)].push_back(
          s.value);
    }
    bool ok = true;
    for (const auto& b : buckets) ok = ok && percentile_supported(b.size(), p);
    if (!ok) continue;
    std::vector<std::uint64_t> per_window;
    for (auto& b : buckets) per_window.push_back(percentile(b, p));
    std::sort(per_window.begin(), per_window.end());
    const std::size_t m = per_window.size() / 2;
    out.value = per_window.size() % 2 == 1
                    ? static_cast<double>(per_window[m])
                    : 0.5 * static_cast<double>(per_window[m - 1] + per_window[m]);
    out.windows = windows;
    out.window_s = w;
    return out;
  }
  std::vector<std::uint64_t> all;
  for (const Sample& s : samples) all.push_back(s.value);
  out.value = static_cast<double>(percentile(all, p));
  return out;
}

// Median of a small set of repeated measurements (mean of the middle pair
// for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
