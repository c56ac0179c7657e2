// Correctness checks the benchmark applies to the engine's answers.
//
//   * Relaxation: a query (or snapshot) that started after `before` elements
//     had been handed to update() and returned before more than `after` had,
//     must see a size in [before - r, after], where
//     r = N*b + nodes*rho*2k + install_queue*2k (README, bounded relaxation).
//   * Monotone size: successive snapshot images never shrink.
//   * Rank error after quiesce: |estimated rank - exact rank| <= eps * n,
//     with eps from the Hoeffding bound on the ladder's compactions (below).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::uint64_t relaxation_bound(std::uint64_t updaters, std::uint64_t b,
                                      std::uint64_t nodes, std::uint64_t rho,
                                      std::uint64_t k, std::uint64_t install_queue) {
  return updaters * b + nodes * rho * 2 * k + install_queue * 2 * k;
}

// One observation of a relaxed read: ingested-before, size seen, ingested-after.
struct Observation {
  std::uint64_t before = 0;
  std::uint64_t size = 0;
  std::uint64_t after = 0;
};

inline bool within_relaxation(const Observation& o, std::uint64_t r) {
  const std::uint64_t floor = o.before > r ? o.before - r : 0;
  return o.size >= floor && o.size <= o.after;
}

// Violations in a history of observations; `monotone` additionally requires
// each observed size to be >= the previous one (snapshot images).
inline std::uint64_t count_violations(const std::vector<Observation>& history,
                                      std::uint64_t r, bool monotone) {
  std::uint64_t bad = 0;
  std::uint64_t prev = 0;
  for (const Observation& o : history) {
    if (!within_relaxation(o, r) || (monotone && o.size < prev)) ++bad;
    prev = o.size;
  }
  return bad;
}

// Normalized rank-error bound for a quiesced ladder with summary size k,
// checked at `probes` points with total failure probability `delta`.
//
// Each compaction of 2k items of weight w into k items of weight 2w shifts
// any rank by -w, 0 or +w with mean 0, independently.  Level h sees
// n / (2k * 2^h) compactions of weight 2^h, so the squared ranges sum to at
// most n^2 / (2k^2) and Hoeffding gives |error| <= n * sqrt(ln(2/delta)) / k.
// A quantile answer is additionally off by at most one item's weight, at most
// n / k, hence the +1.
inline double rank_error_bound(std::uint64_t k, std::uint64_t probes, double delta) {
  return (std::sqrt(std::log(2.0 * static_cast<double>(probes) / delta)) + 1.0) /
         static_cast<double>(k);
}

}  // namespace perfbench
