// Exact-rank oracle for the generated inputs.
//
// The benchmark's stream is a concatenation of known segments: the prefill,
// and each updater's pool replayed some whole number of times plus a prefix.
// The oracle keeps views of those segments with their multiplicities and
// answers "how many stream elements are < p" for a batch of probe values in
// one pass over each segment, without materializing or sorting the stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

class RankOracle {
 public:
  // Adds `times` copies of `data` to the stream.  The data must outlive the
  // oracle.
  void add(std::span<const double> data, std::uint64_t times) {
    if (times != 0 && !data.empty()) segments_.push_back({data, times});
  }

  // Adds an updater that consumed `consumed` elements by cycling `pool`.
  void add_cycled(std::span<const double> pool, std::uint64_t consumed) {
    if (pool.empty()) return;
    add(pool, consumed / pool.size());
    add(pool.first(static_cast<std::size_t>(consumed % pool.size())), 1);
  }

  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto& s : segments_) n += s.data.size() * s.times;
    return n;
  }

  // Exact number of stream elements strictly less than each probe, in the
  // probes' order.
  std::vector<std::uint64_t> ranks(const std::vector<double>& probes) const {
    std::vector<double> sorted = probes;
    std::sort(sorted.begin(), sorted.end());
    // hist[i] counts elements x with exactly i sorted probes <= x; then
    // x < sorted[j] exactly when its bucket index is <= j.
    std::vector<std::uint64_t> hist(sorted.size() + 1, 0);
    for (const auto& s : segments_) {
      std::vector<std::uint64_t> local(sorted.size() + 1, 0);
      for (const double x : s.data) {
        ++local[static_cast<std::size_t>(
            std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin())];
      }
      for (std::size_t i = 0; i < local.size(); ++i) hist[i] += local[i] * s.times;
    }
    std::vector<std::uint64_t> below(sorted.size(), 0);
    std::uint64_t run = 0;
    for (std::size_t j = 0; j < sorted.size(); ++j) {
      run += hist[j];
      below[j] = run;
    }
    std::vector<std::uint64_t> out(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto j = static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), probes[i]) - sorted.begin());
      out[i] = below[j];
    }
    return out;
  }

 private:
  struct Segment {
    std::span<const double> data;
    std::uint64_t times;
  };
  std::vector<Segment> segments_;
};

}  // namespace perfbench
