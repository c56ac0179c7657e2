// batch_sort: fast ascending full sort, FCDS's worker-side batch sort and
// the full-sort baseline micro_primitives times the Gather&Sort chunk merge
// against (the Quancurrent engine pre-sorts with small_sort and merges
// pre-sorted chunks: core/small_sort.hpp, core/run_merge.hpp ChunkMerger).
// For arithmetic keys under the default ordering this is an LSD radix sort
// over order-preserving bit images (sign-flipped integers, monotone-mapped
// IEEE floats), with per-byte histograms computed in one pass so that bytes
// on which all keys agree (e.g. the exponent bytes of uniform [0,1)
// doubles) are skipped entirely.  Other types or custom comparators fall
// back to std::sort.  NaNs are not supported (the radix path places them by
// bit pattern).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/small_sort.hpp"

namespace qc::core {
namespace detail {

template <typename T>
inline constexpr std::size_t key_bytes =
    std::is_floating_point_v<T> ? sizeof(T) : sizeof(std::uint64_t);

}  // namespace detail

template <typename T, typename Compare>
inline constexpr bool batch_sort_uses_radix =
    std::is_arithmetic_v<T> && !std::is_same_v<T, bool> &&
    std::is_same_v<Compare, std::less<T>>;

// Sorts `data` ascending using `aux` as scratch (resized to data.size()).
template <typename T, typename Compare = std::less<T>>
void batch_sort(std::span<T> data, std::vector<T>& aux, Compare cmp = Compare()) {
  if (data.size() < 64) {  // radix setup doesn't pay off on tiny runs
    small_sort(data, cmp);
    return;
  }
  if constexpr (!batch_sort_uses_radix<T, Compare>) {
    std::sort(data.begin(), data.end(), cmp);
  } else {
    const std::size_t n = data.size();
    if (aux.size() < n) aux.resize(n);

    constexpr std::size_t kBytes = detail::key_bytes<T>;
    std::array<std::array<std::uint32_t, 256>, kBytes> hist{};
    for (const T& v : data) {
      const std::uint64_t key = detail::sort_key(v);
      for (std::size_t b = 0; b < kBytes; ++b) {
        ++hist[b][(key >> (8 * b)) & 0xff];
      }
    }

    T* src = data.data();
    T* dst = aux.data();
    for (std::size_t b = 0; b < kBytes; ++b) {
      auto& counts = hist[b];
      // Skip bytes where every key agrees — no reordering can happen.
      if (std::any_of(counts.begin(), counts.end(),
                      [n](std::uint32_t c) { return c == n; })) {
        continue;
      }
      std::uint32_t offset = 0;
      for (auto& c : counts) {
        const std::uint32_t count = c;
        c = offset;
        offset += count;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const T v = src[i];
        dst[counts[(detail::sort_key(v) >> (8 * b)) & 0xff]++] = v;
      }
      std::swap(src, dst);
    }
    if (src != data.data()) {
      std::memcpy(data.data(), src, n * sizeof(T));
    }
  }
}

}  // namespace qc::core
