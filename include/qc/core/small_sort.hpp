// small_sort: branchless sorting networks (Batcher odd-even mergesort,
// compile-time generated, fully unrolled, cmov compare-exchanges over
// order-preserving integer images for float/double) for the 16-item blocks
// of the ingest presort (core/run_merge.hpp presort); every update of all
// three sketches passes through it, so its constant factor is the
// writer-side cost of the pipeline (~6x faster than std::sort at n = 16).
//
// NaNs are not supported (same precondition std::sort has with operator<;
// the image-based networks place NaNs by bit pattern).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>

namespace qc::core {
namespace detail {

// Maps a value to an unsigned image whose natural order matches the value
// order: unsigned stays as-is, signed flips the sign bit, floats flip the
// sign bit for positives and all bits for negatives.
template <typename T>
std::uint64_t sort_key(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    Bits u = std::bit_cast<Bits>(v);
    const Bits sign = Bits{1} << (sizeof(Bits) * 8 - 1);
    u ^= (u & sign) ? ~Bits{0} : sign;
    return u;
  } else if constexpr (std::is_signed_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<U>(v) ^ (U{1} << (sizeof(U) * 8 - 1));
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

// Inverse of sort_key's floating-point image (an involution pair): recovers
// the original bit pattern from the order-preserving unsigned image.
template <typename T>
T from_sort_image(std::uint64_t key) {
  using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  Bits u = static_cast<Bits>(key);
  const Bits sign = Bits{1} << (sizeof(Bits) * 8 - 1);
  u ^= (u & sign) ? sign : ~Bits{0};
  return std::bit_cast<T>(u);
}

// Floating-point types sort via the image so the networks are branchless
// (unsigned min/max compiles to cmp + cmov) AND remain true permutations of
// the input bits: IEEE min/max instructions return the second operand for
// {+0.0, -0.0} pairs, which would duplicate one zero and destroy the other.
// The image order refines operator< (-0.0 sorts before +0.0; NaNs land by
// bit pattern), so a floating-point block sorts to the same bytes whatever
// its input order.
template <typename T, typename Compare>
inline constexpr bool network_uses_image =
    std::is_floating_point_v<T> && std::is_same_v<Compare, std::less<T>>;

// Branchless compare-exchange: afterwards a <= b.  Relies on the compiler
// turning the ternaries into conditional moves (integers and the float
// images both do).
template <typename T, typename Compare>
inline void compare_exchange(T& a, T& b, Compare cmp) {
  const bool sw = cmp(b, a);
  const T lo = sw ? b : a;
  const T hi = sw ? a : b;
  a = lo;
  b = hi;
}

// Batcher odd-even mergesort compare-exchange schedule for power-of-two N,
// generated at compile time (correct by construction; O(N log^2 N) CEs).
template <std::size_t N>
constexpr auto batcher_schedule() {
  std::array<std::pair<std::uint16_t, std::uint16_t>, N * 10> ces{};
  std::size_t cnt = 0;
  for (std::size_t p = 1; p < N; p *= 2) {
    for (std::size_t k = p; k >= 1; k /= 2) {
      for (std::size_t j = k % p; j + k < N; j += 2 * k) {
        for (std::size_t i = 0; i < k; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            ces[cnt++] = {static_cast<std::uint16_t>(i + j),
                          static_cast<std::uint16_t>(i + j + k)};
          }
        }
      }
    }
  }
  return std::pair{ces, cnt};
}

// Fully unrolled network over a register-resident copy: the fold expression
// exposes the whole compare-exchange DAG to the scheduler, so independent
// exchanges within a network layer execute in parallel.  Floating-point
// inputs under the default ordering are converted to their order-preserving
// integer image once at load and back once at store (see network_uses_image).
template <std::size_t N, typename T, typename Compare>
inline void network_sort(T* v, Compare cmp) {
  constexpr auto sched = batcher_schedule<N>();
  if constexpr (network_uses_image<T, Compare>) {
    std::uint64_t r[N];
    for (std::size_t i = 0; i < N; ++i) r[i] = sort_key(v[i]);
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (compare_exchange(r[sched.first[I].first], r[sched.first[I].second],
                        std::less<std::uint64_t>{}),
       ...);
    }(std::make_index_sequence<sched.second>{});
    for (std::size_t i = 0; i < N; ++i) v[i] = from_sort_image<T>(r[i]);
  } else {
    T r[N];
    for (std::size_t i = 0; i < N; ++i) r[i] = v[i];
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (compare_exchange(r[sched.first[I].first], r[sched.first[I].second], cmp), ...);
    }(std::make_index_sequence<sched.second>{});
    for (std::size_t i = 0; i < N; ++i) v[i] = r[i];
  }
}

}  // namespace detail

// Sorts tiny runs: branchless unrolled networks for power-of-two sizes up to
// 16, std::sort otherwise.  This is the presort's block sort (stage 1 of the
// ingest pipeline): every buffer of up to 16 items, and every 16-item block
// of a larger one, goes through it while the data is still L1-hot, so the
// merges downstream only ever see sorted runs.
template <typename T, typename Compare = std::less<T>>
void small_sort(std::span<T> data, Compare cmp = Compare()) {
  switch (data.size()) {
    case 0:
    case 1:
      return;
    case 2:
      detail::compare_exchange(data[0], data[1], cmp);
      return;
    case 4:
      detail::network_sort<4>(data.data(), cmp);
      return;
    case 8:
      detail::network_sort<8>(data.data(), cmp);
      return;
    case 16:
      detail::network_sort<16>(data.data(), cmp);
      return;
    default:
      std::sort(data.begin(), data.end(), cmp);
      return;
  }
}

}  // namespace qc::core
