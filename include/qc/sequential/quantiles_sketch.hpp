// Sequential quantiles sketch with k-sized levels — the single-threaded base
// design that Quancurrent parallelizes (Karnin–Lang–Liberty-style compaction,
// as used by the paper's sequential baseline).
//
// Structure: a 2k-element base buffer of weight-1 items plus a ladder of
// levels, where level i holds at most one sorted array of exactly k items,
// each carrying weight 2^i.  When the base buffer fills, it is sorted and
// compacted (every other element, random parity) into a weight-2 array that
// propagates up the ladder, merging and re-compacting wherever a level is
// already occupied.  The expected normalized rank error is O(1/k).
//
// The base buffer presorts the way Quancurrent's updaters do (core/run_merge.hpp
// presort): every time it crosses a 16-item block boundary the newest block
// is network-sorted in place while it is still cache-hot, and the
// compaction/query paths produce the fully sorted base with one chunk merge
// of those blocks instead of a from-scratch full sort — the Ivkin-style
// amortization of update-time sort work.  Compaction writes into buffers the
// sketch keeps, so steady-state ingest allocates nothing.
//
// Queries go through the same merge-based engine as Quancurrent's Querier
// (core/run_merge.hpp): the levels are sorted runs already, so the summary is
// a multiway merge into a prefix-weight array, and quantile/rank are binary
// searches over it.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/options.hpp"
#include "core/run_merge.hpp"
#include "fault/inject.hpp"
#include "serde/binary.hpp"

namespace qc::sequential {

// Writes the odd- or even-indexed half of a sorted run into `out` (the KLL
// compaction step); the surviving items double their weight.
template <typename T>
void sample_odd_or_even(std::span<const T> sorted, bool keep_odd, std::vector<T>& out) {
  const std::size_t first = keep_odd ? 1 : 0;
  out.resize((sorted.size() + 1 - first) / 2);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = sorted[2 * i + first];
}

// Installs the k-sized sorted `carry` at `level` of a classic ladder
// (levels[i] holds one run of weight 2^(i+1)), merging and re-compacting
// upward while occupied — one rng coin per re-compaction, and one fused
// merge-compaction (core/run_merge.hpp merge_compact, the kernel
// Quancurrent's cascade runs) that writes only the kept half, into `spare`.
// Runs move between carry, spare and the level slots by swap, and a vacated
// slot keeps its capacity, so no step allocates once every level has held
// a run; `carry` comes back empty.  Shared by QuantilesSketch and the FCDS
// baseline (baselines/fcds.hpp), whose single-worker bit-for-bit
// equivalence depends on the two ladders staying in lockstep.
template <typename T, typename Compare, typename Rng>
void ladder_propagate(std::vector<std::vector<T>>& levels, std::vector<T>& carry,
                      std::vector<T>& spare, std::uint32_t level, Rng& rng,
                      Compare cmp) {
  for (;; ++level) {
    if (levels.size() < level) levels.resize(level);
    auto& slot = levels[level - 1];
    if (slot.empty()) {
      slot.reserve(carry.size());  // a new level brings storage for the next carry
      slot.swap(carry);
      return;
    }
    const std::uint32_t parity = rng.next_bool() ? 1 : 0;
    spare.resize((slot.size() + carry.size() + 1 - parity) / 2);
    core::merge_compact(slot.data(), slot.size(), carry.data(), carry.size(), parity,
                        spare.data(), cmp);
    slot.clear();
    carry.swap(spare);
  }
}

template <typename T, typename Compare = std::less<T>>
class QuantilesSketch {
  static_assert(std::is_trivially_copyable_v<T>,
                "binary serde ships items as raw bytes");

 public:
  using value_type = T;

  explicit QuantilesSketch(std::uint32_t k, std::uint64_t seed = 0x5eed5eed5eed5eedULL)
      // Same k ceiling as the concurrent engine (core::Options::kMaxK), so
      // serialized images of either engine never carry a k that deserialize
      // must reject.
      : k_(std::min(k == 0 ? 1 : k, core::Options::kMaxK)), rng_(seed), cmp_() {
    base_.reserve(2 * static_cast<std::size_t>(k_));
  }

  void update(const T& v) {
    base_.push_back(v);
    ++n_;
    dirty_ = true;
    if (base_.size() % core::kPresortBlock == 0) {
      // Sort the just-completed block while it is cache-hot; the base buffer
      // stays a sequence of sorted blocks plus an unsorted tail.
      core::small_sort(std::span<T>(base_).last(core::kPresortBlock), cmp_);
    }
    if (base_.size() == 2 * static_cast<std::size_t>(k_)) compact_base();
  }

  // Total number of elements fed into the sketch.
  std::uint64_t size() const { return n_; }

  // Number of items physically stored.
  std::uint64_t retained() const {
    std::uint64_t r = base_.size();
    for (const auto& level : levels_) r += level.size();
    return r;
  }

  std::uint32_t k() const { return k_; }

  // Estimated number of stream elements strictly less than `v`.
  std::uint64_t rank(const T& v) const {
    build_summary();
    return core::summary_rank(summary_, v, cmp_);
  }

  double cdf(const T& v) const {
    return n_ == 0 ? 0.0 : static_cast<double>(rank(v)) / static_cast<double>(n_);
  }

  // Estimated phi-quantile: the smallest retained item whose cumulative
  // weight reaches phi * n.
  T quantile(double phi) const {
    if (n_ == 0) return T{};
    build_summary();
    return core::summary_quantile(summary_, phi);
  }

  // The merged prefix-weight summary (rebuilt lazily after updates).
  const core::WeightedSummary<T>& summary() const {
    build_summary();
    return summary_;
  }

  // ----- merge --------------------------------------------------------------

  // Folds this sketch's contents into `target`: every occupied level becomes
  // a weight-preserving carry propagated up target's ladder (merging and
  // re-compacting where occupied, exactly as if the runs had been produced
  // there), and the base buffer replays as weight-1 updates.  Requires equal
  // k (level arrays are k-sized); returns false (and changes nothing) on a
  // k mismatch or self-merge.  The error bound composes: merging sketches
  // built from streams A and B yields a sketch whose rank error on A ∪ B is
  // within the same O(1/k) envelope as a single sketch fed both streams.
  bool merge_into(QuantilesSketch& target) const {
    if (target.k_ != k_ || &target == this) return false;
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].empty()) continue;
      target.carry_.assign(levels_[i].begin(), levels_[i].end());
      target.propagate(static_cast<std::uint32_t>(i + 1));
      target.n_ += static_cast<std::uint64_t>(k_) << (i + 1);
    }
    for (const T& v : base_) target.update(v);
    target.dirty_ = true;
    return true;
  }

  // ----- binary serde -------------------------------------------------------

  // Bytes serialize() will emit for the current state.
  std::size_t serialized_size() const {
    serde::Writer counter;
    write_payload(counter);
    return counter.bytes();
  }

  // Writes the versioned binary image (see serde/binary.hpp) into `out`;
  // returns the bytes written, or 0 when `out` is too small.  The image
  // captures the full query-visible state plus the compaction rng, so a
  // deserialized sketch answers bit-identically AND continues ingesting with
  // the same coin sequence the source would have used.
  std::size_t serialize(std::span<std::byte> out) const {
    serde::Writer w(out);
    write_payload(w);
    return w.ok() ? w.bytes() : 0;
  }

  // Reconstructs a sketch from serialize()'s image; empty optional on any
  // malformed input, with the precise reason in *status when provided.
  static std::optional<QuantilesSketch> deserialize(std::span<const std::byte> in,
                                                    serde::Status* status = nullptr) {
    serde::Reader r(in);
    const serde::Status hs = serde::read_header(r, serde::Engine::sequential,
                                                static_cast<std::uint8_t>(sizeof(T)));
    if (hs != serde::Status::ok) {
      serde::set_status(status, hs);
      return std::nullopt;
    }
    std::uint32_t k = 0;
    std::uint64_t chunk = 0;
    std::uint64_t n = 0;
    std::array<std::uint64_t, 4> rng_state{};
    if (!r.get(k) || !r.get(chunk) || !r.get(n) || !r.get(rng_state)) {
      serde::set_status(status, serde::Status::short_buffer);
      return std::nullopt;
    }
    // The constructor clamps k to core::Options::kMaxK, so no genuine image
    // carries a larger value — and rejecting it here keeps a crafted blob
    // from demanding a k-proportional allocation.
    if (k == 0 || k > core::Options::kMaxK ||
        chunk > 2 * static_cast<std::uint64_t>(k)) {
      serde::set_status(status, serde::Status::bad_payload);
      return std::nullopt;
    }
    // Every allocation below is bounded by the bytes actually present, but a
    // malformed input must still yield nullopt, never an escaping bad_alloc —
    // the same contract (and the same injection point) as the concurrent
    // engine's deserialize.
    try {
      QC_INJECT_OOM(deserialize_alloc);
      QuantilesSketch sk(k);
      sk.n_ = n;
      sk.rng_.set_state(rng_state);
      std::uint64_t base_count = 0;
      if (!r.get(base_count)) {
        serde::set_status(status, serde::Status::short_buffer);
        return std::nullopt;
      }
      if (base_count > 2 * static_cast<std::uint64_t>(k)) {
        serde::set_status(status, serde::Status::bad_payload);
        return std::nullopt;
      }
      // Bound the allocation by the bytes actually present (division so a
      // crafted count cannot overflow the check) BEFORE resizing.
      if (base_count > r.remaining() / sizeof(T)) {
        serde::set_status(status, serde::Status::short_buffer);
        return std::nullopt;
      }
      sk.base_.resize(static_cast<std::size_t>(base_count));
      if (!r.get_bytes(sk.base_.data(), sk.base_.size() * sizeof(T))) {
        serde::set_status(status, serde::Status::short_buffer);
        return std::nullopt;
      }
      // update() compacts a base the moment it holds 2k items, so a full
      // one is malformed (it would never compact again).
      if (base_count == 2 * static_cast<std::uint64_t>(k)) {
        serde::set_status(status, serde::Status::bad_payload);
        return std::nullopt;
      }
      // The base ships in ingestion order with its completed chunk-sized
      // blocks sorted in place by update(); an image violating that is
      // malformed.  Images written before the presort block was 16 declare
      // chunk 0 (an unsorted base) or another chunk length, so every
      // complete block is then sorted again at today's length, the layout
      // the chunk-merge paths trust.
      if (chunk > 1) {
        for (std::size_t off = 0; off + chunk <= sk.base_.size(); off += chunk) {
          const auto first = sk.base_.begin() + static_cast<std::ptrdiff_t>(off);
          if (!std::is_sorted(first, first + static_cast<std::ptrdiff_t>(chunk),
                              sk.cmp_)) {
            serde::set_status(status, serde::Status::bad_payload);
            return std::nullopt;
          }
        }
      }
      for (std::size_t off = 0; off + core::kPresortBlock <= sk.base_.size();
           off += core::kPresortBlock) {
        core::small_sort(std::span<T>(sk.base_).subspan(off, core::kPresortBlock),
                         sk.cmp_);
      }
      std::uint32_t num_levels = 0;
      if (!r.get(num_levels)) {
        serde::set_status(status, serde::Status::short_buffer);
        return std::nullopt;
      }
      if (num_levels > 64) {
        serde::set_status(status, serde::Status::bad_payload);
        return std::nullopt;
      }
      sk.levels_.resize(num_levels);
      for (auto& level : sk.levels_) {
        std::uint8_t occupied = 0;
        if (!r.get(occupied)) {
          serde::set_status(status, serde::Status::short_buffer);
          return std::nullopt;
        }
        if (occupied > 1) {
          serde::set_status(status, serde::Status::bad_payload);
          return std::nullopt;
        }
        if (occupied == 0) continue;
        if (k > r.remaining() / sizeof(T)) {
          serde::set_status(status, serde::Status::short_buffer);
          return std::nullopt;
        }
        level.resize(k);
        if (!r.get_bytes(level.data(), level.size() * sizeof(T))) {
          serde::set_status(status, serde::Status::short_buffer);
          return std::nullopt;
        }
        // Level arrays are sorted runs by construction; see the base check.
        if (!std::is_sorted(level.begin(), level.end(), sk.cmp_)) {
          serde::set_status(status, serde::Status::bad_payload);
          return std::nullopt;
        }
      }
      // n counts the stream the contents stand for: the base's weight-1
      // items plus k * 2^(i+1) per occupied level i.  A sum that overflows
      // is malformed too.
      std::uint64_t weight = base_count;
      for (std::size_t i = 0; i < sk.levels_.size(); ++i) {
        if (sk.levels_[i].empty()) continue;
        const std::uint64_t level_weight =
            i + 1 < 64 && k <= (~std::uint64_t{0} >> (i + 1))
                ? static_cast<std::uint64_t>(k) << (i + 1)
                : 0;
        if (level_weight == 0 || weight > ~std::uint64_t{0} - level_weight) {
          serde::set_status(status, serde::Status::bad_payload);
          return std::nullopt;
        }
        weight += level_weight;
      }
      if (weight != n) {
        serde::set_status(status, serde::Status::bad_payload);
        return std::nullopt;
      }
      sk.dirty_ = true;
      serde::set_status(status, serde::Status::ok);
      return sk;
    } catch (const std::bad_alloc&) {
      serde::set_status(status, serde::Status::bad_payload);
      return std::nullopt;
    }
  }

 private:
  void write_payload(serde::Writer& w) const {
    serde::write_header(w, serde::Engine::sequential,
                        static_cast<std::uint8_t>(sizeof(T)));
    w.put(k_);
    // The presort block, clamped to the 2k base a sketch with k < 8 has.
    w.put(static_cast<std::uint64_t>(
        std::min<std::size_t>(core::kPresortBlock, 2 * static_cast<std::size_t>(k_))));
    w.put(n_);
    w.put(rng_.state());
    w.put(static_cast<std::uint64_t>(base_.size()));
    // The base buffer ships in ingestion order so its sorted-block invariant
    // (every completed 16-item block is sorted in place) survives the round
    // trip and future updates resume mid-block correctly.
    w.put_bytes(base_.data(), base_.size() * sizeof(T));
    w.put(static_cast<std::uint32_t>(levels_.size()));
    for (const auto& level : levels_) {
      w.put(static_cast<std::uint8_t>(level.empty() ? 0 : 1));
      w.put_bytes(level.data(), level.size() * sizeof(T));
    }
  }

  // Sorts the full base (its unsorted tail block, then one chunk merge)
  // into scratch, keeps one parity into carry_ and propagates it.
  void compact_base() {
    const std::span<const T> sorted = presort_base(base_);
    sample_odd_or_even(sorted, rng_.next_bool(), carry_);
    base_.clear();
    propagate(1);
  }

  // Installs carry_ (k items) at `level`, merging upward while occupied.
  void propagate(std::uint32_t level) {
    ladder_propagate(levels_, carry_, spare_, level, rng_, cmp_);
  }

  // The sorted contents of `base` (base_ itself, or a copy of it): its
  // complete blocks are sorted already, so presort sorts only the tail
  // block and merges the blocks into sorted_base_.
  std::span<const T> presort_base(std::vector<T>& base) const {
    sorted_base_.resize(base.size());
    const std::size_t sorted_blocks = base.size() - base.size() % core::kPresortBlock;
    return core::presort(std::span<T>(base), std::span<T>(sorted_base_), merger_, cmp_,
                         sorted_blocks);
  }

  void build_summary() const {
    if (!dirty_) return;
    // The base buffer's sorted image is the one weight-1 run; every other
    // run (the occupied levels) is already sorted, and the multiway merge
    // assembles the summary.  The base stays in ingestion order, so its
    // tail block is sorted in a copy.
    query_base_.assign(base_.begin(), base_.end());
    const std::span<const T> sorted = presort_base(query_base_);
    runs_.clear();
    if (!sorted.empty()) runs_.push_back({sorted.data(), sorted.size(), 1});
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].empty()) continue;
      runs_.push_back({levels_[i].data(), levels_[i].size(), 1ULL << (i + 1)});
    }
    run_merger_.merge(std::span<const core::RunRef<T>>(runs_), summary_, cmp_);
    dirty_ = false;
  }

  std::uint32_t k_;
  Xoshiro256 rng_;
  Compare cmp_;
  std::uint64_t n_ = 0;
  std::vector<T> base_;                 // weight-1 items, sorted block-wise
  std::vector<std::vector<T>> levels_;  // levels_[i]: k items of weight 2^(i+1)
  // Compaction storage: the run moving up the ladder and the merge output
  // that swaps with it.
  std::vector<T> carry_;
  std::vector<T> spare_;
  // Presort storage of compaction and queries: the sorted base, its merge
  // scratch, and the copy a query sorts the tail block of.
  mutable std::vector<T> sorted_base_;
  mutable core::ChunkMerger<T, Compare> merger_;
  mutable std::vector<T> query_base_;
  mutable std::vector<core::RunRef<T>> runs_;
  mutable core::RunMerger<T, Compare> run_merger_;
  mutable core::WeightedSummary<T> summary_;
  mutable bool dirty_ = true;
};

}  // namespace qc::sequential
