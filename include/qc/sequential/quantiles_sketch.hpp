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
// The base buffer is kept as a sequence of pre-sorted chunks: every time it
// crosses a `presort_chunk` boundary the newest chunk is sorted in place
// while it is still cache-hot, and the compaction/query paths produce the
// fully sorted base with the same chunk-merge primitive Quancurrent's
// Gather&Sort uses (core/run_merge.hpp ChunkMerger) instead of a
// from-scratch full sort — the Ivkin-style amortization of update-time sort
// work.  The
// merged output is the same value sequence a full sort would produce, so the
// sketch's state and answers are bit-identical either way (presort_chunk = 0
// restores the plain full-sort path).
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

// Keeps the odd- or even-indexed half of a sorted run (the KLL compaction
// step); the surviving items double their weight.
template <typename T>
std::vector<T> sample_odd_or_even(std::span<const T> sorted, bool keep_odd) {
  std::vector<T> out;
  out.reserve((sorted.size() + (keep_odd ? 0 : 1)) / 2);
  for (std::size_t i = keep_odd ? 1 : 0; i < sorted.size(); i += 2) {
    out.push_back(sorted[i]);
  }
  return out;
}

// Installs a k-sized sorted carry at `level` of a classic ladder (levels[i]
// holds one run of weight 2^(i+1)), merging and re-compacting upward while
// occupied — one rng coin per re-compaction, and one fused merge-compaction
// (core/run_merge.hpp merge_compact, the kernel Quancurrent's cascade runs)
// that writes only the kept half.  Shared by QuantilesSketch and
// the FCDS baseline (baselines/fcds.hpp), whose single-worker bit-for-bit
// equivalence depends on the two ladders staying in lockstep.
template <typename T, typename Compare, typename Rng>
void ladder_propagate(std::vector<std::vector<T>>& levels, std::vector<T> carry,
                      std::uint32_t level, Rng& rng, Compare cmp) {
  for (;; ++level) {
    if (levels.size() < level) levels.resize(level);
    auto& slot = levels[level - 1];
    if (slot.empty()) {
      slot = std::move(carry);
      return;
    }
    const std::uint32_t parity = rng.next_bool() ? 1 : 0;
    std::vector<T> next((slot.size() + carry.size() + 1 - parity) / 2);
    core::merge_compact(slot.data(), slot.size(), carry.data(), carry.size(), parity,
                        next.data(), cmp);
    slot.clear();
    carry = std::move(next);
  }
}

template <typename T, typename Compare = std::less<T>>
class QuantilesSketch {
  static_assert(std::is_trivially_copyable_v<T>,
                "binary serde ships items as raw bytes");

 public:
  using value_type = T;

  explicit QuantilesSketch(std::uint32_t k, std::uint64_t seed = 0x5eed5eed5eed5eedULL,
                           std::uint32_t presort_chunk = 256)
      // Same k ceiling as the concurrent engine (core::Options::kMaxK), so
      // serialized images of either engine never carry a k that deserialize
      // must reject.
      : k_(std::min(k == 0 ? 1 : k, core::Options::kMaxK)), rng_(seed), cmp_() {
    base_.reserve(2 * static_cast<std::size_t>(k_));
    chunk_ = std::min<std::size_t>(presort_chunk, 2 * static_cast<std::size_t>(k_));
    if (chunk_ == 2 * static_cast<std::size_t>(k_)) chunk_ = 0;  // one chunk = full sort
  }

  void update(const T& v) {
    base_.push_back(v);
    ++n_;
    dirty_ = true;
    if (chunk_ > 1 && base_.size() % chunk_ == 0) {
      // Sort the just-completed chunk while it is cache-hot; the base buffer
      // stays a sequence of sorted chunk_-runs plus an unsorted tail.
      std::sort(base_.end() - static_cast<std::ptrdiff_t>(chunk_), base_.end(), cmp_);
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
      target.propagate(levels_[i], static_cast<std::uint32_t>(i + 1));
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
      sk.chunk_ = static_cast<std::size_t>(chunk);
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
      // The base ships in ingestion order, but its completed chunk_-sized
      // blocks are sorted in place by update() — the chunk-merge query path
      // trusts exactly that, so a crafted image violating it is malformed.
      if (sk.chunk_ > 1) {
        for (std::size_t off = 0; off + sk.chunk_ <= sk.base_.size();
             off += sk.chunk_) {
          const auto first = sk.base_.begin() + static_cast<std::ptrdiff_t>(off);
          if (!std::is_sorted(first, first + static_cast<std::ptrdiff_t>(sk.chunk_),
                              sk.cmp_)) {
            serde::set_status(status, serde::Status::bad_payload);
            return std::nullopt;
          }
        }
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
    w.put(static_cast<std::uint64_t>(chunk_));
    w.put(n_);
    w.put(rng_.state());
    w.put(static_cast<std::uint64_t>(base_.size()));
    // The base buffer ships in ingestion order so its sorted-chunk invariant
    // (every completed chunk_ block is sorted in place) survives the round
    // trip and future updates resume mid-chunk correctly.
    w.put_bytes(base_.data(), base_.size() * sizeof(T));
    w.put(static_cast<std::uint32_t>(levels_.size()));
    for (const auto& level : levels_) {
      w.put(static_cast<std::uint8_t>(level.empty() ? 0 : 1));
      w.put_bytes(level.data(), level.size() * sizeof(T));
    }
  }

  void compact_base() {
    sorted_base_into(compact_scratch_);
    std::vector<T> carry =
        sample_odd_or_even(std::span<const T>(compact_scratch_), rng_.next_bool());
    base_.clear();
    propagate(std::move(carry), 1);
  }

  // Installs a k-sized array at `level`, merging upward while occupied.
  void propagate(std::vector<T> carry, std::uint32_t level) {
    ladder_propagate(levels_, std::move(carry), level, rng_, cmp_);
  }

  // Produces the fully sorted contents of the base buffer in `out`.  With
  // chunk pre-sorting on, base_ is already a sequence of sorted chunk_-runs
  // (plus an unsorted tail below the last chunk boundary), so this is the
  // shared chunk-merge primitive, not a full sort; either path yields the
  // identical sorted value sequence.
  void sorted_base_into(std::vector<T>& out) const {
    const std::size_t n = base_.size();
    if (chunk_ <= 1 || n <= chunk_) {
      out = base_;
      std::sort(out.begin(), out.end(), cmp_);
      return;
    }
    chunk_scratch_ = base_;
    const std::size_t tail = n % chunk_;
    if (tail != 0) {
      std::sort(chunk_scratch_.end() - static_cast<std::ptrdiff_t>(tail),
                chunk_scratch_.end(), cmp_);
    }
    out.resize(n);
    chunk_merger_.merge(std::span<const T>(chunk_scratch_), chunk_, std::span<T>(out),
                        cmp_);
  }

  void build_summary() const {
    if (!dirty_) return;
    // The base buffer's sorted image is the one weight-1 run; every other
    // run (the occupied levels) is already sorted, and the multiway merge
    // assembles the summary.
    sorted_base_into(sorted_base_);
    runs_.clear();
    if (!sorted_base_.empty()) {
      runs_.push_back({sorted_base_.data(), sorted_base_.size(), 1});
    }
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].empty()) continue;
      runs_.push_back({levels_[i].data(), levels_[i].size(), 1ULL << (i + 1)});
    }
    merger_.merge(std::span<const core::RunRef<T>>(runs_), summary_, cmp_);
    dirty_ = false;
  }

  std::uint32_t k_;
  Xoshiro256 rng_;
  Compare cmp_;
  std::size_t chunk_ = 0;  // pre-sorted chunk length; <= 1 disables
  std::uint64_t n_ = 0;
  std::vector<T> base_;                 // weight-1 items, sorted chunk-wise
  std::vector<std::vector<T>> levels_;  // levels_[i]: k items of weight 2^(i+1)
  std::vector<T> compact_scratch_;
  mutable std::vector<T> sorted_base_;
  mutable std::vector<T> chunk_scratch_;
  mutable core::ChunkMerger<T, Compare> chunk_merger_;
  mutable std::vector<core::RunRef<T>> runs_;
  mutable core::RunMerger<T, Compare> merger_;
  mutable core::WeightedSummary<T> summary_;
  mutable bool dirty_ = true;
};

}  // namespace qc::sequential
