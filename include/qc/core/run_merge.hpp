// Merge-based construction of weighted quantile summaries.
//
// A sketch snapshot is not an unordered bag of items: every level slot is a
// sorted k-run by construction (the KLL compactor invariant), and the only
// unsorted part is the small weight-1 tail.  Building the query summary is
// therefore a multiway merge of R items spread over L sorted runs — O(R log L)
// with a tournament (loser) tree — not an O(R log R) global sort.
//
// The summary itself is stored structure-of-arrays: a sorted item array plus
// a prefix-summed weight array.  That turns
//   quantile(phi) into a binary search over prefix weights, and
//   rank(v)/cdf(v) into a binary search over items,
// O(log R) per call instead of the previous O(R) linear scans.
//
// Ties between runs break by run index, so for a fixed run order the merge
// output is fully deterministic — which is what lets an incremental refresh
// (cached runs) and a full refresh (fresh copies) produce bit-identical
// summaries.
//
// A handful of answers does not need the summary at all: runs_rank and
// runs_quantile answer straight from the sorted runs (a rank is the weighted
// sum of per-run ranks) with the summary's exact results, at O(L log k) per
// call instead of the O(R log L) merge up front.  A quantile takes O(L log k)
// per round, about 2 interpolated rounds on a sketch's ladder and at most
// O(L log k) rounds.  RunView makes that choice for both query facades.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/small_sort.hpp"

namespace qc::core {

// One sorted run: `size` items at `data`, each carrying the same weight.
template <typename T>
struct RunRef {
  const T* data = nullptr;
  std::size_t size = 0;
  std::uint64_t weight = 1;
};

// Value-sorted weighted summary, structure-of-arrays: items() ascending and
// prefix_weights()[i] = total weight of items()[0..i].
template <typename T>
class WeightedSummary {
 public:
  void clear() {
    items_.clear();
    prefix_.clear();
  }

  void reserve(std::size_t n) {
    items_.reserve(n);
    prefix_.reserve(n);
  }

  void append(const T& item, std::uint64_t weight) {
    items_.push_back(item);
    prefix_.push_back(total_weight() + weight);
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::uint64_t total_weight() const { return prefix_.empty() ? 0 : prefix_.back(); }
  std::span<const T> items() const { return items_; }
  std::span<const std::uint64_t> prefix_weights() const { return prefix_; }

  friend bool operator==(const WeightedSummary& a, const WeightedSummary& b) {
    return a.items_ == b.items_ && a.prefix_ == b.prefix_;
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint64_t> prefix_;
};

// Smallest item whose cumulative weight reaches phi * total_weight, by binary
// search over the prefix-weight array.
template <typename T>
T summary_quantile(const WeightedSummary<T>& summary, double phi) {
  if (summary.empty()) return T{};
  const double target =
      std::clamp(phi, 0.0, 1.0) * static_cast<double>(summary.total_weight());
  const auto prefix = summary.prefix_weights();
  const auto it = std::partition_point(
      prefix.begin(), prefix.end(),
      [target](std::uint64_t c) { return static_cast<double>(c) < target; });
  const auto items = summary.items();
  return it == prefix.end() ? items.back()
                            : items[static_cast<std::size_t>(it - prefix.begin())];
}

// Total weight of items strictly less than `v`, by binary search over items.
template <typename T, typename Compare = std::less<T>>
std::uint64_t summary_rank(const WeightedSummary<T>& summary, const T& v,
                           Compare cmp = Compare()) {
  const auto items = summary.items();
  const auto idx = static_cast<std::size_t>(
      std::lower_bound(items.begin(), items.end(), v, cmp) - items.begin());
  return idx == 0 ? 0 : summary.prefix_weights()[idx - 1];
}

// Direct answers over sorted runs, without merging them.  Both return
// exactly what summary_rank / summary_quantile return on the summary
// RunMerger::merge builds from the same runs (value order, ties by run
// index, then by position), down to which of several equal items is chosen.

// Total weight of items strictly less than `v`: one lower_bound per run.
template <typename T, typename Compare = std::less<T>>
std::uint64_t runs_rank(std::span<const RunRef<T>> runs, const T& v,
                        Compare cmp = Compare()) {
  std::uint64_t rank = 0;
  for (const auto& r : runs) {
    rank += r.weight * static_cast<std::uint64_t>(
                           std::lower_bound(r.data, r.data + r.size, v, cmp) - r.data);
  }
  return rank;
}

// Exact weighted selection.  Every run keeps a candidate range [lo, hi) that
// contains the answer's value if it is in that run.  Each round picks a
// pivot, weighs the items <= pivot with one upper_bound per run, and cuts
// every range at the pivot, so a round costs O(L log k).
//
// The pivot is interpolated.  The runs are samples of one stream, so the
// target's share of the candidate weight, f = (target - below) / M (below:
// the weight under every range, M: the weight inside them), predicts where
// the answer sits in every run.  The pivot is the item at offset f * width
// of the run holding the most candidate weight; answers over a sketch's
// ladder take about 2 rounds.  Runs over disjoint value ranges (an ascending
// stream) defeat the prediction, so a round that did not halve its run's
// range is followed by one that bisects that range.  Every two rounds then
// at least halve some range: at worst twice the sum of ceil(log2(size + 1))
// over the runs, the bound of bisection alone.  The pivot never changes which
// item comes back.  `scratch` holds 3 * runs.size() indices (no allocation
// here).
template <typename T, typename Compare = std::less<T>>
T runs_quantile(std::span<const RunRef<T>> runs, std::uint64_t total_weight, double phi,
                std::span<std::size_t> scratch, Compare cmp = Compare()) {
  if (total_weight == 0) return T{};
  const std::size_t n = runs.size();
  QC_CHECK(scratch.size() >= 3 * n, "runs_quantile scratch smaller than 3 * runs");
  // summary_quantile's target and comparison, verbatim, so double rounding
  // picks the same item.
  const double target =
      std::clamp(phi, 0.0, 1.0) * static_cast<double>(total_weight);
  const auto reached = [target](std::uint64_t w) {
    return !(static_cast<double>(w) < target);
  };
  if (reached(0)) {  // phi <= 0 (or NaN): the merge's first item
    std::size_t first = n;
    for (std::size_t r = 0; r < n; ++r) {
      if (runs[r].size != 0 &&
          (first == n || cmp(runs[r].data[0], runs[first].data[0]))) {
        first = r;
      }
    }
    return runs[first].data[0];
  }
  std::size_t* lo = scratch.data();
  std::size_t* hi = lo + n;
  std::size_t* le = hi + n;
  for (std::size_t r = 0; r < n; ++r) {
    lo[r] = 0;
    hi[r] = runs[r].size;
  }
  std::size_t p = 0;      // the pivot's run
  std::size_t width = 0;  // its range before an interpolated round, else 0
  for (;;) {
    std::size_t at = 0;  // the pivot's index in run p
    if (width != 0 && 2 * (hi[p] - lo[p]) > width) {
      // The interpolated round did not halve run p's range: bisect it.
      at = lo[p] + (hi[p] - lo[p]) / 2;
      width = 0;
    } else {
      std::uint64_t below = 0;
      std::uint64_t mass = 0;
      std::uint64_t heaviest = 0;
      for (std::size_t r = 0; r < n; ++r) {
        below += runs[r].weight * lo[r];
        const std::uint64_t m = runs[r].weight * (hi[r] - lo[r]);
        mass += m;
        if (m > heaviest) {
          heaviest = m;
          p = r;
        }
      }
      width = hi[p] - lo[p];
      const double f = std::clamp(
          (target - static_cast<double>(below)) / static_cast<double>(mass), 0.0, 1.0);
      at = lo[p] + std::min(static_cast<std::size_t>(f * static_cast<double>(width)),
                            width - 1);
    }
    // The answer's items never leave their ranges, so a pivot past its run's
    // range means the runs were not sorted; reading it could overrun.
    QC_CHECK(at < hi[p], "runs_quantile input runs are not sorted");
    const T pivot = runs[p].data[at];
    std::uint64_t weight_le = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const T* d = runs[r].data;
      le[r] = static_cast<std::size_t>(
          std::upper_bound(d + lo[r], d + hi[r], pivot, cmp) - d);
      weight_le += runs[r].weight * le[r];
    }
    if (!reached(weight_le)) {  // the answer is above the pivot
      std::copy_n(le, n, lo);
      continue;
    }
    std::uint64_t weight_lt = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const T* d = runs[r].data;
      hi[r] = static_cast<std::size_t>(
          std::lower_bound(d + lo[r], d + le[r], pivot, cmp) - d);
      weight_lt += runs[r].weight * hi[r];
    }
    if (reached(weight_lt)) continue;  // the answer is below the pivot
    // The answer equals the pivot: walk its copies [hi, le) in merge order
    // to the first one whose prefix weight reaches the target.
    std::uint64_t before = weight_lt;
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint64_t w = runs[r].weight;
      const std::size_t copies = le[r] - hi[r];
      if (copies == 0 || !reached(before + w * copies)) {
        before += w * copies;
        continue;
      }
      std::size_t a = 1;
      std::size_t b = copies;
      while (a < b) {
        const std::size_t m = a + (b - a) / 2;
        if (reached(before + w * m)) {
          b = m;
        } else {
          a = m + 1;
        }
      }
      return runs[r].data[hi[r] + a - 1];
    }
    return pivot;  // unreachable: weight_le reached the target
  }
}

// Reusable L-way merge.  Holds its cursor and tree storage across calls so a
// refresh loop does not allocate once the vectors reach steady-state size.
//
// Two front ends share the loser tree:
//   merge()       — weighted summary output, run-index tie-break (the query
//                   engine; deterministic for cache/full refresh equivalence).
//   merge_items() — raw item output, no weights and no tie-break (equal items
//                   are interchangeable values), one comparison per tree node.
//                   This is the ingest path's Gather&Sort primitive: the batch
//                   owner merges the gather buffer's pre-sorted b-chunks
//                   instead of sorting 2k items from scratch.
template <typename T, typename Compare = std::less<T>>
class RunMerger {
 public:
  // Merges `runs` (each individually sorted under `cmp`) into `out`,
  // replacing its contents.  Ties break toward the lower run index.
  void merge(std::span<const RunRef<T>> runs, WeightedSummary<T>& out,
             Compare cmp = Compare()) {
    out.clear();
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size;
    out.reserve(total);
    if (total == 0) return;
    if (runs.size() == 1) {
      const auto& r = runs[0];
      for (std::size_t i = 0; i < r.size; ++i) out.append(r.data[i], r.weight);
      return;
    }
    runs_ = runs;
    cmp_ = cmp;
    run_tree(
        [this](std::size_t i, std::size_t j) {
          const T& a = runs_[i].data[pos_[i]];
          const T& b = runs_[j].data[pos_[j]];
          if (cmp_(a, b)) return true;
          if (cmp_(b, a)) return false;
          return i < j;
        },
        [this, &out](std::size_t w) {
          out.append(runs_[w].data[pos_[w]], runs_[w].weight);
        });
  }

  // Merges `runs` into the raw item array `out` (weights ignored), which must
  // hold at least the runs' total size.  Returns the number of items written.
  std::size_t merge_items(std::span<const RunRef<T>> runs, std::span<T> out,
                          Compare cmp = Compare()) {
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size;
    // Memory safety, not a debug nicety: the copy/merge below writes `total`
    // items through out.data(), so an undersized span is an overrun in
    // Release — exactly the class of invariant the policy reserves QC_CHECK
    // for (common/check.hpp).
    QC_CHECK(out.size() >= total, "merge_items output span smaller than input total");
    if (total == 0) return 0;
    if (runs.size() == 1) {
      std::copy_n(runs[0].data, runs[0].size, out.data());
      return total;
    }
    runs_ = runs;
    cmp_ = cmp;
    T* dst = out.data();
    run_tree(
        [this](std::size_t i, std::size_t j) {
          // No tie-break: equal raw items are interchangeable.
          return !cmp_(runs_[j].data[pos_[j]], runs_[i].data[pos_[i]]);
        },
        [this, &dst](std::size_t w) { *dst++ = runs_[w].data[pos_[w]]; });
    return total;
  }

 private:
  static constexpr std::size_t kExhausted = static_cast<std::size_t>(-1);

  // Builds the loser tree over runs_ and drains it, calling emit(run) once
  // per output item.  `less` compares the current fronts of two non-exhausted
  // leaves; exhausted leaves always lose.
  //
  // Loser tree over the implicit complete binary tree whose internal nodes
  // are 1..L-1 and whose leaves are L..2L-1 (leaf x = run x-L, parent x/2):
  // tree_[x] holds the loser of node x's subtree, tree_[0] the overall
  // winner.  kExhausted is an always-losing sentinel.  Built bottom-up via a
  // scratch winner array.
  template <typename Less, typename Emit>
  void run_tree(Less less, Emit emit) {
    const std::size_t num_runs = runs_.size();
    const auto wins = [&less](std::size_t i, std::size_t j) {
      if (i == kExhausted) return false;
      if (j == kExhausted) return true;
      return less(i, j);
    };
    pos_.assign(num_runs, 0);
    tree_.assign(num_runs, kExhausted);
    win_.assign(2 * num_runs, kExhausted);
    for (std::size_t i = 0; i < num_runs; ++i) {
      if (runs_[i].size != 0) win_[num_runs + i] = i;
    }
    for (std::size_t x = num_runs - 1; x >= 1; --x) {
      const std::size_t a = win_[2 * x];
      const std::size_t b = win_[2 * x + 1];
      if (wins(a, b)) {
        win_[x] = a;
        tree_[x] = b;
      } else {
        win_[x] = b;
        tree_[x] = a;
      }
    }
    tree_[0] = win_[1];

    while (tree_[0] != kExhausted) {
      const std::size_t w = tree_[0];
      emit(w);
      ++pos_[w];
      // Replay the path from leaf w to the root, leaving the new overall
      // winner in tree_[0] and losers along the path.
      std::size_t winner = pos_[w] < runs_[w].size ? w : kExhausted;
      for (std::size_t node = (w + num_runs) / 2; node > 0; node /= 2) {
        if (wins(tree_[node], winner)) std::swap(tree_[node], winner);
      }
      tree_[0] = winner;
    }
  }

  std::span<const RunRef<T>> runs_;
  Compare cmp_{};
  std::vector<std::size_t> pos_;
  std::vector<std::size_t> tree_;
  std::vector<std::size_t> win_;  // init-time scratch
};

// The answer side of a query view: sorted weighted runs pointing into
// buffers the owner keeps alive, their total weight, the lazily merged
// summary, and the cost rule that decides when merging pays.
// Quancurrent::Querier answers through one over its level runs and tail;
// ShardedQuancurrent::Querier over its shards' runs in shard order, which
// breaks ties toward the lower shard exactly as merging the per-shard
// summaries would.  One thread at a time, const members included.
template <typename T, typename Compare = std::less<T>>
class RunView {
 public:
  // `k` is the sketch's k, the cost rule's per-answer estimate.
  explicit RunView(std::uint32_t k, Compare cmp = Compare())
      : lg_k_(ceil_log2(k)), cmp_(cmp) {}

  // Clears and returns the next view's run list, with room in both run
  // lists and answer scratch for `max_runs` runs, so neither commit(), the
  // new view's first answers, nor a later stage() allocate for views of up
  // to `max_runs` runs.  May throw; the current view keeps answering.
  std::vector<RunRef<T>>& stage(std::size_t max_runs) {
    staged_.clear();
    staged_.reserve(max_runs);
    runs_.reserve(max_runs);
    if (scratch_.size() < 3 * max_runs) scratch_.resize(3 * max_runs);
    return staged_;
  }

  // Clears and returns the next view's run list, within the room an
  // earlier stage(max_runs) made.  No-throw.
  std::vector<RunRef<T>>& stage() noexcept {
    staged_.clear();
    return staged_;
  }

  // Publishes the staged run list.
  void commit() noexcept {
    runs_.swap(staged_);
    std::uint64_t items = 0;
    size_ = 0;
    for (const auto& r : runs_) {
      items += r.size;
      size_ += r.weight * r.size;
    }
    summary_ready_ = false;
    answers_ = 0;
    merge_after_ = runs_.empty() ? 0
                                 : items * ceil_log2(runs_.size()) /
                                       (2 * runs_.size() * lg_k_);
  }

  std::span<const RunRef<T>> runs() const { return runs_; }
  std::uint64_t size() const { return size_; }

  // Merged on first use (O(R log L)) and kept until the next commit.  May
  // throw bad_alloc; the view stays answerable.
  const WeightedSummary<T>& summary() const {
    if (!summary_ready_) materialize();
    return summary_;
  }

  // Exact: bit-identical to summary_quantile / summary_rank on summary().
  T quantile(double phi) const {
    if (use_summary()) return summary_quantile(summary_, phi);
    return runs_quantile(runs(), size_, phi, std::span<std::size_t>(scratch_), cmp_);
  }
  std::uint64_t rank(const T& v) const {
    if (use_summary()) return summary_rank(summary_, v, cmp_);
    return runs_rank(runs(), v, cmp_);
  }

  double cdf(const T& v) const {
    return size_ == 0 ? 0.0 : static_cast<double>(rank(v)) / static_cast<double>(size_);
  }

 private:
  static std::uint64_t ceil_log2(std::uint64_t x) {
    return std::max<std::uint64_t>(1, std::bit_width(x - 1));
  }

  // The cost rule.  Merging costs about R * log2(L) comparisons (loser tree
  // over L runs, R items), a direct quantile about 2 * L * log2(k) (about
  // two interpolated pivot rounds of L binary searches).  After merge_after_
  // direct answers the merge has paid for itself, so the view switches to
  // its summary; one that cannot be allocated keeps the view on the direct
  // path.  micro_primitives' "direct answers per merge" row measures the
  // break-even this estimates.
  bool use_summary() const {
    if (summary_ready_) return true;
    if (answers_ < merge_after_) {
      ++answers_;
      return false;
    }
    try {
      materialize();
    } catch (const std::bad_alloc&) {
      return false;
    }
    return true;
  }

  void materialize() const {
    merger_.merge(runs(), summary_, cmp_);
    summary_ready_ = true;
  }

  std::uint64_t lg_k_;
  Compare cmp_;
  std::vector<RunRef<T>> runs_;
  std::uint64_t size_ = 0;  // total weight of runs_
  std::vector<RunRef<T>> staged_;
  mutable WeightedSummary<T> summary_;
  mutable RunMerger<T, Compare> merger_;
  mutable bool summary_ready_ = false;
  mutable std::uint64_t answers_ = 0;
  std::uint64_t merge_after_ = 0;
  mutable std::vector<std::size_t> scratch_;  // runs_quantile's ranges
};

// Views `data` as consecutive sorted chunks of `chunk` items (the last chunk
// may be shorter) and appends one weight-1 RunRef per chunk to `runs` — the
// generic chunk-merge front end (pairs with RunMerger::merge_items).
template <typename T>
void chunk_runs(std::span<const T> data, std::size_t chunk,
                std::vector<RunRef<T>>& runs) {
  if (chunk == 0) chunk = data.size();
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    runs.push_back({data.data() + off, std::min(chunk, data.size() - off), 1});
  }
}

// Specialized high-throughput merge of consecutive pre-sorted chunks — the
// ingest hot path's Gather&Sort primitive (the batch owner copies the gather
// buffer's 2k/b updater-sorted b-chunks out through merge_staged and merges
// them into the sorted 2k install batch) and the sequential sketch's
// base-buffer compaction.
//
// Strategy: bottom-up pairwise merge passes (ping-ponged between `out` and an
// internal buffer, parity chosen so the final pass lands in `out`).  A
// two-way branchless merge is latency-bound — each step's loads depend on the
// previous comparison (~10 cycles/item/pass) — so every pass runs FOUR
// independent merge tasks interleaved in one loop, overlapping their
// dependency chains (~3x the single-chain throughput).  Late passes with
// fewer than four pairs are cut into independent tasks by merge-path
// partitioning (binary search for the output-midpoint split), so the chain
// count stays at four all the way to the last pass.  Early passes are
// cache-local by construction: a pass at chunk length c merges adjacent runs
// that are contiguous in memory.
//
// Unlike the loser tree this is O(R log(R/chunk)) total work rather than
// O(R log L) comparisons with pointer-chasing constants; micro_primitives
// times it against a std::sort of the whole batch across k x b.  The output
// value sequence is exactly what a full sort of `data` would produce.
template <typename T, typename Compare = std::less<T>>
class ChunkMerger {
 public:
  // Merges `data` (consecutive sorted `chunk`-length runs, last may be
  // short) into `out`; out.size() must equal data.size() and must not
  // overlap data.  chunk == 0 means data is one sorted run.
  void merge(std::span<const T> data, std::size_t chunk, std::span<T> out,
             Compare cmp = Compare()) {
    const std::size_t n = data.size();
    // Guards every write of the merge passes below; an undersized out would
    // be an out-of-bounds write in Release, so this is QC_CHECK territory.
    QC_CHECK(out.size() == n, "ChunkMerger::merge output span must match input size");
    cmp_ = cmp;
    if (chunk == 0) chunk = n;
    const std::size_t passes = pass_count(n, chunk);
    if (passes == 0) {
      std::copy(data.begin(), data.end(), out.begin());
      return;
    }
    if (tmp_.size() < n) tmp_.resize(n);
    run_passes(data.data(), n, chunk, passes, out.data());
  }

  // The same merge for a caller that must let go of its input before the
  // merge runs (the batch owner reopens its gather buffer after one copy).
  // stage(span) is handed the buffer the first pass reads and must write the
  // out.size() chunked items there: tmp_ or `out`, whichever the pass parity
  // keeps clear of the first pass's writes, or `out` itself when there is
  // nothing to merge.  The passes then run from it in place, so the result
  // is bit-identical to merge()'s and no buffer beyond tmp_ is needed.
  template <typename Stage>
  void merge_staged(std::size_t chunk, std::span<T> out, Stage&& stage,
                    Compare cmp = Compare()) {
    const std::size_t n = out.size();
    cmp_ = cmp;
    if (chunk == 0) chunk = n;
    const std::size_t passes = pass_count(n, chunk);
    if (passes == 0) {
      stage(out);
      return;
    }
    if (tmp_.size() < n) tmp_.resize(n);
    T* const src = passes % 2 == 1 ? tmp_.data() : out.data();
    stage(std::span<T>(src, n));
    run_passes(src, n, chunk, passes, out.data());
  }

 private:
  static constexpr std::size_t kChains = 4;

  // Pairwise passes needed to merge n items in chunk-length runs.
  static std::size_t pass_count(std::size_t n, std::size_t chunk) {
    std::size_t passes = 0;
    for (std::size_t c = chunk; c < n; c *= 2) ++passes;
    return passes;
  }

  // The bottom-up pass loop: `passes` (>= 1) pairwise passes from `src`,
  // ping-ponged between tmp_ (already sized) and `out`, parity chosen so the
  // last pass lands in `out`.  The first pass must not write `src`, which
  // holds when src is the input of merge() or the buffer merge_staged picks.
  void run_passes(const T* src, std::size_t n, std::size_t chunk,
                  std::size_t passes, T* out) {
    T* bufs[2] = {tmp_.data(), out};
    std::size_t pi = (passes % 2) ^ 1;  // parity: the last pass writes `out`
    for (std::size_t c = chunk; c < n; c *= 2) {
      T* dst = bufs[pi ^ 1];
      tasks_.clear();
      const std::size_t pairs = (n + 2 * c - 1) / (2 * c);
      const std::size_t ways = pairs >= kChains ? 1 : (kChains + pairs - 1) / pairs;
      for (std::size_t lo = 0; lo < n; lo += 2 * c) {
        const T* xe = src + std::min(lo + c, n);
        const T* ye = src + std::min(lo + 2 * c, n);
        push_split({src + lo, xe, xe, ye, dst + lo}, ways);
      }
      run_tasks();
      src = dst;
      pi ^= 1;
    }
  }

  struct Task {
    const T *x, *xe, *y, *ye;
    T* o;
  };
  struct Chain {
    const T *x = nullptr, *xe = nullptr, *y = nullptr, *ye = nullptr;
    T* o = nullptr;
    bool active = false;
  };

  // Splits `t` into `ways` tasks of near-equal output size by merge-path
  // partitioning: binary-search the split (i, j), i + j = mid, such that
  // x[0..i) and y[0..j) are exactly the first `mid` outputs of the merge.
  void push_split(Task t, std::size_t ways) {
    const std::size_t p = static_cast<std::size_t>(t.xe - t.x);
    const std::size_t q = static_cast<std::size_t>(t.ye - t.y);
    if (ways <= 1 || p + q < 128) {
      tasks_.push_back(t);
      return;
    }
    const std::size_t mid = (p + q) / 2;
    std::size_t lo = mid > q ? mid - q : 0;
    std::size_t hi = std::min(mid, p);
    while (lo < hi) {
      const std::size_t i = (lo + hi) / 2;
      const std::size_t j = mid - i;
      if (i < p && j > 0 && cmp_(t.x[i], t.y[j - 1])) {
        lo = i + 1;
      } else if (i > 0 && j < q && cmp_(t.y[j], t.x[i - 1])) {
        hi = i;
      } else {
        lo = i;
        break;
      }
    }
    const std::size_t i = lo;
    const std::size_t j = mid - lo;
    push_split({t.x, t.x + i, t.y, t.y + j, t.o}, ways / 2);
    push_split({t.x + i, t.xe, t.y + j, t.ye, t.o + mid}, ways - ways / 2);
  }

  // Single-chain branchless drain of one task; the inner loop is guard-free
  // because neither side can exhaust within min(remaining_x, remaining_y)
  // steps.
  void finish(Chain& ch) {
    const T* x = ch.x;
    const T* y = ch.y;
    T* o = ch.o;
    for (;;) {
      const std::size_t m = static_cast<std::size_t>(
          std::min(ch.xe - x, ch.ye - y));
      if (m == 0) break;
      for (std::size_t i = 0; i < m; ++i) {
        const T vx = *x;
        const T vy = *y;
        const bool t = cmp_(vy, vx);
        *o++ = t ? vy : vx;
        x += !t;
        y += t;
      }
    }
    while (x != ch.xe) *o++ = *x++;
    while (y != ch.ye) *o++ = *y++;
    ch.active = false;
  }

  // Runs the pass's tasks on four interleaved chains.  Each block iteration
  // advances every chain by one guard-free step; a chain whose task ends is
  // tail-drained and refilled from the task list.
  void run_tasks() {
    std::size_t next = 0;
    Chain c0, c1, c2, c3;
    const auto feed = [&](Chain& ch) {
      if (!ch.active && next < tasks_.size()) {
        const Task& t = tasks_[next++];
        ch = {t.x, t.xe, t.y, t.ye, t.o, true};
      }
    };
    feed(c0);
    feed(c1);
    feed(c2);
    feed(c3);
    while (c0.active && c1.active && c2.active && c3.active) {
      const std::size_t m0 = static_cast<std::size_t>(std::min(c0.xe - c0.x, c0.ye - c0.y));
      const std::size_t m1 = static_cast<std::size_t>(std::min(c1.xe - c1.x, c1.ye - c1.y));
      const std::size_t m2 = static_cast<std::size_t>(std::min(c2.xe - c2.x, c2.ye - c2.y));
      const std::size_t m3 = static_cast<std::size_t>(std::min(c3.xe - c3.x, c3.ye - c3.y));
      const std::size_t m = std::min(std::min(m0, m1), std::min(m2, m3));
      const T *x0 = c0.x, *y0 = c0.y, *x1 = c1.x, *y1 = c1.y;
      const T *x2 = c2.x, *y2 = c2.y, *x3 = c3.x, *y3 = c3.y;
      T *o0 = c0.o, *o1 = c1.o, *o2 = c2.o, *o3 = c3.o;
      for (std::size_t i = 0; i < m; ++i) {
        const T a0 = *x0, b0 = *y0;
        const bool t0 = cmp_(b0, a0);
        const T a1 = *x1, b1 = *y1;
        const bool t1 = cmp_(b1, a1);
        const T a2 = *x2, b2 = *y2;
        const bool t2 = cmp_(b2, a2);
        const T a3 = *x3, b3 = *y3;
        const bool t3 = cmp_(b3, a3);
        o0[i] = t0 ? b0 : a0;
        x0 += !t0;
        y0 += t0;
        o1[i] = t1 ? b1 : a1;
        x1 += !t1;
        y1 += t1;
        o2[i] = t2 ? b2 : a2;
        x2 += !t2;
        y2 += t2;
        o3[i] = t3 ? b3 : a3;
        x3 += !t3;
        y3 += t3;
      }
      c0.x = x0, c0.y = y0, c0.o = o0 + m;
      c1.x = x1, c1.y = y1, c1.o = o1 + m;
      c2.x = x2, c2.y = y2, c2.o = o2 + m;
      c3.x = x3, c3.y = y3, c3.o = o3 + m;
      if (c0.x == c0.xe || c0.y == c0.ye) {
        finish(c0);
        feed(c0);
      }
      if (c1.x == c1.xe || c1.y == c1.ye) {
        finish(c1);
        feed(c1);
      }
      if (c2.x == c2.xe || c2.y == c2.ye) {
        finish(c2);
        feed(c2);
      }
      if (c3.x == c3.xe || c3.y == c3.ye) {
        finish(c3);
        feed(c3);
      }
    }
    if (c0.active) finish(c0);
    if (c1.active) finish(c1);
    if (c2.active) finish(c2);
    if (c3.active) finish(c3);
  }

  Compare cmp_{};
  std::vector<T> tmp_;
  std::vector<Task> tasks_;
};

// Block length of the ingest presort: small_sort's largest network.
inline constexpr std::size_t kPresortBlock = 16;

// The ingest presort all three sketches share (the Quancurrent Updater's
// local buffer, the sequential sketch's base buffer, an FCDS worker's
// buffer): small_sort every kPresortBlock-item block of `data` in place (the
// last may be shorter) from offset `presorted` on, a whole number of blocks
// the caller sorted already, then chunk-merge the blocks into `out`.
// Returns the sorted sequence: `data` itself when it is one block and there
// is nothing to merge, otherwise `out`, which must then hold data.size()
// items and not overlap `data`.
template <typename T, typename Compare>
std::span<const T> presort(std::span<T> data, std::span<T> out,
                           ChunkMerger<T, Compare>& merger, Compare cmp = Compare(),
                           std::size_t presorted = 0) {
  for (std::size_t off = presorted; off < data.size(); off += kPresortBlock) {
    small_sort(data.subspan(off, std::min(kPresortBlock, data.size() - off)), cmp);
  }
  if (data.size() <= kPresortBlock) return data;
  merger.merge(std::span<const T>(data), kPresortBlock, out, cmp);
  return out;
}

namespace detail {

// One chain of merge_compact: the input ranges it consumes and where its
// kept items go.
template <typename T>
struct CompactChain {
  const T *x, *xe, *y, *ye;
  T* o;
};

template <typename T>
std::size_t compact_pairs(const CompactChain<T>& c) noexcept {
  return static_cast<std::size_t>(std::min(c.xe - c.x, c.ye - c.y)) / 2;
}

// Two branchless stable merge steps (ties from x); returns the item of the
// second step when Odd, else of the first.
template <bool Odd, typename T, typename Compare>
T compact_pair(const T*& x, const T*& y, Compare& cmp) noexcept {
  const T a0 = *x, b0 = *y;
  const bool t0 = cmp(b0, a0);
  x += !t0;
  y += t0;
  const T a1 = *x, b1 = *y;
  const bool t1 = cmp(b1, a1);
  x += !t1;
  y += t1;
  if constexpr (Odd) {
    return t1 ? b1 : a1;
  } else {
    return t0 ? b0 : a0;
  }
}

// Stable merge-path split: how many items of `a` are among the first `s`
// outputs of std::merge(a, b), searched within [lo, hi].  a[i] is among
// them unless b[s - i - 1] < a[i].
template <typename T, typename Compare>
std::size_t merge_path_split(const T* a, const T* b, std::size_t s, std::size_t lo,
                             std::size_t hi, Compare& cmp) noexcept {
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;
    if (cmp(b[s - i - 1], a[i])) {
      hi = i;
    } else {
      lo = i + 1;
    }
  }
  return lo;
}

// Drains one chain: guard-free pairs while both sides hold two items, then
// a guarded tail, then every other item of the side that is left.
template <bool Odd, typename T, typename Compare>
void compact_finish(CompactChain<T>& c, Compare& cmp) noexcept {
  const T* x = c.x;
  const T* y = c.y;
  T* o = c.o;
  for (std::size_t m = compact_pairs(c); m != 0; m = compact_pairs(c)) {
    for (std::size_t i = 0; i < m; ++i) *o++ = compact_pair<Odd>(x, y, cmp);
    c.x = x;
    c.y = y;
  }
  bool odd = false;  // parity of the next position; the chain began even
  while (x != c.xe && y != c.ye) {
    const bool t = cmp(*y, *x);
    const T v = t ? *y : *x;
    x += !t;
    y += t;
    if (odd == Odd) *o++ = v;
    odd = !odd;
  }
  const T* r = x != c.xe ? x : y;
  const auto rest = static_cast<std::size_t>(x != c.xe ? c.xe - x : c.ye - y);
  for (std::size_t i = odd == Odd ? 0 : 1; i < rest; i += 2) *o++ = r[i];
}

// Runs four chains interleaved: each block advances every chain by the
// pairs the shortest guard-free stretch allows, until one chain cannot take
// a pair; then each chain is finished on its own.
template <bool Odd, typename T, typename Compare>
void compact_chains(CompactChain<T> (&c)[4], Compare& cmp) noexcept {
  for (;;) {
    const std::size_t m = std::min(std::min(compact_pairs(c[0]), compact_pairs(c[1])),
                                   std::min(compact_pairs(c[2]), compact_pairs(c[3])));
    if (m == 0) break;
    const T *x0 = c[0].x, *y0 = c[0].y, *x1 = c[1].x, *y1 = c[1].y;
    const T *x2 = c[2].x, *y2 = c[2].y, *x3 = c[3].x, *y3 = c[3].y;
    T *o0 = c[0].o, *o1 = c[1].o, *o2 = c[2].o, *o3 = c[3].o;
    for (std::size_t i = 0; i < m; ++i) {
      o0[i] = compact_pair<Odd>(x0, y0, cmp);
      o1[i] = compact_pair<Odd>(x1, y1, cmp);
      o2[i] = compact_pair<Odd>(x2, y2, cmp);
      o3[i] = compact_pair<Odd>(x3, y3, cmp);
    }
    c[0].x = x0, c[0].y = y0, c[0].o = o0 + m;
    c[1].x = x1, c[1].y = y1, c[1].o = o1 + m;
    c[2].x = x2, c[2].y = y2, c[2].o = o2 + m;
    c[3].x = x3, c[3].y = y3, c[3].o = o3 + m;
  }
  for (auto& chain : c) compact_finish<Odd>(chain, cmp);
}

}  // namespace detail

// Fused merge-compaction, the KLL compactor step: merges the sorted runs
// a[0..na) and b[0..nb) stably (ties from `a`, exactly as std::merge) and
// writes only the merged positions p with p % 2 == parity, in order, to
// dest.  Returns the count written, (na + nb + 1 - parity) / 2.  The result
// is bit-identical to std::merge into a buffer followed by a stride-2 copy,
// without the buffer and without writing the half that is dropped.
//
// Stable merge-path splits (Odeh et al., "Merge Path", 2012) cut the output
// into four chains at even positions, so every chain starts on the same
// parity.  The chains run interleaved in one branchless loop, four
// independent dependency chains as in ChunkMerger::run_tasks, and each pair
// of merge steps emits one item; each chain ends with a guarded tail.  The
// splits fix how many items each chain reads from a and from b and writes
// to dest, so even unsorted input cannot read past either run or write past
// dest[count): it only comes out unsorted.  Allocation-free and noexcept, so
// the install latch's cascade (apply_cascade) stays no-throw.
template <typename T, typename Compare = std::less<T>>
std::size_t merge_compact(const T* a, std::size_t na, const T* b, std::size_t nb,
                          std::uint32_t parity, T* dest, Compare cmp = Compare()) noexcept {
  const std::size_t n = na + nb;
  const bool odd = (parity & 1) != 0;
  detail::CompactChain<T> chains[4]{};
  std::size_t ia = 0;  // items of `a` before the current chain
  std::size_t s = 0;   // output position the current chain starts at (even)
  for (std::size_t c = 0; c < 4; ++c) {
    const std::size_t e = c == 3 ? n : 2 * ((c + 1) * (n / 2) / 4);
    // The search range keeps both cuts monotone whatever the input holds.
    const std::size_t ie =
        c == 3 ? na
               : detail::merge_path_split(a, b, e, std::max(ia, e > nb ? e - nb : 0),
                                          std::min(na, ia + (e - s)), cmp);
    chains[c] = {a + ia, a + ie, b + (s - ia), b + (e - ie), dest + s / 2};
    ia = ie;
    s = e;
  }
  if (odd) {
    detail::compact_chains<true>(chains, cmp);
  } else {
    detail::compact_chains<false>(chains, cmp);
  }
  return (n + (odd ? 0 : 1)) / 2;
}

// The pre-merge-engine summary construction — flatten every run into (item,
// weight) pairs and globally sort.  Kept only as the reference the merge
// tests compare against and the baseline micro_primitives benches against.
template <typename T, typename Compare = std::less<T>>
void sort_merge_runs(std::span<const RunRef<T>> runs, WeightedSummary<T>& out,
                     std::vector<std::pair<T, std::uint64_t>>& scratch,
                     Compare cmp = Compare()) {
  scratch.clear();
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size;
  scratch.reserve(total);
  for (const auto& r : runs) {
    for (std::size_t i = 0; i < r.size; ++i) scratch.emplace_back(r.data[i], r.weight);
  }
  std::sort(scratch.begin(), scratch.end(),
            [&cmp](const auto& a, const auto& b) { return cmp(a.first, b.first); });
  out.clear();
  out.reserve(total);
  for (const auto& [item, weight] : scratch) out.append(item, weight);
}

}  // namespace qc::core
