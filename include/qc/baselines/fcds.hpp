// FCDS-style concurrent quantiles baseline (Rinberg & Keidar, "Fast
// Concurrent Data Sketches") — the design Figure 10 compares Quancurrent
// against at matched relaxation.
//
// Architecture, as in the FCDS paper:
//
//   * N WORKERS, each owning TWO buffers of B elements.  A worker fills its
//     current buffer; when full it pre-sorts the buffer (core/run_merge.hpp
//     presort — sort work stays on the worker, exactly as Quancurrent's
//     updaters pre-sort their b-chunks, with the same code), marks it ready
//     with one release store, and switches to its other buffer.  If that buffer
//     is still awaiting the propagator, the worker BLOCKS — the bottleneck
//     Quancurrent's §5.5 analysis attributes FCDS's flat scaling to.
//   * ONE PROPAGATOR thread round-robins over the workers, consuming ready
//     buffers in per-worker FIFO order into a classic compaction ladder: the
//     sorted buffers accumulate as runs of a 2k base; a full base is
//     multiway-merged (core/run_merge.hpp RunMerger — the same primitive as
//     Quancurrent's Gather&Sort, so the baseline is not a strawman), halved
//     by odd/even sampling, and propagated up k-sized levels in storage the
//     propagator keeps.
//   * DOUBLE-BUFFERED SNAPSHOTS, WAIT-FREE READERS.  Every `publish_every`
//     propagated elements the propagator rebuilds the query summary into the
//     inactive snapshot buffer and flips the active index with one atomic
//     store.  Readers take no lock: they pin the buffer they answer from
//     with a per-buffer counter (pin, re-check the index, read, unpin), and
//     the propagator waits for the inactive buffer's pins to drain before
//     rebuilding it — so queries are wait-free (a reader retries at most
//     once per flip it races) and the fig10 mixed-workload comparison is no
//     longer handicapped by a snapshot mutex on the baseline's query path.
//     Between publishes, queries see a stale view — FCDS's query-side
//     relaxation.
//
// Relaxation: up to 2NB ingested elements (two B-buffers per worker) are
// invisible to the propagator at any time (analysis/relaxation.hpp).
//
// Determinism: with a single worker, B dividing 2k, and a quiesced sketch,
// every compaction block holds the same 2k stream elements a sequential
// QuantilesSketch would compact, and the compaction coin stream (one xoshiro
// bool per compaction, same seed) aligns — so quantile() and rank() match
// the sequential sketch bit-for-bit (tested).  A non-dividing B partitions
// the stream into different (equally valid) 2k blocks — worker buffers are
// pre-sorted, so a buffer straddling the boundary contributes its smallest
// items first — and answers stay within the same O(1/k) envelope.
//
// Thread contract: one Updater per worker index, one thread per Updater.
// quiesce() and the destructor require all updaters to have drained
// (destroyed or drain()ed); queries are safe concurrently with everything.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "core/run_merge.hpp"
#include "sequential/quantiles_sketch.hpp"

namespace qc::fcds {

template <typename T, typename Compare = std::less<T>>
class FcdsQuantiles {
  static_assert(std::is_trivially_copyable_v<T>,
                "worker buffers hand raw items across threads");

 private:
  struct Slot;  // per-worker double buffer, defined with the engine state below

 public:
  using value_type = T;

  struct Options {
    std::uint32_t k = 4096;              // summary size (level arrays hold k items)
    std::uint64_t worker_buffer = 1024;  // B: elements per worker buffer (two per worker)
    std::uint32_t num_workers = 1;       // N: worker slots (one Updater each)
    std::uint64_t publish_every = 4096;  // propagated elements between snapshot publishes
    std::uint64_t seed = 0x5eed5eed5eed5eedULL;  // compaction coin stream
  };

  explicit FcdsQuantiles(Options opts) : opts_(opts), rng_(opts.seed) {
    if (opts_.k < 2) opts_.k = 2;
    if (opts_.worker_buffer == 0) opts_.worker_buffer = 1;
    if (opts_.num_workers == 0) opts_.num_workers = 1;
    if (opts_.publish_every == 0) opts_.publish_every = 1;
    cap_ = 2 * static_cast<std::uint64_t>(opts_.k);
    base_.reserve(cap_);
    merged_.resize(cap_);
    slots_.reserve(opts_.num_workers);
    for (std::uint32_t w = 0; w < opts_.num_workers; ++w) {
      slots_.push_back(std::make_unique<Slot>(opts_.worker_buffer));
    }
    propagator_ = std::thread([this] { propagate_loop(); });
  }

  FcdsQuantiles(const FcdsQuantiles&) = delete;
  FcdsQuantiles& operator=(const FcdsQuantiles&) = delete;

  ~FcdsQuantiles() {
    stop_.store(true, std::memory_order_release);
    propagator_.join();
  }

  const Options& options() const { return opts_; }

  // ----- ingestion ---------------------------------------------------------

  // Per-worker ingestion handle; not thread-safe, one per worker index.
  class Updater {
   public:
    Updater(FcdsQuantiles& sketch, std::uint32_t worker_index)
        : sketch_(&sketch),
          slot_(sketch.slots_[worker_index % sketch.opts_.num_workers].get()),
          b_(sketch.opts_.worker_buffer),
          sorted_(sketch.opts_.worker_buffer) {
      // Two updaters sharing a slot race on its buffers; the modulo above
      // keeps a release build in-bounds, but the misuse must fail fast.
      // qc-lint-allow(qc-check-over-assert): the modulo makes Release
      // memory-safe regardless; the assert only names the misuse in debug.
      assert(worker_index < sketch.opts_.num_workers &&
             "one Updater per worker slot: index must be < num_workers");
    }

    Updater(const Updater&) = delete;
    Updater& operator=(const Updater&) = delete;
    Updater(Updater&& other) noexcept
        : sketch_(std::exchange(other.sketch_, nullptr)),
          slot_(other.slot_),
          b_(other.b_),
          cur_(other.cur_),
          count_(std::exchange(other.count_, 0)),
          sorted_(std::move(other.sorted_)),
          merger_(std::move(other.merger_)) {}
    Updater& operator=(Updater&&) = delete;

    ~Updater() { drain(); }

    void update(const T& v) {
      slot_->bufs[cur_].items[count_++] = v;
      if (count_ == b_) seal();
    }

    // Seals any partial buffer so every ingested element reaches the
    // propagator; called automatically on destruction.
    void drain() {
      if (sketch_ != nullptr && count_ != 0) seal();
    }

   private:
    // Pre-sorts the current buffer (worker-side sort, as FCDS prescribes),
    // publishes it to the propagator, and switches to the other buffer —
    // blocking until the propagator has consumed it (the 2NB relaxation
    // bound: a worker never holds more than two unconsumed buffers).  A
    // presort that merged into sorted_ swaps it with the buffer's storage:
    // sorted_ then holds this seal's unpublished input, which the next seal
    // may overwrite.
    void seal() {
      Buffer& buf = slot_->bufs[cur_];
      const std::span<const T> sorted =
          core::presort(std::span<T>(buf.items.data(), count_),
                        std::span<T>(sorted_.data(), count_), merger_, sketch_->cmp_);
      if (sorted.data() == sorted_.data()) buf.items.swap(sorted_);
      buf.count = count_;
      buf.full.store(true, std::memory_order_release);
      cur_ ^= 1;
      count_ = 0;
      Backoff backoff;
      while (slot_->bufs[cur_].full.load(std::memory_order_acquire)) backoff.spin();
    }

    FcdsQuantiles* sketch_;
    Slot* slot_;
    std::uint64_t b_;
    std::uint32_t cur_ = 0;
    std::uint64_t count_ = 0;
    std::vector<T> sorted_;  // presort output, B items
    core::ChunkMerger<T, Compare> merger_;
  };

  Updater make_updater(std::uint32_t worker_index) { return Updater(*this, worker_index); }

  // Waits until the propagator has consumed every sealed buffer, then forces
  // a snapshot publish, so queries see all ingested elements.
  // Precondition: no concurrent update() calls (updaters must have drained).
  void quiesce() {
    Backoff backoff;
    for (auto& slot : slots_) {
      for (const Buffer& buf : slot->bufs) {
        while (buf.full.load(std::memory_order_acquire)) backoff.spin();
      }
    }
    publish_req_.store(true, std::memory_order_release);
    while (publish_req_.load(std::memory_order_acquire)) backoff.spin();
  }

  // ----- queries (from the active published snapshot) ----------------------

  // Elements visible to queries right now (total weight of the active
  // snapshot); lags ingestion until the next publish or quiesce().
  std::uint64_t size() const {
    return with_snapshot(
        [](const WeightedSummaryT& snap) { return snap.total_weight(); });
  }

  T quantile(double phi) const {
    return with_snapshot([&](const WeightedSummaryT& snap) {
      return core::summary_quantile(snap, phi);
    });
  }

  std::uint64_t rank(const T& v) const {
    return with_snapshot([&](const WeightedSummaryT& snap) {
      return core::summary_rank(snap, v, cmp_);
    });
  }

  double cdf(const T& v) const {
    return with_snapshot([&](const WeightedSummaryT& snap) {
      const std::uint64_t total = snap.total_weight();
      return total == 0 ? 0.0
                        : static_cast<double>(core::summary_rank(snap, v, cmp_)) /
                              static_cast<double>(total);
    });
  }

  // Snapshot publishes performed so far (diagnostics).
  std::uint64_t publishes() const { return publishes_.load(std::memory_order_acquire); }

 private:
  friend class Updater;

  // One worker buffer.  `count` is written by the worker before the `full`
  // release store and read by the propagator after its acquire load, so it
  // needs no atomicity of its own; the worker only refills after observing
  // the propagator's `full = false` release store.
  struct Buffer {
    explicit Buffer(std::uint64_t b) : items(b) {}
    std::vector<T> items;
    std::uint64_t count = 0;
    std::atomic<bool> full{false};
  };

  struct Slot {
    explicit Slot(std::uint64_t b) : bufs{Buffer(b), Buffer(b)} {}
    alignas(64) Buffer bufs[2];
  };

  // The single propagation thread: consumes ready buffers (per-worker FIFO —
  // workers seal alternately starting at buffer 0, so alternating consumption
  // preserves each worker's stream order), feeds the ladder, and publishes
  // snapshots on cadence or on request.
  void propagate_loop() {
    // Assume the propagator role: every QC_GUARDED_BY(propagator_role_)
    // field below is now legal to touch, and ONLY from this function's call
    // tree — "a second thread rebuilds the ladder" (the PR 8 flip-race class)
    // becomes a compile error under -Wthread-safety instead of a TSan find.
    propagator_role_.assume();
    std::vector<std::uint32_t> next(slots_.size(), 0);
    Backoff idle;
    for (;;) {
      bool any = false;
      for (std::size_t w = 0; w < slots_.size(); ++w) {
        Buffer& buf = slots_[w]->bufs[next[w]];
        if (!buf.full.load(std::memory_order_acquire)) continue;
        ingest_sorted(std::span<const T>(buf.items.data(), buf.count));
        buf.full.store(false, std::memory_order_release);
        next[w] ^= 1;
        any = true;
      }
      if (publish_req_.load(std::memory_order_acquire)) {
        publish();
        publish_req_.store(false, std::memory_order_release);
      } else if (since_publish_ >= opts_.publish_every) {
        publish();
      }
      if (any) {
        idle.reset();
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) {
        propagator_role_.release();
        return;
      }
      idle.spin();
    }
  }

  // Appends one sorted worker buffer to the 2k base as (up to two) sorted
  // runs, compacting whenever the base fills.  Propagator-only.
  void ingest_sorted(std::span<const T> sorted) QC_REQUIRES(propagator_role_) {
    std::size_t off = 0;
    while (off < sorted.size()) {
      const std::size_t take =
          std::min<std::size_t>(sorted.size() - off, cap_ - base_.size());
      base_starts_.push_back(base_.size());
      base_.insert(base_.end(), sorted.begin() + static_cast<std::ptrdiff_t>(off),
                   sorted.begin() + static_cast<std::ptrdiff_t>(off + take));
      off += take;
      if (base_.size() == cap_) compact_base();
    }
    since_publish_ += sorted.size();
  }

  // Multiway-merges the base's sorted runs into the sorted 2k batch (the
  // same RunMerger primitive Quancurrent's query engine uses), halves it by
  // odd/even sampling, and propagates the carry up the ladder.
  void compact_base() QC_REQUIRES(propagator_role_) {
    runs_.clear();
    for (std::size_t i = 0; i < base_starts_.size(); ++i) {
      const std::size_t start = base_starts_[i];
      const std::size_t end = i + 1 < base_starts_.size() ? base_starts_[i + 1] : cap_;
      runs_.push_back({base_.data() + start, end - start, 1});
    }
    merger_.merge_items(std::span<const core::RunRef<T>>(runs_), std::span<T>(merged_),
                        cmp_);
    sequential::sample_odd_or_even(std::span<const T>(merged_.data(), cap_),
                                   rng_.next_bool(), carry_);
    base_.clear();
    base_starts_.clear();
    // The shared classic ladder (sequential/quantiles_sketch.hpp), so the
    // baseline's compaction can never drift from the sequential sketch's.
    sequential::ladder_propagate(levels_, carry_, spare_, 1u, rng_, cmp_);
  }

  // Reader side of the pin protocol: pick the active snapshot, pin it, then
  // RE-CHECK the index — a flip between the load and the pin would otherwise
  // let the propagator rebuild the buffer under the reader.  seq_cst on the
  // four racing operations (pin, re-check, flip, drain-check) closes the
  // classic store/load reordering window where the reader still sees the old
  // index while the propagator already sees a zero pin count — the same
  // discipline the engine's IBR announce/publish pair uses.  Readers never
  // block: a lost race costs one retry, and the index cannot flip again
  // until the propagator has drained this buffer's pins, so the second
  // attempt always lands.
  template <typename Fn>
  auto with_snapshot(Fn&& fn) const {
    for (;;) {
      const std::uint32_t idx = active_.load(std::memory_order_seq_cst);
      snap_pins_[idx].fetch_add(1, std::memory_order_seq_cst);
      if (active_.load(std::memory_order_seq_cst) == idx) {
        auto result = fn(snaps_[idx]);
        snap_pins_[idx].fetch_sub(1, std::memory_order_release);
        return result;
      }
      snap_pins_[idx].fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Rebuilds the query summary into the inactive snapshot buffer, then flips
  // the active index — no mutex anywhere (wait-free readers, see
  // with_snapshot).  The wait below is propagator-only and bounded: it
  // drains stragglers still pinning the buffer about to be rebuilt; new
  // readers pin the active buffer, so the count can only fall.
  void publish() QC_REQUIRES(propagator_role_) {
    const std::uint32_t next = active_.load(std::memory_order_relaxed) ^ 1;
    Backoff drain;
    while (snap_pins_[next].load(std::memory_order_seq_cst) != 0) drain.spin();
    WeightedSummaryT& snap = snaps_[next];
    runs_.clear();
    for (std::size_t i = 0; i < base_starts_.size(); ++i) {
      const std::size_t start = base_starts_[i];
      const std::size_t end =
          i + 1 < base_starts_.size() ? base_starts_[i + 1] : base_.size();
      runs_.push_back({base_.data() + start, end - start, 1});
    }
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].empty()) continue;
      runs_.push_back({levels_[i].data(), levels_[i].size(), 1ULL << (i + 1)});
    }
    snap_merger_.merge(std::span<const core::RunRef<T>>(runs_), snap, cmp_);
    active_.store(next, std::memory_order_seq_cst);
    publishes_.fetch_add(1, std::memory_order_acq_rel);
    since_publish_ = 0;
  }

  using WeightedSummaryT = core::WeightedSummary<T>;

  Options opts_;
  std::uint64_t cap_ = 0;  // base batch size: 2k
  Compare cmp_;
  Xoshiro256 rng_ QC_GUARDED_BY(propagator_role_);  // compaction coins

  std::vector<std::unique_ptr<Slot>> slots_;

  // Propagator-private ladder state, statically fenced off behind a phantom
  // role capability (common/annotations.hpp): the writer-side flip in
  // publish() and every ladder rebuild require the role only propagate_loop
  // assumes.
  sync::Role propagator_role_;
  // weight-1 items, a sequence of sorted runs
  std::vector<T> base_ QC_GUARDED_BY(propagator_role_);
  // start offset of each sorted run
  std::vector<std::size_t> base_starts_ QC_GUARDED_BY(propagator_role_);
  // sorted 2k batch scratch
  std::vector<T> merged_ QC_GUARDED_BY(propagator_role_);
  // levels_[i]: k items of weight 2^(i+1)
  std::vector<std::vector<T>> levels_ QC_GUARDED_BY(propagator_role_);
  // the run moving up the ladder, and the merge output that swaps with it
  std::vector<T> carry_ QC_GUARDED_BY(propagator_role_);
  std::vector<T> spare_ QC_GUARDED_BY(propagator_role_);
  std::vector<core::RunRef<T>> runs_ QC_GUARDED_BY(propagator_role_);
  core::RunMerger<T, Compare> merger_ QC_GUARDED_BY(propagator_role_);
  core::RunMerger<T, Compare> snap_merger_ QC_GUARDED_BY(propagator_role_);
  std::uint64_t since_publish_ QC_GUARDED_BY(propagator_role_) = 0;

  // Double-buffered published snapshots.  Readers pin the buffer they answer
  // from (snap_pins_), so a flip is one atomic index store and queries are
  // wait-free — the snapshot mutex this slot used to hold is gone.
  WeightedSummaryT snaps_[2];
  mutable std::array<std::atomic<std::uint64_t>, 2> snap_pins_{};
  std::atomic<std::uint32_t> active_{0};
  std::atomic<std::uint64_t> publishes_{0};

  std::atomic<bool> publish_req_{false};
  std::atomic<bool> stop_{false};
  std::thread propagator_;
};

}  // namespace qc::fcds
