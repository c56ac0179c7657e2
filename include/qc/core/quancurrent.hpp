// Quancurrent: the concurrent quantiles sketch (Elias-Zada, Rinberg, Keidar,
// SPAA 2023) over the KLL-style compaction ladder in
// sequential/quantiles_sketch.hpp.
//
// Ingestion pipeline — three decoupled stages, each parallel or amortized:
//
//   1. PRE-SORT (every update thread).  Updates land in a per-thread local
//      buffer of b items; when it fills, the thread sorts it in place and
//      only then flushes, so sort work is spread across all writer threads
//      while the data is L1-hot.
//   2. GATHER & MERGE (the batch owner).  A flush F&A-reserves b slots in the
//      2k-element Gather&Sort buffer of the thread's NUMA node; the thread
//      that commits the last slot becomes the batch OWNER.  Because every
//      flush is a sorted b-chunk at a b-aligned offset (Options::normalize
//      makes b divide 2k), the full buffer is 2k/b sorted runs and the owner
//      produces the sorted 2k batch with a multiway chunk merge
//      (run_merge.hpp ChunkMerger, O(2k log(2k/b))) instead of a
//      from-scratch O(2k log 2k) sort.  The owner first claims a free cell
//      of the install queue, then copies the buffer out in one 2k memcpy
//      (into the merge's own first-pass scratch) and reopens its gather
//      ordinal, and only then merges the copy into the cell — ingestion
//      into that buffer resumes during the merge, not after it, and two
//      owners of one buffer may merge at once, each in its own thread's
//      scratch.
//   3. INSTALL (one owner at a time).  Sorted batches are handed to a bounded
//      MPSC ring (Options::install_queue cells); whichever owner holds the
//      install latch installs the oldest pending batch and publishes it with
//      its own tritmap CAS, as in the paper.  Owners help drain the ring
//      until their own batch is installed, so an owner whose batch another
//      drainer installed returns to ingesting without ever holding the latch.
//      The install's cascade is the latch hold, so each of its compaction
//      steps writes only the half it keeps, straight into the fresh block
//      one level up: a stride over the 2k batch at level 0, and above it one
//      fused pass that merges the level's two k-runs and keeps one parity
//      (run_merge.hpp merge_compact).
//
// Each NUMA node rotates through rho Gather&Sort buffers so ingestion
// continues while an owner is copying its batch out.  Buffers are recycled
// by a monotonic (reservation, commit, ordinal) counter scheme: counters
// never reset, so a delayed thread can never corrupt a later generation's
// accounting — its reservation simply lands in a future ordinal and the
// thread waits for that ordinal to open.
//
// Elastic levels.  The ladder is NOT a preallocated grid: each (level, slot)
// is an atomic pointer to a dynamically allocated, immutable k-item
// LevelBlock.  A cascade that writes a slot fills a FRESH block (plain
// stores, invisible until publication), publishes it with one pointer store,
// and RETIRES the displaced block — published blocks are never mutated, so a
// querier that reached a block through its pointer can read it, and keep
// reading it, without ever observing a torn run.  Construction allocates no
// level storage at all: blocks appear as the stream grows (under the
// install latch, which is the only allocation/retirement site) and
// disappear through reclamation, so small tenants stay small and quiesce()
// can hand memory back.
//
// Interval-based reclamation (IBR) plus view references.  Retired blocks
// stay readable until no in-flight image can still load them and no query
// view references them.  Retired blocks are stamped with a global epoch
// that the latch holder advances every Options::ibr_epoch_freq
// allocations.  Only the readers of level blocks announce: a LadderImage
// (serde, merge_into, and every Querier refresh attempt) stores the epoch
// it entered its read region at in a per-handle reservation slot.
// Updaters never announce: the blocks a flush touches are touched by the
// latch holder, which is the reclaimer.  A querier's view outlives its
// image: before the image's pin is dropped, the querier raises the
// `readers` count of every block the view points into, and drops it when
// a later refresh (or the handle's destruction) lets the view go.  After
// Options::ibr_recl_freq retirements since its last scan, the latch holder
// scans the announcements, then the reader counts, and reclaims exactly the retired
// blocks whose retire epoch precedes every announced epoch and whose count
// is 0 (into a bounded reuse pool first, the allocator after); a block
// only views keep is held on the retire list outside the retire cap.
// Queriers never block on growth OR reclamation: they announce, load the
// run pointers, validate them, reference the blocks, and clear — wait-free
// throughout.  ibr_stats() exposes the counters the abl_reclamation
// ablation sweeps.
//
// Publication protocol.  An install only writes slots that the currently
// published tritmap marks empty (checked in every build), then flips the
// tritmap old -> new with one CAS and advances install_seq_ by one, so a
// query that loads the tritmap sees a fully consistent levels description.
// Queries validate the run pointers they loaded against the install
// sequence number before they reference a single block; if an install
// raced past them they retry, and after a bounded number of attempts they
// accept the snapshot and report the racing installs as holes (counted,
// never crashed on), mirroring the paper's hole analysis (§4.1).
//
// The weight-1 tail is one more immutable block: fewer than 2k sorted
// items, zero when empty, never null.  push_tail (tail_mu_ only serializes
// tail writers) merges its items into a replacement block, and one latched
// install stores it, with the 2k batch it split off if any, before that
// install's tritmap CAS and install_seq_ advance.  The tail pointer is
// overwritten in place, not written into a slot the published tritmap marks
// empty, so each tail block is stamped with the install_seq_ value that
// publishes it: an unlatched image is valid only when its seq is stable,
// it is complete, and its tail's stamp is at most the seq it loaded.
//
// Query engine.  Every published level slot is a sorted k-run (the KLL
// compactor invariant) and the tail block is sorted too, so a snapshot is a
// set of sorted runs, not a bag of items.  Querier::refresh copies no run:
// it publishes a run view (the sorted weighted runs plus size()) whose runs
// point into the published blocks it references.  It is incremental: each
// level carries an install epoch (a counter unique to the last batch
// cascade that wrote it), and a refresh re-references only the levels whose
// epoch or trit changed since the querier's previous validated snapshot,
// and the tail only when its block did.  A refresh that finds the install
// seq unchanged is O(1).
// quantile/rank/cdf answer through a RunView (core/run_merge.hpp): from the
// runs directly, then from the view's merged summary once enough answers
// pay for the merge, with bit-identical results either way.
//
// Relaxation.  Elements still in local buffers, partially filled gather
// buffers, or batches parked in the install queue are invisible to queries —
// the paper's bounded relaxation, here at most
// N*b + rho*nodes*2k + install_queue*2k elements.  quiesce() flushes all of
// that into the query path; after every updater has drained and quiesce()
// returned, size() equals the number of ingested elements exactly.
//
// Failure model (README, "Failure model & degradation", has the full
// contract).  Every allocation on the ingest/flush/cascade/merge path is
// exception-safe with a DOCUMENTED outcome, enforced by the chaos suite
// (tests/test_fault.cpp) under QC_FAULT_INJECT:
//
//   * Cascade OOM never half-publishes.  install() runs each cascade in
//     two phases: prepare_cascade simulates the cascade against the
//     published tritmap, enforces the retire cap, and stages every block it will need
//     in stash_ — all throws happen there, before any slot, epoch, or seq
//     is touched.  apply_cascade then only consumes the stash (no-throw).
//     On OOM the batch stays parked in its install cell (push_tail keeps
//     its replacement block) and nothing is published: backpressure, not
//     data loss (stats().install_defers).
//   * The install latch never leaks: every latch hold is scoped (LatchGuard
//     or a noexcept drain), timed, and watchdogged (Options::latch_watchdog_ns,
//     stats().latch_watchdog_trips).
//   * push_tail / Updater::drain have the strong guarantee for fewer than
//     2k items (every drain and quiesce residue): everything that can throw
//     (the merge scratch, the replacement tail block, an injected
//     tail_alloc fault) runs before the install, so on bad_alloc nothing is
//     appended and the updater's local buffer is retained, and an explicit
//     drain() can simply be retried.  A longer push goes in slices of
//     fewer than 2k, each all or nothing.  Only ~Updater, which must not
//     throw, drops the residue after bounded retries (counted in
//     stats().oom_dropped_items, warned on stderr).
//   * Querier::refresh never fails and never waits: it takes no lock,
//     references the published level and tail blocks instead of copying
//     them, and runs on the run lists its querier reserved at
//     construction, so it allocates nothing.  A summary that cannot be
//     allocated leaves the querier answering directly from its runs.
//   * A stalled reader cannot pin unbounded memory: when the blocks
//     awaiting the epoch rule would exceed Options::ibr_retire_cap, the
//     latch holder forces a scan and, if the scan cannot help, throttles
//     ingest (ibr_stats().degraded, forced_scans, throttle_waits) until
//     the reader unpins — those stay <= cap blocks.
//     ibr_stats().pinned_epoch_age says how far the oldest pin lags.  A
//     querier that holds its view and never refreshes pins no epoch and
//     never throttles ingest: it keeps at most the blocks of its view,
//     2 x kMaxLevels + 1 with the tail block, the memory a private copy of
//     that view would take (ibr_stats().held_blocks counts the retired
//     ones).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "atomics/tritmap.hpp"
#include "common/annotations.hpp"
#include "common/backoff.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/options.hpp"
#include "core/run_merge.hpp"
#include "fault/inject.hpp"
#include "sequential/quantiles_sketch.hpp"
#include "serde/binary.hpp"

namespace qc::core {

struct Stats {
  std::uint64_t batches = 0;        // 2k batches installed
  std::uint64_t propagations = 0;   // cascade steps across all batches
  std::uint64_t holes = 0;          // arrays accepted unvalidated by queries
  std::uint64_t query_retries = 0;  // snapshot retries across all queries

  // Ingest contention counters (fig06a/fig06c diagnostics; collect_stats
  // only).  Together they say *why* update throughput moves: gather_waits
  // counts flushes that reserved into a closed gather ordinal and had to
  // wait (gather_wait_ns sums how long they waited), and latch_spins counts
  // failed install-latch acquisitions by owners waiting on the install
  // queue.  Every batch install publishes exactly one batch, so installs ==
  // batches; a tail install that carries no batch is not counted.
  std::uint64_t gather_waits = 0;    // flushes that waited for their ordinal
  std::uint64_t gather_wait_ns = 0;  // time those flushes spent waiting
  std::uint64_t latch_spins = 0;   // failed install-latch try-acquires
  std::uint64_t installs = 0;      // batch publications (1 CAS each)

  // Degradation + latch observability (ALWAYS collected, unlike the
  // contention counters above: these move only on latch transitions or
  // failure paths, so the cost is a few relaxed ops per install).  See
  // the failure-model section of the file comment.
  std::uint64_t install_defers = 0;     // cascades deferred by allocation failure
  std::uint64_t queue_full_waits = 0;   // producers that found the install ring full
  std::uint64_t oom_dropped_items = 0;  // tail items ~Updater dropped after retries
  std::uint64_t latch_holds = 0;             // completed install-latch holds
  std::uint64_t latch_hold_total_ns = 0;     // summed hold time
  std::uint64_t latch_max_hold_ns = 0;       // longest single hold
  std::uint64_t latch_current_hold_ns = 0;   // in-progress hold age (0 = free)
  std::uint64_t latch_watchdog_trips = 0;    // holds > Options::latch_watchdog_ns

  double hole_rate_per_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(holes) / static_cast<double>(batches);
  }
};

// Counters behind Quancurrent::ibr_stats() — the observable surface of the
// interval-based reclamation scheme (see the file comment) and the axes the
// abl_reclamation ablation sweeps.  The counters are monotonic; the fields
// marked point-in-time below and live_blocks() are observations.
struct IbrStats {
  std::uint64_t epochs = 0;     // global reclamation-epoch advances
  std::uint64_t allocated = 0;  // LevelBlocks obtained from the allocator
  std::uint64_t reused = 0;     // block requests served by the reuse pool
  std::uint64_t retired = 0;    // blocks unpublished onto the retire list
  std::uint64_t reclaimed = 0;  // blocks proven safe and taken off it
  std::uint64_t freed = 0;      // blocks returned to the allocator
  std::uint64_t scans = 0;      // reclamation scans (announcement sweeps)
  std::uint64_t peak_unreclaimed = 0;  // largest retire-list size ever seen

  // Stalled-handle detection (Options::ibr_retire_cap; failure-model section
  // of the file comment).  forced_scans / throttle_waits are monotone; the
  // last four are point-in-time observations, not counters.
  std::uint64_t forced_scans = 0;     // off-cadence scans forced by the cap
  std::uint64_t throttle_waits = 0;   // throttle episodes (ingest paused)
  std::uint64_t retire_list_len = 0;  // retired blocks awaiting the epoch rule
  std::uint64_t held_blocks = 0;      // retired blocks past every pin that
                                      // only query views keep (not capped)
  std::uint64_t pinned_epoch_age = 0;  // epochs the oldest announced pin lags
                                       // the global epoch (0 = no pin / fresh)
  bool degraded = false;  // cap reached and a scan could not free below it

  // Blocks the sketch currently holds (published + retired + reuse pool +
  // the spare tail block; quiesce() frees the pool and the spare).
  std::uint64_t live_blocks() const { return allocated - freed; }
};

template <typename T, typename Compare = std::less<T>>
class Quancurrent {
  static_assert(std::is_trivially_copyable_v<T>,
                "hole-tolerant snapshots require trivially copyable items");

  // ----- IBR plumbing, declared early: the handle classes below embed it --

  static constexpr std::uint64_t kIdleEpoch = ~std::uint64_t{0};
  static constexpr std::size_t kIbrSlotsPerChunk = 32;
  static constexpr std::size_t kFreeListCap = 64;  // reuse-pool bound

  // One published run, immutable once its pointer is published: a level
  // slot's k items, or the tail's fewer than 2k (stamp is the install_seq_
  // value that publishes a tail block).  retire_epoch is the epoch it was
  // unpublished at (ibr_scan's free rule).  `readers` counts the query
  // views that reference the block (a Querier takes one per block under
  // its image's pin, see reference_levels); a retired block is reclaimed
  // only at 0.  `held` marks a retired block past every pin that only
  // views keep (latch-protected, like retire_epoch).
  struct LevelBlock {
    explicit LevelBlock(std::size_t n) : items(n) {}
    std::uint64_t retire_epoch = 0;
    std::uint64_t stamp = 0;
    mutable std::atomic<std::uint32_t> readers{0};
    bool held = false;
    std::vector<T> items;
  };

  // One per-handle epoch announcement slot.  `announced` is the epoch the
  // handle's current read region entered at (kIdleEpoch when quiescent);
  // `in_use` is slot ownership, recycled across handle lifetimes.
  struct IbrSlot {
    alignas(64) std::atomic<std::uint64_t> announced{kIdleEpoch};
    std::atomic<bool> in_use{false};
  };

  // Announcement slots live in a lock-free grow-only chunk list, allocated
  // lazily (a sketch nobody made handles for pays nothing) and recycled via
  // in_use, so handle churn does not grow the list without bound.
  struct IbrSlotChunk {
    std::array<IbrSlot, kIbrSlotsPerChunk> slots;
    std::atomic<IbrSlotChunk*> next{nullptr};
  };

  // RAII ownership of one announcement slot for a handle's lifetime; movable
  // so the Querier handle stays movable.
  class IbrSlotLease {
   public:
    explicit IbrSlotLease(const Quancurrent& sketch) : slot_(sketch.acquire_ibr_slot()) {}
    IbrSlotLease(const IbrSlotLease&) = delete;
    IbrSlotLease& operator=(const IbrSlotLease&) = delete;
    IbrSlotLease(IbrSlotLease&& other) noexcept
        : slot_(std::exchange(other.slot_, nullptr)) {}
    IbrSlotLease& operator=(IbrSlotLease&&) = delete;
    ~IbrSlotLease() {
      if (slot_ != nullptr) {
        slot_->announced.store(kIdleEpoch, std::memory_order_seq_cst);
        slot_->in_use.store(false, std::memory_order_release);
      }
    }
    IbrSlot* slot() const { return slot_; }

   private:
    IbrSlot* slot_ = nullptr;
  };

  // Scoped epoch announcement: pins the reclamation epoch for one read
  // region (a query snapshot or a LadderImage).  Two stores; never blocks.
  class IbrPin {
   public:
    IbrPin(const Quancurrent& sketch, IbrSlot* slot) : slot_(slot) {
      // seq_cst load + store: the announcement must precede this handle's
      // subsequent slot-pointer loads in the single total order — that
      // ordering is what lets the reclaimer's scan prove the handle visible
      // (see the IBR section of the file comment).
      slot_->announced.store(sketch.ibr_epoch_.load(std::memory_order_seq_cst),
                             std::memory_order_seq_cst);
    }
    IbrPin(const IbrPin&) = delete;
    IbrPin& operator=(const IbrPin&) = delete;
    ~IbrPin() { slot_->announced.store(kIdleEpoch, std::memory_order_seq_cst); }

   private:
    IbrSlot* slot_;
  };

  // Point-in-time image of the installed ladder and the tail: the tritmap,
  // each level's install epoch, the run pointers and the tail block, read
  // under an IBR pin.  It is the only reader of ladder slot and tail
  // pointers off the install latch.  The runs are read through the
  // pointers after the load (published blocks are immutable; the pin keeps
  // them from reclamation).  Level 0 never holds a published run, so the
  // image keeps the tail block in its place: block(0, 0), with the tail's
  // stamp as epoch(0).  Two entry points share one loader:
  //   * LadderImage(s) (serialize, merge_into) loads under one latch hold,
  //     O(levels), because it also reads the rng state; the image is exact.
  //   * LadderImage(s, slot, tm) (Querier::refresh) takes no latch and pins
  //     through the querier's own slot.  The caller validates the image
  //     before it references a block: install_seq_ unchanged since `tm`'s
  //     seq was loaded, complete(), and the tail's stamp at most that seq.
  //     complete() is false when the loader met a slot a racing quiesce()
  //     had unpublished, and tritmap() then ends that level at the slot.
  // Deadlock rules: pin under the latch or with no lock held, never before
  // acquiring the latch (a latch holder throttled by ibr_retire_cap waits
  // on pins), and wait on nothing of this sketch while the image lives —
  // not the latch, not tail_mu_ (push_tail holds it while it installs),
  // not an install queue.
  class LadderImage {
   public:
    explicit LadderImage(const Quancurrent& s) : lease_(std::in_place, s) {
      const LatchGuard guard(s);
      rng_state_ = s.rng_.state();
      load(s, lease_->slot(), s.tritmap_.load(std::memory_order_relaxed));
      QC_CHECK(complete_, "imaging an unpublished level slot");
    }

    LadderImage(const Quancurrent& s, IbrSlot* slot, Tritmap tm) { load(s, slot, tm); }

    std::array<std::uint64_t, 4> rng_state() const { return rng_state_; }
    Tritmap tritmap() const { return tm_; }
    bool complete() const { return complete_; }
    std::size_t run_count() const { return count_; }
    std::uint64_t epoch(std::uint32_t level) const { return epochs_[level]; }
    const LevelBlock* block(std::uint32_t level, std::uint32_t slot) const {
      return blocks_[static_cast<std::size_t>(level) * 2 + slot];
    }
    const T* run(std::uint32_t level, std::uint32_t slot) const {
      return block(level, slot)->items.data();
    }
    const std::vector<T>& tail() const { return block(0, 0)->items; }

    // Calls fn(items, level) for each k-run, in ladder order.
    template <typename Fn>
    void for_each_run(Fn&& fn) const {
      const std::uint32_t top = tm_.num_levels();
      for (std::uint32_t level = 1; level < top; ++level) {
        for (std::uint32_t slot = 0; slot < tm_.trit(level); ++slot) {
          // Chaos builds: act between the load and the copy.
          QC_INJECT_STALL(ladder_image_copy);
          fn(run(level, slot), level);
        }
      }
    }

   private:
    // Announces the pin, then loads each level's epoch (acquire) before its
    // pointers, and the tail pointer (seq_cst: in the single total order
    // they follow the announcement, which is what lets the reclaimer's scan
    // prove the blocks cannot be freed under us; see the IBR section of the
    // file comment).  A cascade releases a level's epoch only after
    // publishing its block, so an epoch read here is never newer than the
    // pointers; a tail block's stamp is written before its pointer.
    void load(const Quancurrent& s, IbrSlot* slot, Tritmap tm) {
      pin_.emplace(s, slot);
      tm_ = tm;
      blocks_[0] = s.tail_.load(std::memory_order_seq_cst);
      epochs_[0] = blocks_[0]->stamp;
      const std::uint32_t top = tm.num_levels();
      for (std::uint32_t level = 1; level < top; ++level) {
        epochs_[level] = s.level_epoch_[level].load(std::memory_order_acquire);
        for (std::uint32_t i = 0; i < tm.trit(level); ++i) {
          const LevelBlock* b = s.slot_block(level, i).load(std::memory_order_seq_cst);
          if (b == nullptr) {
            tm_ = tm_.with_trit(level, i);
            complete_ = false;
            break;
          }
          // Only the pointer: a block is dereferenced when its run is read,
          // so levels a refresh reuses cost no cache miss here.
          blocks_[static_cast<std::size_t>(level) * 2 + i] = b;
          ++count_;
        }
      }
    }

    std::optional<IbrSlotLease> lease_;  // declared first: outlives the pin
    std::optional<IbrPin> pin_;
    std::array<std::uint64_t, 4> rng_state_{};
    Tritmap tm_{0};
    bool complete_ = true;
    std::size_t count_ = 0;
    std::array<std::uint64_t, Tritmap::kMaxLevels> epochs_{};
    std::array<const LevelBlock*, 2 * std::size_t{Tritmap::kMaxLevels}> blocks_{};
  };

 public:
  using value_type = T;

  explicit Quancurrent(Options opts) : opts_(opts) {
    // Surface silently-clamped configuration exactly once, at construction;
    // Options::validate() offers the same list without side effects.
    const auto adjustments = opts_.normalize();
    if (opts_.collect_stats) Options::report(adjustments);
    cap_ = 2 * static_cast<std::uint64_t>(opts_.k);
    // No level storage here: the elastic ladder allocates blocks on demand
    // (alloc_block).  Only the reclamation bookkeeping is pre-reserved so
    // retire_block rarely reallocates under the install latch.
    retired_.reserve(256);
    free_blocks_.reserve(kFreeListCap);
    // A cascade publishes at most one block per level plus the entry block;
    // reserving now makes prepare_cascade's staging pushes no-throw.
    stash_.reserve(kLevels + 1);
    rng_ = Xoshiro256(opts_.seed);
    install_q_ = std::make_unique<InstallCell[]>(opts_.install_queue);
    for (std::uint32_t i = 0; i < opts_.install_queue; ++i) {
      install_q_[i].items.resize(cap_);
      install_q_[i].seq.store(i, std::memory_order_relaxed);
    }
    nodes_.reserve(opts_.topology.nodes);
    for (std::uint32_t n = 0; n < opts_.topology.nodes; ++n) {
      nodes_.push_back(std::make_unique<Node>(opts_.rho, cap_));
    }
    // The empty tail and the first push's block, allocated here and not
    // at that push (often quiesce()'s, after the ladder has grown), where
    // they would pin the allocator's heap top above the blocks ingest
    // frees later.
    std::unique_ptr<LevelBlock> tail(new_tail_block());
    spare_tail_.store(new_tail_block(), std::memory_order_relaxed);
    tail_.store(tail.release(), std::memory_order_relaxed);
  }

  Quancurrent(const Quancurrent&) = delete;
  Quancurrent& operator=(const Quancurrent&) = delete;

  // Every block (published, retired, or pooled) and every announcement chunk
  // is owned by the sketch.  The convenience handles are torn down FIRST:
  // the updater drains into the tail, and the querier releases an
  // announcement slot that lives inside the chunks deleted below.  External
  // handles must not outlive the sketch (they hold a raw back-pointer
  // already).
  ~Quancurrent() {
    self_querier_.reset();
    self_updater_.reset();
    for (auto& ref : slot_blocks_) delete ref.load(std::memory_order_relaxed);
    delete tail_.load(std::memory_order_relaxed);
    delete spare_tail_.load(std::memory_order_relaxed);
    for (LevelBlock* b : retired_) delete b;
    for (LevelBlock* b : free_blocks_) delete b;
    for (LevelBlock* b : stash_) delete b;  // nonempty only after a mid-drain throw
    IbrSlotChunk* c = ibr_chunks_.load(std::memory_order_relaxed);
    while (c != nullptr) {
      IbrSlotChunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  const Options& options() const { return opts_; }

  // ----- ingestion ---------------------------------------------------------

  // Per-thread ingestion handle; not thread-safe, create one per thread.
  class Updater {
   public:
    Updater(Quancurrent& sketch, std::uint32_t thread_index)
        : sketch_(&sketch),
          node_(sketch.opts_.topology.node_of(thread_index)),
          b_(sketch.opts_.b),
          local_(sketch.opts_.b) {
      if (b_ > kPresortBlock) sorted_.resize(b_);
    }

    Updater(const Updater&) = delete;
    Updater& operator=(const Updater&) = delete;
    Updater(Updater&& other) noexcept
        : sketch_(std::exchange(other.sketch_, nullptr)),
          node_(other.node_),
          b_(other.b_),
          local_(std::move(other.local_)),
          sorted_(std::move(other.sorted_)),
          merger_(std::move(other.merger_)),
          count_(std::exchange(other.count_, 0)) {}
    Updater& operator=(Updater&&) = delete;

    // Destructors must not throw: retry the tail hand-off on OOM, then drop
    // the residue with a warning rather than terminate.  An EXPLICIT drain()
    // propagates bad_alloc instead — the buffer is retained (push_tail has
    // the strong guarantee), so callers can retry losslessly.
    ~Updater() {
      for (int attempt = 0; attempt < 3; ++attempt) {
        try {
          drain();
          return;
        } catch (const std::bad_alloc&) {
        }
      }
      if (sketch_ != nullptr && count_ != 0) {
        std::fprintf(stderr,
                     "qc::Updater: dropped %u buffered items after repeated "
                     "allocation failure\n",
                     count_);
        sketch_->stat_oom_dropped_.fetch_add(count_, std::memory_order_relaxed);
        count_ = 0;
      }
    }

    void update(const T& v) {
      local_[count_++] = v;
      if (count_ == b_) flush_local();
    }

    // Bulk ingestion: memcpy-fills the local buffer in chunk-sized strides
    // instead of one element (and one full-buffer branch) per call.
    void update(std::span<const T> vs) {
      std::size_t i = 0;
      const std::size_t n = vs.size();
      while (i < n) {
        const std::size_t take =
            std::min<std::size_t>(b_ - count_, n - i);
        std::memcpy(local_.data() + count_, vs.data() + i, take * sizeof(T));
        count_ += static_cast<std::uint32_t>(take);
        i += take;
        if (count_ == b_) flush_local();
      }
    }

    // Hands any partial local buffer to the sketch's tail so no element is
    // lost; called automatically on destruction.  On bad_alloc nothing is
    // appended and the buffer is retained (count_ only clears after the
    // hand-off succeeded), so drain() can simply be called again.
    void drain() {
      if (sketch_ != nullptr && count_ != 0) {
        sketch_->push_tail(local_.data(), count_);
        count_ = 0;
      }
    }

   private:
    // Stage 1 of the ingest pipeline: sort the full local buffer while it is
    // cache-hot (run_merge.hpp presort: a branchless network per 16-item
    // block, then a chunk merge when b > 16), then flush it as one
    // pre-sorted b-chunk.  The per-update sort cost stays a fraction of what
    // a from-scratch sort of the owner's batch would pay per item.
    void flush_local() {
      const std::span<const T> sorted =
          presort(std::span<T>(local_), std::span<T>(sorted_), merger_, sketch_->cmp_);
      sketch_->flush_chunk(node_, sorted.data(), b_, merger_);
      count_ = 0;
    }

    Quancurrent* sketch_;
    std::uint32_t node_;
    std::uint32_t b_;
    std::vector<T> local_;
    std::vector<T> sorted_;  // merged pre-sort output when b > 16
    // Merge scratch for this thread's presort (b > 16) and for every batch
    // it owns: two owners of one gather buffer can merge at once, so the
    // scratch belongs to the thread, not to the buffer.
    ChunkMerger<T, Compare> merger_;
    std::uint32_t count_ = 0;
  };

  Updater make_updater(std::uint32_t thread_index) { return Updater(*this, thread_index); }

  // Drains batches still parked in the install queue, pushes the
  // convenience updater's residue and partially filled gather buffers into
  // the tail, and hands reclaimable level blocks back to the allocator.
  // Precondition: no concurrent update() calls (updaters must have drained);
  // concurrent queries are fine.  No head==tail assert after the drain: a
  // concurrent merge_into() targeting this sketch may legitimately enqueue
  // (and self-drain) install_run batches at any moment, so queue equality
  // here could fail spuriously without any precondition violation — the
  // drain below already published everything that was parked when we looked.
  void quiesce() QC_EXCLUDES(latch_) {
    drain_installs();
    // The convenience updater belongs to the sketch, so quiesce() may (and
    // must) drain it: its buffered items are otherwise unreachable.  Each
    // residue is one push of fewer than 2k items, all or nothing, so on
    // bad_alloc the residues not yet pushed stay where they are for a retry.
    if (self_updater_ != nullptr) self_updater_->drain();
    for (auto& node : nodes_) {
      for (auto& gb : node->bufs) {
        const std::uint64_t committed = gb->committed.load(std::memory_order_acquire);
        // Memory safety, not just accounting: a reserved-but-uncommitted
        // flush means a concurrent update() is still copying into this
        // buffer, and the push below would publish (and later recycle)
        // slots it is mid-write on.
        QC_CHECK(committed == gb->reserved.load(std::memory_order_acquire),
                 "quiesce() requires all updaters drained (no concurrent update())");
        const std::uint64_t residue = committed % cap_;
        if (residue == 0) continue;
        push_tail(gb->slots.data(), residue);
        // Pad the counters to the next batch boundary and advance the
        // ordinal by hand: the batch this would have formed has been routed
        // through the tail instead.
        gb->reserved.fetch_add(cap_ - residue, std::memory_order_acq_rel);
        gb->committed.fetch_add(cap_ - residue, std::memory_order_acq_rel);
        gb->ordinal.fetch_add(1, std::memory_order_release);
      }
    }
    // Give memory back.  Unpublish every slot the published tritmap no
    // longer references (cascades leave consumed slots published so lagging
    // queriers can still reference them; quiesce is where they are let go),
    // then scan, then return the reuse pool to the allocator.  Afterwards,
    // with no refresh in flight, ibr_stats().live_blocks() equals the
    // number of tritmap-referenced runs plus the 1 tail block plus
    // ibr_stats().held_blocks, the retired blocks query views still
    // reference.  With every querier
    // destroyed or refreshed since the ladder last changed, held_blocks is
    // 0: a refresh lets go of the view it replaced, so such a querier
    // references only published blocks (the eventual-reclamation tests'
    // invariant).
    const LatchGuard guard(*this);  // scoped: the latch cannot leak on a throw
    // Make the unpublish loop's retirements no-throw up front (<= 2 * kLevels
    // of them); a bad_alloc here propagates with nothing retired yet.
    // qc-lint-allow(no-alloc-under-latch): quiesce is the cold reclamation
    // path (no concurrent updaters by precondition), and this reserve is what
    // makes the retirements below allocation-free.
    retired_.reserve(retired_.size() + 2 * static_cast<std::size_t>(kLevels));
    const Tritmap tm = tritmap_.load(std::memory_order_relaxed);
    for (std::uint32_t level = 0; level < kLevels; ++level) {
      for (std::uint32_t slot = tm.trit(level); slot < 2; ++slot) {
        LevelBlock* old = slot_block(level, slot).load(std::memory_order_relaxed);
        if (old == nullptr) continue;
        slot_block(level, slot).store(nullptr, std::memory_order_seq_cst);
        retire_block(old);
      }
    }
    ibr_scan();
    for (LevelBlock* b : free_blocks_) {
      delete b;
      ibr_freed_.fetch_add(1, std::memory_order_relaxed);
    }
    free_blocks_.clear();
    if (LevelBlock* spare = spare_tail_.exchange(nullptr, std::memory_order_acquire)) {
      delete spare;
      ibr_freed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // ----- introspection -----------------------------------------------------

  // Elements visible to queries right now (installed batches + tail).
  std::uint64_t size() const {
    return tritmap_.load(std::memory_order_acquire).stream_size(opts_.k) +
           tail_size_.load(std::memory_order_acquire);
  }

  // Items physically retained in the published level blocks and tail.
  std::uint64_t retained() const {
    const Tritmap tm = tritmap_.load(std::memory_order_acquire);
    std::uint64_t r = tail_size_.load(std::memory_order_acquire);
    for (std::uint32_t level = 0; level < tm.num_levels(); ++level) {
      r += static_cast<std::uint64_t>(tm.trit(level)) * opts_.k;
    }
    return r;
  }

  Tritmap tritmap() const { return tritmap_.load(std::memory_order_acquire); }

  Stats stats() const {
    Stats s;
    s.batches = stat_batches_.load(std::memory_order_relaxed);
    s.propagations = stat_propagations_.load(std::memory_order_relaxed);
    s.holes = stat_holes_.load(std::memory_order_relaxed);
    s.query_retries = stat_query_retries_.load(std::memory_order_relaxed);
    s.gather_waits = stat_gather_waits_.load(std::memory_order_relaxed);
    s.gather_wait_ns = stat_gather_wait_ns_.load(std::memory_order_relaxed);
    s.latch_spins = stat_latch_spins_.load(std::memory_order_relaxed);
    s.installs = s.batches;  // every batch install publishes exactly one batch
    s.install_defers = stat_install_defers_.load(std::memory_order_relaxed);
    s.queue_full_waits = stat_queue_full_waits_.load(std::memory_order_relaxed);
    s.oom_dropped_items = stat_oom_dropped_.load(std::memory_order_relaxed);
    s.latch_holds = stat_latch_holds_.load(std::memory_order_relaxed);
    s.latch_hold_total_ns = stat_latch_hold_ns_.load(std::memory_order_relaxed);
    s.latch_max_hold_ns = stat_latch_max_hold_ns_.load(std::memory_order_relaxed);
    s.latch_watchdog_trips = stat_watchdog_trips_.load(std::memory_order_relaxed);
    // Observable wedge detection: how long the CURRENT holder has had the
    // latch (0 when free) — a hung holder shows up here long before its own
    // release-side watchdog trip could.
    const std::uint64_t since = latch_since_ns_.load(std::memory_order_relaxed);
    s.latch_current_hold_ns = since == 0 ? 0 : now_ns() - since;
    return s;
  }

  // Reclamation counters (always collected; the bookkeeping is a handful of
  // relaxed adds on the latch holder's path).  Thread-safe; under concurrent
  // ingestion the fields are individually, not mutually, consistent.
  IbrStats ibr_stats() const {
    IbrStats s;
    s.epochs = ibr_epochs_.load(std::memory_order_relaxed);
    s.allocated = ibr_allocated_.load(std::memory_order_relaxed);
    s.reused = ibr_reused_.load(std::memory_order_relaxed);
    s.retired = ibr_retired_.load(std::memory_order_relaxed);
    s.reclaimed = ibr_reclaimed_.load(std::memory_order_relaxed);
    s.freed = ibr_freed_.load(std::memory_order_relaxed);
    s.scans = ibr_scans_.load(std::memory_order_relaxed);
    s.peak_unreclaimed = ibr_peak_unreclaimed_.load(std::memory_order_relaxed);
    s.forced_scans = ibr_forced_scans_.load(std::memory_order_relaxed);
    s.throttle_waits = ibr_throttle_waits_.load(std::memory_order_relaxed);
    s.retire_list_len = retire_list_len_.load(std::memory_order_relaxed);
    s.held_blocks = held_blocks_.load(std::memory_order_relaxed);
    s.degraded = degraded_.load(std::memory_order_relaxed);
    // Stalled-handle detection: a healthy pin lags the global epoch by at
    // most a scan cadence or two; an age that keeps growing names the
    // failure (a parked handle) rather than its symptom (a long retire
    // list).  The announcement sweep is O(handles) — diagnostic-path cost.
    const std::uint64_t min_e = min_announced_epoch();
    const std::uint64_t cur = ibr_epoch_.load(std::memory_order_relaxed);
    s.pinned_epoch_age = (min_e == kIdleEpoch || min_e >= cur) ? 0 : cur - min_e;
    return s;
  }

  // References query views hold on this sketch's blocks: the reader counts
  // of every published level and tail block and every retired block, summed
  // under the install latch.  A diagnostic for tests of the refresh's
  // reference protocol.
  std::uint64_t view_references() const QC_EXCLUDES(latch_) {
    const LatchGuard guard(*this);
    std::uint64_t refs = tail_.load(std::memory_order_relaxed)->readers.load(
        std::memory_order_relaxed);
    for (const auto& slot : slot_blocks_) {
      const LevelBlock* b = slot.load(std::memory_order_relaxed);
      if (b != nullptr) refs += b->readers.load(std::memory_order_relaxed);
    }
    for (const LevelBlock* b : retired_) refs += b->readers.load(std::memory_order_relaxed);
    return refs;
  }

  // ----- install queue hooks -----------------------------------------------

  // Parks a sorted 2k batch in the install queue WITHOUT draining it, and
  // returns its queue position; pair with drain_installs().  Blocks if the
  // queue is full.  This is the diagnostic/test surface for parking batches
  // deterministically; production ingestion always follows an enqueue with
  // drain_until(), so the queue self-drains.
  std::uint64_t enqueue_batch(std::span<const T> sorted_batch) QC_EXCLUDES(latch_) {
    // Size is memory safety (the memcpy below trusts it); sortedness is an
    // algorithmic precondition (wrong answers, not wrong accesses) and O(2k)
    // to verify, so it stays a debug-only assert (see common/check.hpp).
    QC_CHECK(sorted_batch.size() == cap_, "enqueue_batch requires a full 2k batch");
    // qc-lint-allow(qc-check-over-assert): O(2k) sortedness probe — answer
    // correctness only, per the policy comment above.
    assert(std::is_sorted(sorted_batch.begin(), sorted_batch.end(), cmp_));
    const std::uint64_t pos = acquire_cell();
    InstallCell& cell = install_q_[pos & (opts_.install_queue - 1)];
    std::memcpy(cell.items.data(), sorted_batch.data(), cap_ * sizeof(T));
    cell.level = 0;
    cell.seq.store(pos + 1, std::memory_order_release);
    return pos;
  }

  // Installs one sorted k-run directly at ladder level `level` (each item
  // carrying weight 2^level) through the normal install queue: the run lands
  // in a free slot — cascading a compaction upward if the level fills — and
  // is published by the regular install drain, so concurrent queriers stay
  // wait-free exactly as for 2k batch installs.  This is the merge
  // primitive: folding another sketch into this one is a sequence of
  // install_run() calls plus a push_tail() of its weight-1 residue.
  // Thread-safe against concurrent updaters, queriers, and other installs.
  // QC_EXCLUDES: drains the queue itself — a caller already holding the
  // latch would deadlock in drain_until (try_acquire can never succeed).
  void install_run(std::uint32_t level, std::span<const T> run) QC_EXCLUDES(latch_) {
    // Level bounds and run size guard the memcpy and the cascade's slot
    // writes; sortedness is answer-correctness only (assert policy above).
    QC_CHECK(level >= 1 && level < kLevels, "install_run level out of ladder range");
    QC_CHECK(run.size() == opts_.k, "install_run requires exactly one k-run");
    // qc-lint-allow(qc-check-over-assert): O(k) sortedness probe — answer
    // correctness only (assert policy above).
    assert(std::is_sorted(run.begin(), run.end(), cmp_));
    std::unique_lock<std::mutex> serialized;
    if (opts_.serialize_propagation) {
      serialized = std::unique_lock<std::mutex>(prop_mu_);
    }
    const std::uint64_t pos = acquire_cell();
    InstallCell& cell = install_q_[pos & (opts_.install_queue - 1)];
    std::memcpy(cell.items.data(), run.data(), opts_.k * sizeof(T));
    cell.level = level;
    cell.seq.store(pos + 1, std::memory_order_release);
    drain_until(pos);
  }

  // Adds weight-1 items to the tail, visible to queries once this returns.
  // The items go in slices of fewer than 2k: each slice is sorted and
  // merged with the tail block into a replacement, and when the two hold
  // 2k or more items the smallest 2k split off as a batch, so the tail
  // stays under 2k.  One latched install publishes the replacement and
  // the batch together.  Thread-safe; merge and ingestion-adjacent code
  // paths use it for residue that does not fill a 2k batch.  Strong
  // exception guarantee per slice: on bad_alloc (the merge scratch, the
  // block, or an injected tail_alloc fault) that slice is not added and
  // the sketch is untouched by it — a push of fewer than 2k items is all
  // or nothing, and callers retry or report.
  void push_tail(const T* items, std::uint64_t count) QC_EXCLUDES(latch_) {
    const sync::MutexLock lock(tail_mu_);
    while (count != 0) {
      const std::size_t n = static_cast<std::size_t>(std::min(count, cap_ - 1));
      const std::vector<T>& cur = tail_.load(std::memory_order_relaxed)->items;
      const std::size_t total = cur.size() + n;
      const std::size_t batch = total >= cap_ ? cap_ : 0;
      // The scratch lives for one slice only: a buffer the sketch kept
      // would pin the allocator's heap top above blocks freed later.
      QC_INJECT_OOM(tail_alloc);
      const auto scratch = std::make_unique_for_overwrite<T[]>(total + n);
      T* const merged = scratch.get();
      T* const slice = merged + total;
      LevelBlock* nb = spare_tail_.exchange(nullptr, std::memory_order_acquire);
      if (nb == nullptr) nb = new_tail_block();  // the last step that can throw
      std::copy_n(items, n, slice);
      if (!std::is_sorted(slice, slice + n, cmp_)) std::sort(slice, slice + n, cmp_);
      std::merge(cur.begin(), cur.end(), slice, slice + n, merged, cmp_);
      nb->items.assign(merged + batch, merged + total);  // within its 2k - 1
      // A deferred install (its cascade's staging failed) is retried, off
      // the latch between attempts, like a drainer's.
      Backoff backoff;
      for (;;) {
        {
          const LatchGuard guard(*this);
          if (install(std::span<const T>(merged, batch), 0, nb)) break;
        }
        backoff.spin();
      }
      items += n;
      count -= n;
    }
  }

  // Installs every batch currently parked in the install queue, one per
  // latch hold like any drain (waiting, off the latch, for a head batch its
  // producer is still filling).  Used by quiesce() and tests.
  void drain_installs() QC_EXCLUDES(latch_) {
    Backoff backoff;
    for (;;) {
      const std::uint64_t head = install_head_.load(std::memory_order_acquire);
      if (head == install_tail_.load(std::memory_order_acquire)) return;
      if (!head_ready(head)) {
        backoff.spin();
      } else if (try_acquire_latch()) {
        drain_one();
        release_latch();
      } else {
        backoff.spin();
      }
    }
  }

  // ----- queries -----------------------------------------------------------

  // Point-in-time view of the sketch.  refresh() snapshots the tritmap and
  // references (or keeps) the published level blocks it names and the tail
  // block, into a run view: a list of sorted, weighted runs.
  // quantile/rank/cdf answer from that view (a RunView) without touching
  // shared state.
  //
  // A handle is used by one thread at a time, including its const members:
  // summary() and the answers fill per-view caches.  It must not outlive
  // its sketch: destroying it releases its references to the sketch's
  // blocks.
  class Querier {
   public:
    // At most two runs per level plus the tail.
    static constexpr std::size_t kMaxRuns = 2 * std::size_t{Tritmap::kMaxLevels} + 1;

    explicit Querier(Quancurrent& sketch)
        : sketch_(&sketch),
          lease_(sketch),
          cache_(kLevels),
          view_(sketch.opts_.k, sketch.cmp_) {
      view_.stage(kMaxRuns);  // room for every view's run list: no refresh allocates
      refresh();
    }

    Querier(const Querier&) = delete;
    Querier& operator=(const Querier&) = delete;
    // Vector moves leave the source's level list empty, so a moved-from
    // handle releases nothing.
    Querier(Querier&&) noexcept = default;
    Querier& operator=(Querier&&) = delete;
    ~Querier() {
      for (LevelCache& c : cache_) release(c);
    }

    // Incremental refresh: keeps the level references of earlier refreshes
    // when the level's install epoch and trit are unchanged, and the tail
    // reference while the tail block is; O(1) when nothing was published.
    // Never fails and never waits: nothing on its path allocates or locks.
    void refresh() noexcept { refresh_impl(/*force_full=*/false); }

    // Ignores the kept references and re-references everything the image
    // names; the view is identical to refresh()'s (tested), just slower to
    // build.
    void refresh_full() noexcept { refresh_impl(/*force_full=*/true); }

    std::uint64_t holes() const { return holes_; }

    // Bumps every time a refresh publishes a new view; an O(1) refresh
    // (nothing published) leaves it unchanged.
    // ShardedQuancurrent::Querier uses it to rebuild its cross-shard view
    // only when some shard's view moved.
    std::uint64_t version() const { return version_; }

    // The current view's runs point into the level and tail blocks it
    // references, until the next refresh() call.
    std::span<const RunRef<T>> runs() const { return view_.runs(); }

    // Answers from the current view; see RunView.
    std::uint64_t size() const { return view_.size(); }
    const WeightedSummary<T>& summary() const { return view_.summary(); }
    T quantile(double phi) const { return view_.quantile(phi); }
    std::uint64_t rank(const T& v) const { return view_.rank(v); }
    double cdf(const T& v) const { return view_.cdf(v); }

   private:
    static constexpr std::uint32_t kSnapshotRetries = 8;
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

    // The blocks of one level's occupied slots that the view references, one
    // reader count each, tagged with the install epoch and trit they
    // reflect.  Valid for reuse while the level's published epoch and trit
    // both still match: slot contents change only through installs, and
    // every batch cascade that writes a level stores a fresh epoch.  As in
    // the image, level 0 holds the tail block, tagged with its stamp.
    struct LevelCache {
      std::uint64_t epoch = kNever;
      std::uint32_t trit = 0;  // referenced slots
      std::array<const LevelBlock*, 2> blocks{};

      bool matches(std::uint64_t e, std::uint32_t t) const { return epoch == e && trit == t; }
    };

    // Reference-only: a refresh takes a LadderImage and validates it, then
    // re-references the changed levels and the tail under the image's pin
    // and rebuilds the run list.  A failed attempt costs O(levels) loads
    // and references nothing.
    void refresh_impl(bool force_full) noexcept {
      auto& s = *sketch_;
      for (std::uint32_t attempt = 0;; ++attempt) {
        // Snapshot validation uses the install sequence number, not tritmap
        // equality: the tritmap word can return to a previous value (ABA)
        // after several installs, but install_seq_ is monotonic, so
        // seq-stable implies no install published between this load and the
        // re-check.  An install only writes slots its pre-publish tritmap
        // marks empty, so every pointer of a seq-stable image is the one
        // `tm` describes.  The tail pointer is overwritten in place instead:
        // a stamp at most `seq` names the tail install `seq` published (the
        // acquire load above sees at least that one), and a later stamp
        // fails the attempt.
        const std::uint64_t seq = s.install_seq_.load(std::memory_order_acquire);
        if (!force_full && seq == snap_seq_) return;  // nothing published
        const Tritmap tm = s.tritmap_.load(std::memory_order_acquire);
        // qc-lint-allow(qc-check-over-assert): ladder-shape documentation on
        // the snapshot retry loop — a violation reads a stale level-0 view
        // (wrong answer), never an out-of-bounds slot; QC_CHECK here would
        // tax every snapshot attempt.
        assert(tm.trit(0) == 0);  // published tritmaps always have level 0 drained
        const LadderImage image(s, lease_.slot(), tm);
        // Chaos builds: park the reader HERE, pin held — the stalled-querier
        // scenario the retire cap exists for.
        QC_INJECT_STALL(querier_stall);
        QC_INJECT_STALL(querier_recheck);  // chaos: an install here fails the attempt
        // The image's pointer loads are seq_cst, so this re-check cannot be
        // reordered before them, and loading a block a later install
        // published synchronizes with every earlier install's seq advance:
        // such an image cannot re-read `seq` here.
        const std::uint64_t check = s.install_seq_.load(std::memory_order_acquire);
        const bool valid = check == seq && image.complete() && image.epoch(0) <= seq;
        if (!valid && attempt + 1 < kSnapshotRetries) {
          if (s.opts_.collect_stats) {
            s.stat_query_retries_.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        // An invalid image here is the last attempt, accepted: the racing
        // installs count as holes, as in the paper, the one whose tail the
        // image holds included.  Every referenced block is immutable, so the
        // view answers from its runs like any other; the kept references
        // are poisoned so the next refresh re-references every level.
        reference_levels(image, force_full);
        commit(image.tritmap(), valid ? seq : kNever, std::max(check, image.epoch(0)) - seq);
        if (!valid) {
          for (auto& c : cache_) c.epoch = kNever;
          if (s.opts_.collect_stats) {
            s.stat_holes_.fetch_add(holes_, std::memory_order_relaxed);
          }
        }
        return;
      }
    }

    // Re-references in place, through the image (its pin still held), the
    // tail and each level whose kept references no longer match the image's
    // epoch and trit: it takes the new references, then drops the old ones
    // (commit() rebuilds the run list that still points into them).  Each
    // reference is one `readers` count, taken before the pin is dropped:
    // ibr_scan reads the announcements before the counts, so a scan that no
    // longer sees the pin sees the count.  The image loaded each level's epoch
    // (acquire) before its pointers, and a cascade releases a level's epoch
    // after publishing its block, so references tagged with epoch E reflect
    // the epoch-E publication whenever E is still the published epoch.
    void reference_levels(const LadderImage& image, bool force_full) noexcept {
      const Tritmap tm = image.tritmap();
      for (std::uint32_t level = 0; level < kLevels; ++level) {
        const std::uint32_t trit = level == 0 ? 1 : tm.trit(level);
        LevelCache& kept = cache_[level];
        if (trit == 0 && kept.trit == 0) continue;  // nothing to take or let go
        const std::uint64_t epoch = image.epoch(level);
        if (!force_full && kept.matches(epoch, trit)) continue;
        LevelCache next{epoch, trit, {}};
        for (std::uint32_t slot = 0; slot < trit; ++slot) {
          QC_INJECT_STALL(querier_ref);  // chaos builds count references here
          const LevelBlock* b = image.block(level, slot);
          b->readers.fetch_add(1, std::memory_order_seq_cst);
          next.blocks[slot] = b;
        }
        release(kept);
        kept = next;
      }
    }

    // Drops the references `c` holds.  Release order: the view's reads of a
    // block happen before the scan that sees its count reach 0 reclaims it.
    static void release(LevelCache& c) noexcept {
      for (std::uint32_t slot = 0; slot < c.trit; ++slot) {
        c.blocks[slot]->readers.fetch_sub(1, std::memory_order_release);
      }
      c = LevelCache{};
    }

    // Publishes the view: its run list (level slots ascending, then the
    // tail) points into the referenced blocks.  The run order is
    // deterministic, so incremental and full refreshes of the same snapshot
    // produce identical views.  Allocates nothing: the constructor made room
    // for kMaxRuns runs.
    void commit(Tritmap tm, std::uint64_t seq, std::uint64_t holes) noexcept {
      const std::uint32_t k = sketch_->opts_.k;
      auto& runs = view_.stage();
      for (std::uint32_t level = 1; level < tm.num_levels(); ++level) {
        const LevelCache& c = cache_[level];
        for (std::uint32_t slot = 0; slot < c.trit; ++slot) {
          runs.push_back({c.blocks[slot]->items.data(), k, 1ULL << level});
        }
      }
      const std::vector<T>& tail = cache_[0].blocks[0]->items;
      if (!tail.empty()) runs.push_back({tail.data(), tail.size(), 1});
      view_.commit();
      holes_ = holes;
      snap_seq_ = seq;
      ++version_;
    }

    Quancurrent* sketch_;
    IbrSlotLease lease_;  // this handle's epoch announcement slot

    // The view: the blocks its runs point into, what it was validated
    // against, and the RunView answers read.
    std::vector<LevelCache> cache_;
    RunView<T, Compare> view_;
    std::uint64_t holes_ = 0;
    std::uint64_t version_ = 0;
    std::uint64_t snap_seq_ = kNever;
  };
  Querier make_querier() { return Querier(*this); }

  // ----- unified public surface (the qc.hpp QuantileSketch concept) --------

  // Convenience single-threaded ingestion: routes through one internally
  // owned Updater.  NOT safe to call concurrently with itself or with the
  // convenience queries below; updaters/queriers made for other threads
  // remain fully concurrent alongside it.  Multi-threaded ingestion should
  // create one UpdaterHandle (qc.hpp) per thread instead.
  void update(const T& v) { self_updater().update(v); }
  void update(std::span<const T> vs) { self_updater().update(vs); }

  // Convenience queries: quiesce first (draining the convenience updater,
  // gather buffers, and the install queue), then answer from an internally
  // owned querier — so, like the sequential engine, a convenience query sees
  // every preceding convenience update with no relaxation window.  Because
  // they quiesce, these inherit quiesce()'s precondition: no concurrent
  // UpdaterHandles may be live (concurrent QuerierHandles are fine, and
  // remain the wait-free concurrent query surface).
  T quantile(double phi) { return self_querier().quantile(phi); }
  std::uint64_t rank(const T& v) { return self_querier().rank(v); }
  double cdf(const T& v) { return self_querier().cdf(v); }

  // ----- merge --------------------------------------------------------------

  // Folds this sketch's query-visible state into `target`: every installed
  // level run replays through target's install queue as an install_run()
  // (one ordinary publish each — target's concurrent updaters keep ingesting
  // and queriers on BOTH sketches stay wait-free, since the LadderImage
  // below never blocks the query path), and the weight-1 tail is appended to
  // target's tail.  Requires equal k; returns false (and changes nothing) on
  // a k mismatch or self-merge.  Elements still in this sketch's local or
  // gather buffers are invisible to the merge, exactly as they are to
  // queries (bounded relaxation) — quiesce() first for an exact fold.
  //
  // Exception safety: may propagate bad_alloc.  From the copy phase
  // nothing has been installed and the target is untouched; from the
  // install phase a PREFIX of the runs (and possibly not the tail) has been
  // folded — the target remains internally consistent and answerable, but
  // a blind retry would re-install that prefix, so callers under memory
  // pressure should retry into a fresh target (the chaos suite's pattern).
  bool merge_into(Quancurrent& target) const QC_EXCLUDES(latch_, target.latch_) {
    if (&target == this || target.opts_.k != opts_.k) return false;
    std::vector<T> run_items;
    std::vector<std::uint32_t> run_levels;
    std::vector<T> tail_copy;
    {  // the image is dropped before anything below can wait (its rules)
      const LadderImage image(*this);
      QC_INJECT_OOM(merge_alloc);
      run_items.reserve(image.run_count() * opts_.k);
      run_levels.reserve(image.run_count());
      image.for_each_run([&](const T* items, std::uint32_t level) {
        run_items.insert(run_items.end(), items, items + opts_.k);
        run_levels.push_back(level);
      });
      tail_copy = image.tail();
    }
    const T* run = run_items.data();
    for (const std::uint32_t level : run_levels) {
      target.install_run(level, std::span<const T>(run, opts_.k));
      run += opts_.k;
    }
    if (!tail_copy.empty()) target.push_tail(tail_copy.data(), tail_copy.size());
    return true;
  }

  // ----- binary serde -------------------------------------------------------

  // Bytes serialize() will emit for the current query-visible state: exact
  // on a quiesced sketch, a lock-free probe under concurrent ingestion (it
  // reads only the tritmap and the tail length, so the image taken next may
  // be larger).
  std::size_t serialized_size() const QC_EXCLUDES(latch_) {
    serde::Writer counter;
    write_payload(counter);
    return counter.bytes();
  }

  // Writes the versioned binary image (see serde/binary.hpp) into `out`;
  // returns the bytes written, or 0 when `out` is too small.  The image is
  // the query-visible state — installed ladder plus tail — so, like a
  // query, it excludes elements still in local/gather buffers; quiesce()
  // first to capture everything.  Safe against concurrent queriers; under
  // concurrent ingestion the ladder is a consistent point-in-time snapshot
  // (a LadderImage, off the query path).  Throws bad_alloc only if the
  // image's announcement slot needs a new chunk.
  std::size_t serialize(std::span<std::byte> out) const QC_EXCLUDES(latch_) {
    serde::Writer w(out);
    write_payload(w);
    return w.ok() ? w.bytes() : 0;
  }

  // Reconstructs a sketch from serialize()'s image; null on any malformed
  // input, with the precise reason in *status when provided.  The result
  // answers bit-identically to the source's query-visible summary and
  // resumes the source's compaction coin sequence.
  static std::unique_ptr<Quancurrent> deserialize(std::span<const std::byte> in,
                                                  serde::Status* status = nullptr) {
    serde::Reader r(in);
    const serde::Status hs = serde::read_header(r, serde::Engine::concurrent,
                                                static_cast<std::uint8_t>(sizeof(T)));
    if (hs != serde::Status::ok) {
      serde::set_status(status, hs);
      return nullptr;
    }
    Options o;
    std::uint8_t stats = 0;
    std::uint8_t serprop = 0;
    std::array<std::uint64_t, 4> rng_state{};
    std::uint64_t tritmap_raw = 0;
    if (!r.get(o.k) || !r.get(o.b) || !r.get(o.rho) || !r.get(stats) ||
        !r.get(o.install_queue) || !r.get(serprop) || !r.get(o.ibr_epoch_freq) ||
        !r.get(o.ibr_recl_freq) || !r.get(o.ibr_retire_cap) || !r.get(o.latch_watchdog_ns) ||
        !r.get(o.seed) || !r.get(o.topology.nodes) ||
        !r.get(o.topology.threads_per_node) || !r.get(rng_state) ||
        !r.get(tritmap_raw)) {
      serde::set_status(status, serde::Status::short_buffer);
      return nullptr;
    }
    o.collect_stats = stats != 0;
    o.serialize_propagation = serprop != 0;
    if (o.k < 2 || o.rho == 0 || o.topology.nodes == 0 ||
        !Options(o).validate().empty()) {
      // The image echoes normalized Options; anything normalize() would
      // still rewrite cannot have come from serialize().
      serde::set_status(status, serde::Status::bad_payload);
      return nullptr;
    }
    const Tritmap tm(tritmap_raw);
    if (tm.trit(0) != 0) {
      serde::set_status(status, serde::Status::bad_payload);
      return nullptr;
    }
    for (std::uint32_t level = 0; level < kLevels; ++level) {
      // Every published tritmap has all trits <= 1: a cascade always
      // compacts a filled (trit 2) level before publishing.  A crafted 2
      // would make a later ingest cascade write past the two slots, so it is
      // as malformed as the encoding-invalid 3.
      if (tm.trit(level) > 1) {
        serde::set_status(status, serde::Status::bad_payload);
        return nullptr;
      }
    }
    // Allocation-budget pre-check.  The elastic ladder no longer
    // preallocates, but install-queue cells and gather buffers are still
    // 2k-item arrays (and the tail reserve matches the gather footprint), so
    // a crafted image pairing near-maximal options with a near-empty payload
    // used to demand gigabytes inside the constructor before the first
    // payload byte was read — on overcommitting kernels an OOM kill, not a
    // catchable bad_alloc.  A genuine image whose fixed footprint exceeds
    // the budget floor carries a payload in some proportion to it (it was
    // serialized by a process that could afford the sketch); demand that
    // proportion of the remaining bytes before constructing anything.
    const std::uint64_t implied_bytes =
        (static_cast<std::uint64_t>(o.install_queue) +
         2ull * o.topology.nodes * o.rho) *
        (2ull * o.k) * sizeof(T);
    if (implied_bytes > kDeserializeBudgetFloor &&
        implied_bytes / kDeserializeBudgetSlack > r.remaining()) {
      serde::set_status(status, serde::Status::bad_payload);
      return nullptr;
    }
    // The allocations below are bounded by the budget check (plus at most
    // one level block past a truncated payload), but a malformed input must
    // still yield nullptr, never an escaping bad_alloc (the documented
    // contract).
    std::unique_ptr<Quancurrent> sk;
    try {
      QC_INJECT_OOM(deserialize_alloc);
      sk = std::make_unique<Quancurrent>(o);
      {
        // The sketch is private to this frame, but alloc_block / rng_ /
        // epoch_counter_ are latch-guarded state and the thread-safety
        // analysis (rightly) has no notion of "not published yet" — hold the
        // uncontended latch so the rebuild obeys the same discipline the
        // live paths are checked against.
        const LatchGuard guard(*sk);
        sk->rng_.set_state(rng_state);
        const std::uint32_t top = tm.num_levels();
        for (std::uint32_t level = 1; level < top; ++level) {
          for (std::uint32_t slot = 0; slot < tm.trit(level); ++slot) {
            LevelBlock* blk = sk->alloc_block();
            // Store before reading the payload: on any failure below the
            // sketch's destructor owns the block.
            sk->slot_block(level, slot).store(blk, std::memory_order_relaxed);
            if (!r.get_bytes(blk->items.data(), sk->opts_.k * sizeof(T))) {
              serde::set_status(status, serde::Status::short_buffer);
              return nullptr;
            }
            // Published runs are sorted by construction, and everything
            // downstream trusts that (the query merge, and install_run when
            // this sketch is later merged).  A crafted unsorted run is as
            // malformed as a bad trit — reject it here, where the bytes are
            // already cache-hot, instead of serving garbage quantiles.
            if (!std::is_sorted(blk->items.begin(), blk->items.end(), sk->cmp_)) {
              serde::set_status(status, serde::Status::bad_payload);
              return nullptr;
            }
          }
          if (tm.trit(level) != 0) {
            sk->level_epoch_[level].store(++sk->epoch_counter_,
                                          std::memory_order_relaxed);
          }
        }
      }
      std::uint64_t tail_count = 0;
      if (!r.get(tail_count)) {
        serde::set_status(status, serde::Status::short_buffer);
        return nullptr;
      }
      // Division, not multiplication: a crafted tail_count must not overflow
      // the bounds check and reach the resize below.
      if (tail_count > r.remaining() / sizeof(T)) {
        serde::set_status(status, serde::Status::short_buffer);
        return nullptr;
      }
      std::vector<T> tail(static_cast<std::size_t>(tail_count));
      if (!r.get_bytes(tail.data(), tail.size() * sizeof(T))) {
        serde::set_status(status, serde::Status::short_buffer);
        return nullptr;
      }
      // serialize() writes the tail sorted, older images in insertion
      // order.  Pushed sorted after the ladder is published, so an image
      // whose tail holds 2k or more items still loads, its full batches
      // installed in sorted order, into a sketch with the tail bound.
      std::sort(tail.begin(), tail.end(), sk->cmp_);
      sk->tritmap_.store(tm, std::memory_order_release);
      sk->push_tail(tail.data(), tail.size());
    } catch (const std::bad_alloc&) {
      serde::set_status(status, serde::Status::bad_payload);
      return nullptr;
    }
    serde::set_status(status, serde::Status::ok);
    return sk;
  }

 private:
  friend class Updater;
  friend class Querier;

  static constexpr std::uint32_t kLevels = Tritmap::kMaxLevels;

  // deserialize()'s allocation-budget heuristic: images whose options imply
  // more than kDeserializeBudgetFloor bytes of fixed preallocation must
  // carry at least 1/kDeserializeBudgetSlack of it as actual payload.
  static constexpr std::uint64_t kDeserializeBudgetFloor = 1ull << 30;
  static constexpr std::uint64_t kDeserializeBudgetSlack = 4096;

  // One Gather&Sort buffer.  All three counters are monotonic: reservation
  // position p belongs to ordinal p / cap, and a buffer serves ordinal o only
  // once `ordinal` has advanced to o.  The owner of ordinal o copies the
  // slots out before it reopens the buffer for o + 1, so the slots belong to
  // one ordinal at a time while the owners' merges may overlap.
  struct Gather {
    explicit Gather(std::uint64_t cap) : slots(cap) {}
    alignas(64) std::atomic<std::uint64_t> reserved{0};
    alignas(64) std::atomic<std::uint64_t> committed{0};
    alignas(64) std::atomic<std::uint64_t> ordinal{0};
    std::vector<T> slots;
  };

  // One cell of the bounded MPSC install hand-off queue (Vyukov-style ticket
  // ring).  For ticket position p, `seq` moves p (free, producer may claim)
  // -> p + 1 (filled with a sorted 2k batch, drainer may install) -> p + Q
  // (free for the next lap).  Producers claim tickets with an F&A on
  // install_tail_; only the latch holder advances install_head_.
  struct InstallCell {
    alignas(64) std::atomic<std::uint64_t> seq{0};
    std::vector<T> items;      // cap_ sorted items (first k when level > 0)
    std::uint32_t level = 0;   // 0 = weight-1 2k batch; L > 0 = one k-run
                               // entering the ladder at level L (merge path)
  };

  struct Node {
    Node(std::uint32_t rho, std::uint64_t cap) {
      bufs.reserve(rho);
      for (std::uint32_t i = 0; i < rho; ++i) bufs.push_back(std::make_unique<Gather>(cap));
    }
    alignas(64) std::atomic<std::uint64_t> cur{0};  // generation hint for writers
    std::vector<std::unique_ptr<Gather>> bufs;
  };

  // Out-of-range (level, slot) would index past slot_blocks_ — memory
  // safety, so QC_CHECK, not assert (common/check.hpp policy).
  std::atomic<LevelBlock*>& slot_block(std::uint32_t level, std::uint32_t slot) {
    QC_CHECK(level < kLevels && slot < 2, "level slot index out of ladder range");
    return slot_blocks_[static_cast<std::size_t>(level) * 2 + slot];
  }

  const std::atomic<LevelBlock*>& slot_block(std::uint32_t level,
                                             std::uint32_t slot) const {
    QC_CHECK(level < kLevels && slot < 2, "level slot index out of ladder range");
    return slot_blocks_[static_cast<std::size_t>(level) * 2 + slot];
  }

  // Writer-side view of a published slot's items; callers hold latch_, so
  // the block cannot be retired (let alone reclaimed) underneath them.
  // Readers off the latch go through LadderImage instead.
  T* slot_ptr(std::uint32_t level, std::uint32_t slot) QC_REQUIRES(latch_) {
    LevelBlock* b = slot_block(level, slot).load(std::memory_order_relaxed);
    QC_CHECK(b != nullptr, "dereferencing an unpublished level slot");
    return b->items.data();
  }

  // ----- install latch: timed, watchdogged acquisition ----------------------
  // Every hold of latch_ goes through these helpers so hold time is always
  // observable (stats().latch_holds / latch_max_hold_ns /
  // latch_current_hold_ns) and a hold longer than Options::latch_watchdog_ns
  // is counted (latch_watchdog_trips) — a wedged or preempted holder shows
  // up in counters any thread can read, not just in a stuck flame graph.

  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  bool try_acquire_latch() const QC_TRY_ACQUIRE(true, latch_) QC_NO_THREAD_SAFETY_ANALYSIS {
    if (latch_.flag.test_and_set(std::memory_order_acquire)) return false;
    latch_since_ns_.store(now_ns(), std::memory_order_relaxed);
    return true;
  }

  void acquire_latch() const QC_ACQUIRE(latch_) QC_NO_THREAD_SAFETY_ANALYSIS {
    Backoff backoff;
    while (latch_.flag.test_and_set(std::memory_order_acquire)) backoff.spin();
    latch_since_ns_.store(now_ns(), std::memory_order_relaxed);
  }

  void release_latch() const QC_RELEASE(latch_) QC_NO_THREAD_SAFETY_ANALYSIS {
    const std::uint64_t held = now_ns() - latch_since_ns_.load(std::memory_order_relaxed);
    latch_since_ns_.store(0, std::memory_order_relaxed);
    stat_latch_holds_.fetch_add(1, std::memory_order_relaxed);
    stat_latch_hold_ns_.fetch_add(held, std::memory_order_relaxed);
    std::uint64_t seen = stat_latch_max_hold_ns_.load(std::memory_order_relaxed);
    while (seen < held && !stat_latch_max_hold_ns_.compare_exchange_weak(
                              seen, held, std::memory_order_relaxed)) {
    }
    if (opts_.latch_watchdog_ns != 0 && held > opts_.latch_watchdog_ns) {
      stat_watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
    }
    latch_.flag.clear(std::memory_order_release);
  }

  // Scoped hold for the paths that may throw under the latch (quiesce's
  // retirement bookkeeping, deserialize's rebuild, LadderImage): "the latch
  // never leaks" is a failure-model guarantee, not a convention.
  struct QC_SCOPED_CAPABILITY LatchGuard {
    explicit LatchGuard(const Quancurrent& s) QC_ACQUIRE(s.latch_) : s_(s) {
      s_.acquire_latch();
    }
    LatchGuard(const LatchGuard&) = delete;
    LatchGuard& operator=(const LatchGuard&) = delete;
    ~LatchGuard() QC_RELEASE() { s_.release_latch(); }
    const Quancurrent& s_;
  };

  // ----- IBR: allocation, retirement, reclamation (latch_ held throughout,
  // except acquire_ibr_slot which is lock-free) -----------------------------

  // Hands out a block to fill: reuse pool first (proven-safe blocks, no
  // allocator traffic), `new` otherwise.  Advances the global reclamation
  // epoch every ibr_epoch_freq allocations.
  LevelBlock* alloc_block() QC_REQUIRES(latch_) {
    LevelBlock* b;
    if (!free_blocks_.empty()) {
      b = free_blocks_.back();
      free_blocks_.pop_back();
      ibr_reused_.fetch_add(1, std::memory_order_relaxed);
    } else {
      QC_INJECT_OOM(level_block_alloc);
      // qc-lint-allow(no-alloc-under-latch): THE staging allocation site —
      // only reachable via prepare_cascade/deserialize, where a bad_alloc is
      // handled before anything is published (two-phase cascade contract).
      b = new LevelBlock(opts_.k);
      ibr_allocated_.fetch_add(1, std::memory_order_relaxed);
    }
    if (++allocs_since_epoch_ >= opts_.ibr_epoch_freq) {
      allocs_since_epoch_ = 0;
      ibr_epoch_.fetch_add(1, std::memory_order_seq_cst);
      ibr_epochs_.fetch_add(1, std::memory_order_relaxed);
    }
    b->retire_epoch = 0;
    b->held = false;
    return b;
  }

  // Publishes a fully written block at (level, slot) and retires the block
  // it displaces.  The seq_cst store participates in the reclamation-safety
  // total order: a querier that announced its epoch before loading this
  // pointer is guaranteed visible to any scan that could free the displaced
  // block (file comment, IBR).  The slot must be one the `published`
  // tritmap marks empty: a querier imaging under `published` would
  // otherwise read the new block and validate it against the old tritmap.
  // Checked in every build, since the snapshot protocol rests on it.
  void publish_slot(std::uint32_t level, std::uint32_t slot, LevelBlock* nb,
                    Tritmap published) QC_REQUIRES(latch_) {
    QC_CHECK(slot >= published.trit(level), "install overwrote a published slot");
    auto& ref = slot_block(level, slot);
    LevelBlock* old = ref.load(std::memory_order_relaxed);
    ref.store(nb, std::memory_order_seq_cst);
    if (old != nullptr) retire_block(old);
  }

  // Moves a displaced block onto the retire list, stamped with the current
  // epoch; runs a reclamation scan once ibr_recl_freq retirements have
  // accumulated since the last scan.
  void retire_block(LevelBlock* b) QC_REQUIRES(latch_) {
    b->retire_epoch = ibr_epoch_.load(std::memory_order_relaxed);
    // qc-lint-allow(no-alloc-under-latch): no-throw in practice — capacity is
    // pre-reserved by prepare_cascade / quiesce before any retirement burst.
    retired_.push_back(b);
    ibr_retired_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t pending = pending_retired();
    retire_list_len_.store(pending, std::memory_order_relaxed);
    if (pending > ibr_peak_unreclaimed_.load(std::memory_order_relaxed)) {
      ibr_peak_unreclaimed_.store(pending, std::memory_order_relaxed);
    }
    if (++retires_since_scan_ >= opts_.ibr_recl_freq) ibr_scan();
  }

  // The oldest epoch any handle currently announces (kIdleEpoch when all
  // are idle).  The announcement loads are seq_cst, like the announce
  // stores and the caller's unpublishing pointer stores: in the seq_cst
  // total order every reader either announced before this sweep reads its
  // slot (the sweep sees the announcement) or announced after the unpublish
  // (its subsequent seq_cst pointer load cannot return the retired block) —
  // exactly the dichotomy the free rule in ibr_scan needs.  (A seq_cst
  // fence + relaxed loads would do the same, but GCC's -Wtsan rejects
  // fences under -fsanitize=thread, and scans are rare enough not to care.)
  // No latch requirement: reads only atomics (ibr_stats() sweeps it lock-free
  // too); the free rule in ibr_scan is what needs the latch, not this sweep.
  std::uint64_t min_announced_epoch() const {
    std::uint64_t min_e = kIdleEpoch;
    for (IbrSlotChunk* c = ibr_chunks_.load(std::memory_order_acquire);
         c != nullptr; c = c->next.load(std::memory_order_acquire)) {
      for (const IbrSlot& s : c->slots) {
        const std::uint64_t e = s.announced.load(std::memory_order_seq_cst);
        if (e < min_e) min_e = e;
      }
    }
    return min_e;
  }

  // Reclamation scan: reclaim every retired block that no image can still
  // load and no view references.  The first is the epoch rule: a reader
  // holding a pointer into block B announced an epoch a <= B's retire stamp
  // r (it announced before loading the pointer, and the pointer was
  // unpublished before r was stamped), so r < min_announced implies no
  // image can still hold B.  The second is B's reader count, loaded after
  // the announcements, all seq_cst: a querier takes its reference before it
  // unpins, so a scan that no longer sees the pin sees the reference.  A
  // block past every pin that a view still references is marked held and
  // stays on the list (moving it to a list of its own would allocate under
  // the latch): the retire cap does not count it, since a view that is
  // never refreshed must not throttle ingest, and each scan re-checks only
  // its count.  The epoch rule bounds the pending blocks by the scan
  // cadence; each querier holds at most one view's blocks.
  void ibr_scan() QC_REQUIRES(latch_) {
    ibr_scans_.fetch_add(1, std::memory_order_relaxed);
    retires_since_scan_ = 0;  // every scan restarts the cadence, forced ones too
    const std::uint64_t min_e = min_announced_epoch();
    std::size_t kept = 0;
    std::size_t held = 0;
    for (LevelBlock* b : retired_) {
      if (!b->held && b->retire_epoch >= min_e) {
        retired_[kept++] = b;
      } else if (b->readers.load(std::memory_order_seq_cst) != 0) {
        b->held = true;
        retired_[kept++] = b;
        ++held;
      } else {
        recycle(b);
      }
    }
    ibr_reclaimed_.fetch_add(retired_.size() - kept, std::memory_order_relaxed);
    // qc-lint-allow(no-alloc-under-latch): kept <= size(), so this resize
    // only shrinks — libstdc++ never reallocates on a downward resize.
    retired_.resize(kept);
    held_count_ = held;
    held_blocks_.store(held, std::memory_order_relaxed);
    retire_list_len_.store(kept - held, std::memory_order_relaxed);
    // degraded_ is NOT cleared here: the flag marks a throttle episode, and
    // only enforce_retire_cap (its sole setter, below) knows when the
    // episode actually ends — a scan inside its wait loop can shrink the
    // list just under the cap while ingest is still blocked, and clearing
    // then would make the flag flicker invisible to observers.
  }

  // Retired blocks still awaiting the epoch rule: the ones the retire cap
  // counts (held blocks are excluded; see ibr_scan).
  std::size_t pending_retired() const QC_REQUIRES(latch_) {
    return retired_.size() - held_count_;
  }

  // Bounded-memory response to stalled readers (Options::ibr_retire_cap):
  // refuses to let the pending retired blocks exceed the cap.  Called from
  // prepare_cascade with the cascade's worst-case retirement count, under
  // the latch, BEFORE anything is published.  A forced scan is cheap; when
  // scanning cannot help — some reader really is parked mid-snapshot —
  // ingest throttles HERE until the reader unpins, so retired memory stays
  // <= cap blocks instead of growing without bound.  Queriers never take
  // the latch and are unaffected; producers feel it as install-queue
  // backpressure.  The wait is observable: ibr_stats().degraded flips true
  // for the episode, throttle_waits counts episodes, forced_scans counts
  // every off-cadence scan, and the latch watchdog times the hold.
  void enforce_retire_cap(std::uint32_t upcoming) QC_REQUIRES(latch_) {
    const std::uint32_t cap = opts_.ibr_retire_cap;
    if (cap == 0 || pending_retired() + upcoming <= cap) return;
    ibr_forced_scans_.fetch_add(1, std::memory_order_relaxed);
    ibr_scan();
    if (pending_retired() + upcoming <= cap) return;
    degraded_.store(true, std::memory_order_relaxed);
    ibr_throttle_waits_.fetch_add(1, std::memory_order_relaxed);
    Backoff backoff;
    while (pending_retired() + upcoming > cap) {
      backoff.spin();
      ibr_forced_scans_.fetch_add(1, std::memory_order_relaxed);
      ibr_scan();
    }
    // The flag spans the whole episode — set before the first wait, cleared
    // only here once ingest can proceed — so observers polling ibr_stats()
    // see one stable degraded=true window per throttle, however many scans
    // it took.
    degraded_.store(false, std::memory_order_relaxed);
  }

  // ----- two-phase cascade staging (latch_ held throughout) ----------------

  // Phase one: SIMULATE the cascade apply_cascade would run from `tm` (the
  // same tritmap transitions, no slot writes), count the blocks it publishes,
  // enforce the retire cap against that worst-case retirement burst (plus
  // the tail block a tail install displaces, when `tail`), and stage every
  // allocation in stash_.  `batch` false: no cascade, only the tail.  All
  // throwing work happens here, BEFORE anything becomes visible: on
  // bad_alloc the staged blocks return to the pool and the caller defers
  // the install.  Returns false iff the staging allocations failed.
  bool prepare_cascade(Tritmap tm, std::uint32_t entry_level, bool batch, bool tail)
      QC_REQUIRES(latch_) {
    std::uint32_t blocks = 0;
    std::uint32_t level = entry_level;
    if (batch && entry_level == 0) {
      tm = tm.after_batch_update();
    } else if (batch) {
      ++blocks;  // the entry-level k-run publication
      tm = tm.with_trit(entry_level, tm.trit(entry_level) + 1);
    }
    // Without a batch the walk ends at once: published level 0 is empty.
    while (tm.trit(level) == 2) {
      const std::uint32_t dest_level = level + 1;
      if (dest_level >= kLevels) {
        // Reaching here needs ~k * 2^33 elements; fail fast — and before a
        // single slot write is staged — rather than corrupt the heap.
        std::fprintf(stderr, "qc::Quancurrent: level ladder exhausted (k=%u too small "
                             "for this stream length)\n", opts_.k);
        std::abort();
      }
      ++blocks;
      tm = tm.after_install_propagation(level);
      level = dest_level;
    }
    // Each publication retires at most the one block it displaces, so
    // `retires` bounds the retirement burst.  The cap check runs before any
    // allocation: a degraded throttle never sits on staged blocks.
    const std::uint32_t retires = blocks + (tail ? 1 : 0);
    enforce_retire_cap(retires);
    try {
      // Pre-reserving the retire list makes retire_block's push_back during
      // the apply no-throw; stash_ itself was reserved at construction
      // (kLevels + 1 >= any cascade's block count).
      // qc-lint-allow(no-alloc-under-latch): this IS the pre-reserve phase —
      // all throwing work happens here, before anything is published, and a
      // bad_alloc unwinds to release_stash with shared state untouched.
      retired_.reserve(retired_.size() + retires);
      // qc-lint-allow(no-alloc-under-latch): stash_ capacity reserved at
      // construction (kLevels + 1); alloc_block is the audited staging site.
      while (stash_.size() < blocks) stash_.push_back(alloc_block());
    } catch (const std::bad_alloc&) {
      release_stash();
      return false;
    }
    return true;
  }

  // Hands apply_cascade its next pre-staged block; underflow means the
  // simulation and the application disagreed — a logic bug that would
  // otherwise turn into an allocation (and a possible throw) mid-publication.
  LevelBlock* take_block() QC_REQUIRES(latch_) {
    QC_CHECK(!stash_.empty(), "cascade consumed more blocks than its simulation staged");
    LevelBlock* b = stash_.back();
    stash_.pop_back();
    return b;
  }

  // Returns staged blocks nobody will consume (a failed prepare) to the
  // reuse pool.  The accounting stays consistent: pooled blocks count as
  // live until quiesce flushes the pool.
  void release_stash() QC_REQUIRES(latch_) {
    for (LevelBlock* b : stash_) recycle(b);
    stash_.clear();
  }

  // Reuses a block no image or view can reach, or frees it.  Only k-item
  // level blocks enter the reuse pool (alloc_block hands them out as level
  // blocks); a tail block becomes the next push's spare if there is none.
  void recycle(LevelBlock* b) QC_REQUIRES(latch_) {
    if (b->items.capacity() == cap_ - 1) {
      b->held = false;
      LevelBlock* none = nullptr;
      if (spare_tail_.compare_exchange_strong(none, b, std::memory_order_release,
                                              std::memory_order_relaxed)) {
        return;
      }
    } else if (b->items.size() == opts_.k && free_blocks_.size() < kFreeListCap) {
      // qc-lint-allow(no-alloc-under-latch): bounded by kFreeListCap and
      // pool capacity is warmed by the first scans; never on the hot path.
      free_blocks_.push_back(b);
      return;
    }
    delete b;
    ibr_freed_.fetch_add(1, std::memory_order_relaxed);
  }

  // A tail block with room for any tail, 2k - 1 items, so that a reclaimed
  // one can serve the next push.  No latch: tail writers call it under
  // tail_mu_, and the constructor.
  LevelBlock* new_tail_block() {
    auto b = std::make_unique<LevelBlock>(0);
    b->items.reserve(cap_ - 1);
    ibr_allocated_.fetch_add(1, std::memory_order_relaxed);
    return b.release();
  }

  // Claims a free announcement slot, growing the chunk list when none is
  // free.  Lock-free; called once per handle construction.
  IbrSlot* acquire_ibr_slot() const {
    for (IbrSlotChunk* c = ibr_chunks_.load(std::memory_order_acquire);
         c != nullptr; c = c->next.load(std::memory_order_acquire)) {
      for (IbrSlot& s : c->slots) {
        if (!s.in_use.load(std::memory_order_relaxed)) {
          bool expected = false;
          if (s.in_use.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
            return &s;
          }
        }
      }
    }
    auto* fresh = new IbrSlotChunk;
    fresh->slots[0].in_use.store(true, std::memory_order_relaxed);
    IbrSlotChunk* head = ibr_chunks_.load(std::memory_order_relaxed);
    do {
      fresh->next.store(head, std::memory_order_relaxed);
    } while (!ibr_chunks_.compare_exchange_weak(head, fresh,
                                                std::memory_order_acq_rel));
    return &fresh->slots[0];
  }

  // Emits the serde image; shared by serialize() and serialized_size() (the
  // latter passes a measuring writer), so on a quiesced sketch the two can
  // never disagree.
  void write_payload(serde::Writer& w) const QC_EXCLUDES(latch_) {
    serde::write_header(w, serde::Engine::concurrent,
                        static_cast<std::uint8_t>(sizeof(T)));
    w.put(opts_.k);
    w.put(opts_.b);
    w.put(opts_.rho);
    w.put(static_cast<std::uint8_t>(opts_.collect_stats ? 1 : 0));
    w.put(opts_.install_queue);
    w.put(static_cast<std::uint8_t>(opts_.serialize_propagation ? 1 : 0));
    w.put(opts_.ibr_epoch_freq);
    w.put(opts_.ibr_recl_freq);
    w.put(opts_.ibr_retire_cap);
    w.put(opts_.latch_watchdog_ns);
    w.put(opts_.seed);
    w.put(opts_.topology.nodes);
    w.put(opts_.topology.threads_per_node);
    if (w.measuring()) {
      // Sizing reads no contents, so it takes no lock: the rng state has a
      // fixed width, the ladder is k items for each run the tritmap counts,
      // and the tail length is an atomic.  Under concurrent ingestion the
      // result is a probe — installs may grow the ladder before the image is
      // taken, which callers absorb with headroom or a retry.
      const Tritmap tm = tritmap_.load(std::memory_order_acquire);
      w.put(std::array<std::uint64_t, 4>{});
      w.put(tm.raw());
      std::size_t runs = 0;
      for (std::uint32_t level = 1; level < kLevels; ++level) runs += tm.trit(level);
      w.put_bytes(nullptr, runs * opts_.k * sizeof(T));
      const std::uint64_t tail = tail_size_.load(std::memory_order_acquire);
      w.put(tail);
      w.put_bytes(nullptr, static_cast<std::size_t>(tail) * sizeof(T));
      return;
    }
    const LadderImage image(*this);
    w.put(image.rng_state());
    w.put(image.tritmap().raw());
    image.for_each_run([&](const T* items, std::uint32_t) {
      w.put_bytes(items, opts_.k * sizeof(T));
    });
    w.put(static_cast<std::uint64_t>(image.tail().size()));
    w.put_bytes(image.tail().data(), image.tail().size() * sizeof(T));
  }

  Updater& self_updater() {
    if (self_updater_ == nullptr) self_updater_ = std::make_unique<Updater>(*this, 0);
    return *self_updater_;
  }

  Querier& self_querier() {
    quiesce();  // drains the convenience updater too
    if (self_querier_ == nullptr) self_querier_ = std::make_unique<Querier>(*this);
    self_querier_->refresh();
    return *self_querier_;
  }

  // Moves a full local buffer into the node's gather buffer; the committer of
  // the final slot becomes the batch owner: it claims an install-queue cell,
  // copies the buffer out, reopens the ordinal, merges its copy's pre-sorted
  // b-chunks into the cell (Gather&Sort), and hands the batch to the
  // installer.  `merger` is the calling thread's merge scratch.
  void flush_chunk(std::uint32_t node_idx, const T* items, std::uint32_t count,
                   ChunkMerger<T, Compare>& merger) QC_EXCLUDES(latch_) {
    Node& node = *nodes_[node_idx];
    const std::uint64_t gen = node.cur.load(std::memory_order_acquire);
    Gather& gb = *node.bufs[gen % opts_.rho];
    const std::uint64_t pos = gb.reserved.fetch_add(count, std::memory_order_acq_rel);
    // Chaos builds: preempt the writer between its reservation and its
    // commit — the delayed-thread scenario behind the paper's hole analysis.
    QC_INJECT_STALL(gather_stall);
    const std::uint64_t ord = pos / cap_;
    const std::uint64_t off = pos % cap_;
    if (gb.ordinal.load(std::memory_order_acquire) != ord) {
      // We reserved into a future generation of this buffer: steer other
      // writers to the next buffer, then wait for our ordinal to open.
      std::uint64_t expected = gen;
      node.cur.compare_exchange_strong(expected, gen + 1, std::memory_order_acq_rel);
      const std::uint64_t wait_start = opts_.collect_stats ? now_ns() : 0;
      Backoff backoff;
      while (gb.ordinal.load(std::memory_order_acquire) != ord) backoff.spin();
      if (opts_.collect_stats) {
        stat_gather_waits_.fetch_add(1, std::memory_order_relaxed);
        stat_gather_wait_ns_.fetch_add(now_ns() - wait_start, std::memory_order_relaxed);
      }
    }
    std::copy_n(items, count, gb.slots.data() + off);
    const std::uint64_t done =
        gb.committed.fetch_add(count, std::memory_order_acq_rel) + count;
    if (done == (ord + 1) * cap_) {
      // Owner: every slot of this ordinal is committed.  Point writers at the
      // next buffer.
      std::uint64_t expected = gen;
      node.cur.compare_exchange_strong(expected, gen + 1, std::memory_order_acq_rel);
      // Ablation arm (§5.5, abl_propagation): serialize every owner duty —
      // batch formation, install enqueue, and the propagation drain — behind
      // one global lock, emulating FCDS's single propagation thread.  The
      // holder drains its own batch via drain_until, so the lock cannot
      // deadlock against the queue's backpressure.
      std::unique_lock<std::mutex> serialized;
      if (opts_.serialize_propagation) {
        serialized = std::unique_lock<std::mutex>(prop_mu_);
      }
      // Claim the install cell FIRST, then copy the slots out and reopen the
      // ordinal, so ingestion into this buffer resumes during the merge
      // rather than after it.  The order keeps the relaxation bound
      // N*b + rho*nodes*2k + install_queue*2k: a batch always sits either in
      // its gather ordinal or in a claimed install cell, never in neither
      // (reopening before the claim would let a backpressured owner hold a
      // batch outside both while its buffer refills).  The copy lands in the
      // merge's first-pass buffer, so reopening early costs no extra buffer.
      const std::uint64_t cell_pos = acquire_cell();
      InstallCell& cell = install_q_[cell_pos & (opts_.install_queue - 1)];
      cell.level = 0;
      merger.merge_staged(
          opts_.b, std::span<T>(cell.items.data(), cap_),
          [&](std::span<T> stage) {
            std::memcpy(stage.data(), gb.slots.data(), cap_ * sizeof(T));
            gb.ordinal.store(ord + 1, std::memory_order_release);
            // Chaos builds: park the owner between the reopen and its merge,
            // so the next ordinal's owner can overlap it on this buffer.
            QC_INJECT_STALL(owner_merge);
          },
          cmp_);
      cell.seq.store(cell_pos + 1, std::memory_order_release);
      drain_until(cell_pos);
    }
  }

  // Claims the next install-queue ticket and waits (backpressure) until its
  // cell is free.  The wait can only be on a cell still holding a batch from
  // the previous lap, whose producer is parked in drain_until() and will
  // drain it, so progress is guaranteed.
  std::uint64_t acquire_cell() QC_EXCLUDES(latch_) {
    // Chaos builds: delay the producer as if the ring were full, driving the
    // backpressure wait below without needing a real slow drainer.
    QC_INJECT_STALL(install_queue_full);
    const std::uint64_t pos = install_tail_.fetch_add(1, std::memory_order_acq_rel);
    InstallCell& cell = install_q_[pos & (opts_.install_queue - 1)];
    if (cell.seq.load(std::memory_order_acquire) != pos) {
      // Full ring: this producer is feeling backpressure.  Counted always
      // (not just under collect_stats) — it is the signal that update
      // throughput is drain-bound, part of the documented failure model.
      stat_queue_full_waits_.fetch_add(1, std::memory_order_relaxed);
      Backoff backoff;
      while (cell.seq.load(std::memory_order_acquire) != pos) backoff.spin();
    }
    return pos;
  }

  // Whether the cell at queue position `head` holds a filled batch.  Drainers
  // peek at this before they try the latch: while the head batch's owner is
  // still merging it, a hold could install nothing, and an empty hold would
  // be timed and counted and make the ready batch's owner back off behind it.
  bool head_ready(std::uint64_t head) const {
    return install_q_[head & (opts_.install_queue - 1)].seq.load(
               std::memory_order_acquire) == head + 1;
  }

  // Waits until the batch at queue position `my_pos` is published, helping:
  // whenever the head batch is ready and the latch is free the caller takes
  // it and installs that batch.  An owner whose batch is installed by
  // another drainer returns without ever holding the latch.
  void drain_until(std::uint64_t my_pos) QC_EXCLUDES(latch_) {
    Backoff backoff;
    for (;;) {
      const std::uint64_t head = install_head_.load(std::memory_order_acquire);
      if (head > my_pos) return;
      if (!head_ready(head)) {
        backoff.spin();
      } else if (try_acquire_latch()) {
        drain_one();
        release_latch();
      } else {
        if (opts_.collect_stats) {
          stat_latch_spins_.fetch_add(1, std::memory_order_relaxed);
        }
        backoff.spin();
      }
    }
  }

  // Installs the batch at the head of the install queue, if it is ready.
  void drain_one() QC_REQUIRES(latch_) {
    const std::uint64_t head = install_head_.load(std::memory_order_relaxed);
    InstallCell& cell = install_q_[head & (opts_.install_queue - 1)];
    if (cell.seq.load(std::memory_order_acquire) != head + 1) return;
    const std::size_t n = cell.level == 0 ? cap_ : opts_.k;
    if (!install(std::span<const T>(cell.items.data(), n), cell.level, nullptr)) return;
    cell.seq.store(head + opts_.install_queue, std::memory_order_release);
    install_head_.store(head + 1, std::memory_order_release);
  }

  // The install body shared by the queue drain and push_tail: applies the
  // cascade of `items` (a sorted 2k batch at entry level 0 or one k-run
  // above it; none when empty) against the published tritmap, stores `tail`
  // (when set) as the new tail block, and publishes both with one tritmap
  // CAS and one install_seq_ advance.  Returns false, with nothing
  // published, when the cascade's staging failed.
  //
  // Caller must hold latch_.  The latch serializes installers, and protects
  // exactly the pre-publication install state: the blocks being filled,
  // rng_ (the parity coins), epoch_counter_ / level_epoch_,
  // install_head_, the tail pointer's store, the tritmap_ CAS, and the
  // install_seq_ advance — plus all block allocation, retirement, and
  // reclamation (alloc_block / retire_block / ibr_scan are
  // latch-holder-only).  The reuse pool keeps the common case
  // allocation-free; stats counters are relaxed atomics.
  bool install(std::span<const T> items, std::uint32_t entry_level, LevelBlock* tail)
      QC_REQUIRES(latch_) {
    Tritmap published = tritmap_.load(std::memory_order_relaxed);
    const bool batch = !items.empty();
    // Two-phase install (failure-model section of the file comment): first
    // SIMULATE the cascade and stage every block it will publish — all
    // allocation, and therefore all throwing, happens before a single slot
    // is written.  On OOM nothing is published and the caller retries
    // later: backpressure, never a torn publication or a lost batch
    // (stats().install_defers counts these).
    if (!prepare_cascade(published, entry_level, batch, tail != nullptr)) {
      stat_install_defers_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    std::uint64_t steps = 0;
    const Tritmap tm = batch ? apply_cascade(published, items, entry_level, steps) : published;
    QC_CHECK(stash_.empty(), "cascade simulation diverged from its application");
    LevelBlock* old_tail = nullptr;
    if (tail != nullptr) {
      // Stamped before the pointer store that publishes it (see the
      // validation in Querier::refresh_impl), which comes last before the
      // CAS: a refresh that loads the new tail before the seq advance
      // fails its attempt, so the window is kept short.  The tail size
      // moves first: a concurrent size() may undercount a split-off batch
      // for a moment, never count it twice.
      tail->stamp = install_seq_.load(std::memory_order_relaxed) + 1;
      old_tail = tail_.load(std::memory_order_relaxed);
      tail_size_.store(tail->items.size(), std::memory_order_release);
      tail_.store(tail, std::memory_order_seq_cst);
    }
    // Chaos builds: wedge the latch holder right here, its install written
    // but not yet published — producers park on the ring, queriers keep
    // answering from the published state (a refresh that loads the new tail
    // fails validation), and the hold must show up in
    // latch_current_hold_ns / latch_watchdog_trips.
    QC_INJECT_STALL(latch_stall);
    const bool swapped = tritmap_.compare_exchange_strong(
        published, tm, std::memory_order_release, std::memory_order_relaxed);
    // Only the latch holder ever writes tritmap_; a failed CAS is not a race
    // to retry but a broken publication protocol — torn ladder state behind
    // it would mean wild slot reads, so fail loudly in every build.
    QC_CHECK(swapped, "tritmap changed under the install latch");
    install_seq_.fetch_add(1, std::memory_order_release);
    if (old_tail != nullptr) retire_block(old_tail);
    if (opts_.collect_stats && batch) {
      stat_batches_.fetch_add(1, std::memory_order_relaxed);
      stat_propagations_.fetch_add(steps, std::memory_order_relaxed);
    }
    return true;
  }

  // Applies one install's full propagation cascade against the published
  // tritmap `published`, writing level slots and epochs; returns the evolved
  // tritmap.  `entry_level` 0 is the ingest path: `items` is a sorted 2k
  // weight-1 batch that lands as level 0's two arrays and compacts upward.
  // `entry_level` L > 0 is the merge path: `items` is one sorted k-run that
  // drops into a free slot at level L (weight 2^L), cascading onward only if
  // that fills the level — so a merge replays another sketch's ladder
  // through the very same publication machinery.  A cascade climbs the
  // ladder and writes each level at most once, always into the slot the
  // published tritmap marks as the first empty one; queriers imaging under
  // `published` therefore never see a slot change underneath them (see
  // Querier::refresh_impl's validation).  Each step is one KLL compaction
  // written straight into the fresh block of the level above: level 0 keeps
  // one parity of the 2k batch by a stride copy, and a full level merges
  // its two published runs and keeps one parity in the same pass
  // (merge_compact, run_merge.hpp).  Caller must hold latch_
  // and have run prepare_cascade(published, entry_level) successfully: every
  // block consumed here comes from stash_ and the retire list is
  // pre-reserved, so this function NEVER THROWS — once the first slot write
  // lands, the cascade always runs to its tritmap CAS.
  Tritmap apply_cascade(const Tritmap published, std::span<const T> items,
                        std::uint32_t entry_level, std::uint64_t& steps)
      QC_REQUIRES(latch_) {
    // Every cascade gets a fresh epoch so querier run caches can tell two
    // writes of the same level apart.
    const std::uint64_t epoch = ++epoch_counter_;
    Tritmap tm = published;
    std::uint32_t level = entry_level;
    if (entry_level == 0) {
      // Level 0's two arrays exist only inside `items`, the sorted 2k batch
      // the first step compacts into the free slot one level up.
      tm = tm.after_batch_update();
    } else {
      // A cascade always ends with no trit at 2, so the entry level has a
      // free slot; publish the k-run there and cascade only if it fills.
      const std::uint32_t dest_slot = tm.trit(entry_level);
      // A trit of 2 here would index past the slot pair — memory safety, so
      // checked in every build (see common/check.hpp policy).
      QC_CHECK(dest_slot < 2, "cascade entry level has no free slot");
      LevelBlock* nb = take_block();
      std::memcpy(nb->items.data(), items.data(), opts_.k * sizeof(T));
      publish_slot(entry_level, dest_slot, nb, published);
      level_epoch_[entry_level].store(epoch, std::memory_order_release);
      tm = tm.with_trit(entry_level, dest_slot + 1);
    }
    while (tm.trit(level) == 2) {
      const std::uint32_t dest_level = level + 1;
      // Ladder exhaustion is diagnosed (and aborted on) by prepare_cascade,
      // which simulated this exact walk before anything was staged.
      QC_CHECK(dest_level < kLevels, "cascade walked past the simulated ladder top");
      const std::uint32_t dest_slot = tm.trit(dest_level);
      // Compact into a FRESH block with plain stores — it is invisible until
      // the pointer publication below, and published blocks are immutable,
      // so no per-item atomics are needed anywhere.
      LevelBlock* nb = take_block();
      const std::uint32_t parity = rng_.next_bool() ? 1 : 0;
      T* dest = nb->items.data();
      if (level == 0) {
        for (std::uint32_t i = 0; i < opts_.k; ++i) dest[i] = items[2 * i + parity];
      } else {
        merge_compact(slot_ptr(level, 0), opts_.k, slot_ptr(level, 1), opts_.k, parity,
                      dest, cmp_);
      }
      publish_slot(dest_level, dest_slot, nb, published);
      // Release the level's new epoch only after its publication so that a
      // reader loading this epoch (acquire) sees the new pointer; see
      // LadderImage::load.
      level_epoch_[dest_level].store(epoch, std::memory_order_release);
      tm = tm.after_install_propagation(level);
      level = dest_level;
      ++steps;
    }
    return tm;
  }

  Options opts_;
  std::uint64_t cap_ = 0;  // gather batch size: 2k
  Compare cmp_;

  std::vector<std::unique_ptr<Node>> nodes_;

  // Elastic ladder: per-(level, slot) pointers to immutable k-item blocks,
  // null until a cascade first publishes the slot.  See the file comment.
  std::array<std::atomic<LevelBlock*>, static_cast<std::size_t>(kLevels) * 2>
      slot_blocks_{};
  std::atomic<Tritmap> tritmap_{Tritmap(0)};

  // level_epoch_[l]: epoch_counter_ value of the last batch cascade that
  // wrote level l's slots (not merely cleared them).  Queriers use it to
  // reuse cached runs across refreshes; see Querier::reference_levels.
  std::array<std::atomic<std::uint64_t>, kLevels> level_epoch_{};

  // ----- IBR state.  The vectors and cadence counters are latch-protected;
  // the epoch, chunk list, and stat counters are atomics. --------------------
  std::atomic<std::uint64_t> ibr_epoch_{1};
  std::uint32_t allocs_since_epoch_ QC_GUARDED_BY(latch_) = 0;
  std::uint32_t retires_since_scan_ QC_GUARDED_BY(latch_) = 0;
  // unpublished, awaiting proof of safety; held_count_ of them are held
  // (past every pin, kept only by query views)
  std::vector<LevelBlock*> retired_ QC_GUARDED_BY(latch_);
  std::size_t held_count_ QC_GUARDED_BY(latch_) = 0;
  // proven-safe reuse pool (bounded)
  std::vector<LevelBlock*> free_blocks_ QC_GUARDED_BY(latch_);
  mutable std::atomic<IbrSlotChunk*> ibr_chunks_{nullptr};  // const paths lease too
  std::atomic<std::uint64_t> ibr_epochs_{0};
  std::atomic<std::uint64_t> ibr_allocated_{0};
  std::atomic<std::uint64_t> ibr_reused_{0};
  std::atomic<std::uint64_t> ibr_retired_{0};
  std::atomic<std::uint64_t> ibr_reclaimed_{0};
  std::atomic<std::uint64_t> ibr_freed_{0};
  std::atomic<std::uint64_t> ibr_scans_{0};
  std::atomic<std::uint64_t> ibr_peak_unreclaimed_{0};

  // Retire-cap degradation state (Options::ibr_retire_cap).  Stored by the
  // latch holder, read lock-free by ibr_stats().
  std::atomic<std::uint64_t> ibr_forced_scans_{0};
  std::atomic<std::uint64_t> ibr_throttle_waits_{0};
  std::atomic<std::uint64_t> retire_list_len_{0};
  std::atomic<std::uint64_t> held_blocks_{0};
  std::atomic<bool> degraded_{false};

  // Two-phase cascade staging area (latch-protected): the blocks
  // prepare_cascade provisioned for the next apply_cascade.  Empty between
  // drain steps; nonempty at destruction only after a mid-drain throw.
  std::vector<LevelBlock*> stash_ QC_GUARDED_BY(latch_);

  // serialize_propagation ablation arm: conditionally held around batch
  // formation + install enqueue + propagation drain.  Queriers never take it.
  // Deliberately a plain std::mutex outside the annotation model: it guards
  // no data (it serializes a code path), and its conditional unique_lock
  // pattern is exactly what the static analysis cannot express.
  std::mutex prop_mu_;

  // Bounded MPSC install hand-off queue; see InstallCell.  install_tail_ is
  // the producers' ticket counter, install_head_ the count of batches whose
  // install has been published (only the latch holder stores it).
  std::unique_ptr<InstallCell[]> install_q_;
  alignas(64) std::atomic<std::uint64_t> install_tail_{0};
  alignas(64) std::atomic<std::uint64_t> install_head_{0};

  // Install/drain path (one latch holder at a time), serialized by `latch_`.
  // Mutable: LadderImage (serialize, merge_into's source) takes it from
  // const paths to read the run pointers.  The LatchFlag doubles as the thread-safety
  // capability every QC_REQUIRES/QC_GUARDED_BY in this class names; see
  // common/annotations.hpp for the model.
  mutable sync::LatchFlag latch_;
  Xoshiro256 rng_ QC_GUARDED_BY(latch_){0};
  std::uint64_t epoch_counter_ QC_GUARDED_BY(latch_) = 0;  // per-batch-cascade

  // Monotonic publish clock: advances by one per published install, after
  // its tritmap CAS; queriers validate their ladder images against it.
  std::atomic<std::uint64_t> install_seq_{0};

  // Tail: weight-1 residue from drains, merges and quiesce, outside the
  // tritmap, as one immutable sorted block of fewer than 2k items, stored
  // only by install().  tail_mu_ only serializes tail writers (push_tail).
  // tail_size_ mirrors the block's size for the lock-free size().
  sync::Mutex tail_mu_;
  std::atomic<LevelBlock*> tail_{nullptr};
  std::atomic<std::uint64_t> tail_size_{0};
  // A reclaimed (or never published) tail block for the next push to fill,
  // or null; recycle() stores it, push_tail takes it, quiesce() frees it.
  std::atomic<LevelBlock*> spare_tail_{nullptr};

  mutable std::atomic<std::uint64_t> stat_batches_{0};
  mutable std::atomic<std::uint64_t> stat_propagations_{0};
  mutable std::atomic<std::uint64_t> stat_holes_{0};
  mutable std::atomic<std::uint64_t> stat_query_retries_{0};
  mutable std::atomic<std::uint64_t> stat_gather_waits_{0};
  mutable std::atomic<std::uint64_t> stat_gather_wait_ns_{0};
  mutable std::atomic<std::uint64_t> stat_latch_spins_{0};

  // Failure-model observability (always collected; see Stats).  Mutable
  // because the latch helpers run on const paths too (serialize, merge
  // snapshots).  latch_since_ns_ is the CURRENT hold's start timestamp
  // (0 = latch free) — stats() derives latch_current_hold_ns from it.
  mutable std::atomic<std::uint64_t> stat_latch_holds_{0};
  mutable std::atomic<std::uint64_t> stat_latch_hold_ns_{0};
  mutable std::atomic<std::uint64_t> stat_latch_max_hold_ns_{0};
  mutable std::atomic<std::uint64_t> stat_watchdog_trips_{0};
  mutable std::atomic<std::uint64_t> latch_since_ns_{0};
  std::atomic<std::uint64_t> stat_install_defers_{0};
  std::atomic<std::uint64_t> stat_queue_full_waits_{0};
  std::atomic<std::uint64_t> stat_oom_dropped_{0};

  // Lazily created handles behind the convenience update()/quantile()
  // surface (single-threaded contract).  Declared last so they are destroyed
  // first: the updater's destructor drains into the tail, which must still
  // be alive.
  std::unique_ptr<Updater> self_updater_;
  std::unique_ptr<Querier> self_querier_;
};

}  // namespace qc::core
