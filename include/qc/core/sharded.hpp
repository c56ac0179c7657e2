// ShardedQuancurrent: a serving facade over S independent Quancurrent
// shards.
//
// A single Quancurrent scales until its shared structures saturate — the
// gather buffers' F&A hot words and the install latch become the knee of the
// update-scaling curve (fig06a's gather_waits / latch_spins counters say
// when).  Past that knee the production answer is not a cleverer lock but
// MORE SKETCHES: quantile summaries are mergeable (the property KLL-style
// sketches are deployed for), so a stream can be split across S completely
// independent sketches and recombined at query time with no loss beyond the
// per-sketch error bound.
//
// Routing.  Two complementary policies:
//   * thread affinity (make_updater): each updater thread is pinned to shard
//     thread_index % S, so a thread's flushes always hit the same gather
//     buffers — zero cross-shard traffic on the hot path.  Quantile accuracy
//     does not depend on which elements land in which shard, so any
//     assignment is statistically fine.
//   * value hash (make_hash_updater): each element is routed by a mixed
//     std::hash of its value, giving every shard a statistically identical
//     substream even when per-thread streams are skewed (useful when shard
//     summaries are also consumed individually, e.g. shipped to different
//     aggregators).
//
// Queries.  Querier holds one wait-free per-shard querier and answers from
// the union of their run views through one RunView, the single sketch's
// answer engine; no per-shard summary is ever merged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/quancurrent.hpp"
#include "core/run_merge.hpp"

namespace qc::core {

template <typename T, typename Compare = std::less<T>>
class ShardedQuancurrent {
 public:
  using value_type = T;
  using Shard = Quancurrent<T, Compare>;

  // `opts` applies to every shard (normalized once here, so per-shard
  // construction stays silent); relaxation and memory scale with S.
  ShardedQuancurrent(std::uint32_t shards, Options opts) {
    if (shards == 0) shards = 1;
    const auto adjustments = opts.normalize();
    if (opts.collect_stats) Options::report(adjustments);
    shards_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(opts));
    }
  }

  // Restore path (recovery/checkpoint.hpp): wraps already-built shards in a
  // facade WITHOUT re-routing them through merge, so a same-shard-count
  // restore is bit-exact per shard.  Null when `shards` is empty or holds a
  // null; the shards should share options (the constructor-built invariant —
  // the recovery decoder deserializes every shard from one checkpoint, which
  // guarantees it), and the first shard's options become the facade's.
  static std::unique_ptr<ShardedQuancurrent> adopt(
      std::vector<std::unique_ptr<Shard>> shards) {
    if (shards.empty()) return nullptr;
    for (const auto& s : shards) {
      if (s == nullptr) return nullptr;
    }
    return std::unique_ptr<ShardedQuancurrent>(
        new ShardedQuancurrent(std::move(shards)));
  }

  std::uint32_t num_shards() const { return static_cast<std::uint32_t>(shards_.size()); }
  Shard& shard(std::uint32_t s) { return *shards_[s]; }
  const Shard& shard(std::uint32_t s) const { return *shards_[s]; }
  const Options& options() const { return shards_[0]->options(); }

  // ----- ingestion ---------------------------------------------------------

  // Thread-affinity-routed ingestion handle: a thin wrapper over the home
  // shard's updater.  Not thread-safe; create one per thread (thread_index
  // selects the home shard and the NUMA node within it).  Destruction drains
  // the remainder into the home shard's tail.
  class Updater {
   public:
    Updater(ShardedQuancurrent& sketch, std::uint32_t thread_index)
        : inner_(sketch.shards_[thread_index % sketch.num_shards()]->make_updater(
              thread_index / sketch.num_shards())) {}

    void update(const T& v) { inner_.update(v); }
    void update(std::span<const T> vs) { inner_.update(vs); }
    void drain() { inner_.drain(); }

   private:
    typename Shard::Updater inner_;
  };

  Updater make_updater(std::uint32_t thread_index) { return Updater(*this, thread_index); }

  // Value-hash-routed ingestion handle: holds one updater per shard and
  // routes each element by a mixed std::hash of its value, so every shard
  // receives a statistically identical substream regardless of input order
  // or per-thread skew.  Not thread-safe; create one per thread.
  class HashUpdater {
   public:
    HashUpdater(ShardedQuancurrent& sketch, std::uint32_t thread_index) {
      inners_.reserve(sketch.num_shards());
      for (std::uint32_t s = 0; s < sketch.num_shards(); ++s) {
        inners_.push_back(sketch.shards_[s]->make_updater(thread_index));
      }
    }

    void update(const T& v) {
      inners_[static_cast<std::size_t>(mix(std::hash<T>{}(v)) % inners_.size())]
          .update(v);
    }

    void drain() {
      for (auto& u : inners_) u.drain();
    }

   private:
    // splitmix64 finalizer: std::hash of integral types is often the
    // identity, which would route monotone streams to one shard.
    static std::uint64_t mix(std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    }

    std::vector<typename Shard::Updater> inners_;
  };

  HashUpdater make_hash_updater(std::uint32_t thread_index = 0) {
    return HashUpdater(*this, thread_index);
  }

  // Drains every shard.  Same precondition as Quancurrent::quiesce(): no
  // concurrent updaters (queriers are fine).
  void quiesce() {
    for (auto& s : shards_) s->quiesce();
  }

  // ----- queries -----------------------------------------------------------

  // Cross-shard point-in-time view: one wait-free querier per shard and a
  // RunView over their run lists in shard order.  refresh() is incremental
  // twice over: each shard querier keeps its unchanged levels, and the view is
  // rebuilt, from run references rather than items, only when some shard's
  // view moved.  No lock anywhere on this path.
  class Querier {
   public:
    explicit Querier(ShardedQuancurrent& sketch) : view_(sketch.options().k) {
      inners_.reserve(sketch.num_shards());
      for (std::uint32_t s = 0; s < sketch.num_shards(); ++s) {
        inners_.push_back(sketch.shards_[s]->make_querier());
      }
      versions_.assign(inners_.size(), ~std::uint64_t{0});
      // Room for every shard's longest run list: no refresh allocates.
      view_.stage(inners_.size() * Shard::Querier::kMaxRuns);
      catch_up();
    }

    // Refreshes every shard, then rebuilds the view if any shard's view
    // moved.  Never fails, like the shard refreshes.
    void refresh() noexcept {
      for (auto& q : inners_) q.refresh();
      catch_up();
    }

    std::uint64_t size() const { return view_.size(); }
    std::uint64_t holes() const { return holes_; }
    const WeightedSummary<T>& summary() const { return view_.summary(); }
    T quantile(double phi) const { return view_.quantile(phi); }
    std::uint64_t rank(const T& v) const { return view_.rank(v); }
    double cdf(const T& v) const { return view_.cdf(v); }

   private:
    // Rebuilds the view if any shard's view moved since the last rebuild.
    // The view points into the level and tail blocks the shard queriers
    // hold, which a shard's refresh lets go of only when it publishes a new
    // view: a moved version.
    void catch_up() noexcept {
      bool moved = false;
      for (std::size_t s = 0; s < inners_.size(); ++s) {
        moved = moved || versions_[s] != inners_[s].version();
      }
      if (!moved) return;
      auto& staged = view_.stage();
      for (const auto& q : inners_) {
        staged.insert(staged.end(), q.runs().begin(), q.runs().end());
      }
      view_.commit();
      holes_ = 0;
      for (std::size_t s = 0; s < inners_.size(); ++s) {
        versions_[s] = inners_[s].version();
        holes_ += inners_[s].holes();
      }
    }

    std::vector<typename Shard::Querier> inners_;
    std::vector<std::uint64_t> versions_;
    RunView<T, Compare> view_;
    std::uint64_t holes_ = 0;
  };

  Querier make_querier() { return Querier(*this); }

  // ----- introspection -----------------------------------------------------

  std::uint64_t size() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->size();
    return total;
  }

  std::uint64_t retained() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->retained();
    return total;
  }

  // Field-wise sum over shards (max for the latch-hold maxima).
  Stats stats() const {
    Stats total;
    for (const auto& s : shards_) {
      const Stats st = s->stats();
      total.batches += st.batches;
      total.propagations += st.propagations;
      total.holes += st.holes;
      total.query_retries += st.query_retries;
      total.gather_waits += st.gather_waits;
      total.gather_wait_ns += st.gather_wait_ns;
      total.latch_spins += st.latch_spins;
      total.installs += st.installs;
      total.install_defers += st.install_defers;
      total.queue_full_waits += st.queue_full_waits;
      total.oom_dropped_items += st.oom_dropped_items;
      total.latch_holds += st.latch_holds;
      total.latch_hold_total_ns += st.latch_hold_total_ns;
      // Shard latches are independent: the fleet-wide worst hold (and the
      // oldest in-progress hold) is the worst shard's, not a sum.
      total.latch_max_hold_ns = std::max(total.latch_max_hold_ns, st.latch_max_hold_ns);
      total.latch_current_hold_ns =
          std::max(total.latch_current_hold_ns, st.latch_current_hold_ns);
      total.latch_watchdog_trips += st.latch_watchdog_trips;
    }
    return total;
  }

  // Field-wise sum over shards (max for peak_unreclaimed: per-shard retire
  // lists are independent, so the fleet-wide peak is the worst shard's).
  IbrStats ibr_stats() const {
    IbrStats total;
    for (const auto& s : shards_) {
      const IbrStats st = s->ibr_stats();
      total.epochs += st.epochs;
      total.allocated += st.allocated;
      total.reused += st.reused;
      total.retired += st.retired;
      total.reclaimed += st.reclaimed;
      total.freed += st.freed;
      total.scans += st.scans;
      total.peak_unreclaimed = std::max(total.peak_unreclaimed, st.peak_unreclaimed);
      total.forced_scans += st.forced_scans;
      total.throttle_waits += st.throttle_waits;
      total.retire_list_len += st.retire_list_len;
      total.held_blocks += st.held_blocks;
      // Age is a point-in-time lag, so the fleet reports its slowest pin;
      // degraded is sticky across the facade — one throttled shard degrades
      // the fleet's ingest.
      total.pinned_epoch_age = std::max(total.pinned_epoch_age, st.pinned_epoch_age);
      total.degraded = total.degraded || st.degraded;
    }
    return total;
  }

 private:
  explicit ShardedQuancurrent(std::vector<std::unique_ptr<Shard>> shards)
      : shards_(std::move(shards)) {}

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qc::core
