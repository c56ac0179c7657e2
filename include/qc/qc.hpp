// qc.hpp — the public API of the qc quantile-sketch library (API v1).
//
// One include gives the whole surface:
//
//   * qc::QuantilesSketch<T>   — the sequential KLL-style sketch.
//   * qc::Quancurrent<T>       — the concurrent sketch (SPAA 2023); options
//                                in qc::Options, validated by
//                                Options::validate().
//   * qc::ShardedQuancurrent<T>— S independent Quancurrent shards behind one
//                                facade, for update rates past a single
//                                sketch's contention knee.
//   * qc::QuantileSketch       — the concept both sketch ENGINES model:
//                                update / quantile / rank / cdf / size plus
//                                merge_into and binary serde.  (The sharded
//                                facade is handle-only: ingest and query it
//                                through UpdaterHandle/QuerierHandle or its
//                                make_* members; merge/serde operate on its
//                                individual shard(i) sketches.)
//   * qc::UpdaterHandle<S> /
//     qc::QuerierHandle<S>     — RAII per-thread handles, the uniform way to
//                                ingest into and query ANY engine (see the
//                                thread-affinity and lifetime rules below).
//
// Quick tour:
//
//   #include "qc.hpp"
//
//   qc::Quancurrent<double> sk(qc::Options{.k = 1024});
//   { qc::UpdaterHandle u(sk); for (double v : data) u.update(v); }  // per thread
//   qc::QuerierHandle q(sk);
//   double median = q.quantile(0.5);
//
//   // Merge: fold `other` into `sk` (wait-free for concurrent queriers).
//   other.merge_into(sk);
//
//   // Serde: ship a sketch to another process.
//   std::vector<std::byte> blob(sk.serialized_size());
//   sk.serialize(blob);
//   auto copy = qc::Quancurrent<double>::deserialize(blob);
//
//   // Durability (qc::recovery, see README "Durability & recovery"):
//   // crash-safe checkpoints of a live sketch and torn-write-proof restore.
//   qc::recovery::Checkpointer ck(sk, {.dir = "/var/lib/myapp/ckpt"});
//   ck.checkpoint();                      // temp + fsync + rename, retried
//   qc::recovery::RecoveryReport rep;
//   auto restored = qc::recovery::recover<double>("/var/lib/myapp/ckpt",
//                                                 "sketch", &rep);
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/quancurrent.hpp"
#include "core/run_merge.hpp"
#include "core/sharded.hpp"
#include "recovery/checkpoint.hpp"
#include "sequential/quantiles_sketch.hpp"
#include "serde/binary.hpp"

namespace qc {

// Engine types under their public names.
using core::IbrStats;
using core::Options;
using core::Quancurrent;
using core::ShardedQuancurrent;
using core::Stats;
using core::WeightedSummary;
using sequential::QuantilesSketch;

// The contract shared by every quantile-sketch engine: streaming ingestion,
// rank/quantile/cdf queries, size introspection, folding into another sketch
// of the same type, and versioned binary serde (serialize returns bytes
// written, 0 when the buffer is too small; deserialize returns an engine-
// appropriate nullable handle — optional for value types, unique_ptr for
// pinned concurrent sketches).
template <typename S>
concept QuantileSketch = requires(S& s, const S& cs, S& target,
                                  const typename S::value_type& v, double phi,
                                  std::span<std::byte> out,
                                  std::span<const std::byte> in) {
  typename S::value_type;
  s.update(v);
  { s.quantile(phi) } -> std::convertible_to<typename S::value_type>;
  { s.rank(v) } -> std::convertible_to<std::uint64_t>;
  { s.cdf(v) } -> std::convertible_to<double>;
  { cs.size() } -> std::convertible_to<std::uint64_t>;
  { cs.merge_into(target) } -> std::same_as<bool>;
  { cs.serialized_size() } -> std::convertible_to<std::size_t>;
  { cs.serialize(out) } -> std::convertible_to<std::size_t>;
  { S::deserialize(in) };
};

// Engines whose concurrent surface hands out per-thread updater/querier
// objects (Quancurrent, ShardedQuancurrent); the handles below wrap those,
// and fall back to direct sketch access for sequential engines.
template <typename S>
concept ConcurrentEngine = requires(S& s, std::uint32_t thread_index) {
  s.make_updater(thread_index);
  s.make_querier();
};

namespace detail {

template <typename S, bool = ConcurrentEngine<S>>
struct UpdaterImpl {
  using type = decltype(std::declval<S&>().make_updater(0u));
  static type make(S& s, std::uint32_t thread_index) {
    return s.make_updater(thread_index);
  }
};

template <typename S>
struct UpdaterImpl<S, false> {
  using type = S*;
  static type make(S& s, std::uint32_t) { return &s; }
};

template <typename S, bool = ConcurrentEngine<S>>
struct QuerierImpl {
  using type = decltype(std::declval<S&>().make_querier());
  static type make(S& s) { return s.make_querier(); }
};

template <typename S>
struct QuerierImpl<S, false> {
  using type = S*;
  static type make(S& s) { return &s; }
};

}  // namespace detail

// RAII per-thread ingestion handle, uniform across engines.
//
// Thread-affinity rule: a handle belongs to the thread that uses it — it is
// NOT thread-safe, and with ShardedQuancurrent the thread_index also picks
// the home shard, so create exactly one per ingesting thread (move is
// allowed, concurrent use is not).  Lifetime rule: the handle must not
// outlive the sketch, and buffered elements only become query-visible when
// the handle flushes — destruction (or an explicit flush()) drains the
// remainder, so scope handles tightly:  { UpdaterHandle u(sk); ...updates; }
// guarantees everything is visible (after the sketch's bounded relaxation)
// once the scope exits.  For sequential engines the handle simply forwards
// to the sketch, which must then not be used concurrently — the same
// exclusivity contract the sequential sketch always had.
template <typename S>
class UpdaterHandle {
 public:
  using value_type = typename S::value_type;

  explicit UpdaterHandle(S& sketch, std::uint32_t thread_index = 0)
      : impl_(detail::UpdaterImpl<S>::make(sketch, thread_index)) {}

  UpdaterHandle(UpdaterHandle&&) noexcept = default;
  UpdaterHandle(const UpdaterHandle&) = delete;
  UpdaterHandle& operator=(const UpdaterHandle&) = delete;

  void update(const value_type& v) {
    if constexpr (ConcurrentEngine<S>) {
      impl_.update(v);
    } else {
      impl_->update(v);
    }
  }

  void update(std::span<const value_type> vs) {
    if constexpr (ConcurrentEngine<S>) {
      impl_.update(vs);
    } else {
      for (const value_type& v : vs) impl_->update(v);
    }
  }

  // Makes everything buffered in this handle query-visible now instead of at
  // destruction (concurrent engines route the partial buffer through the
  // sketch's weight-1 tail).
  void flush() {
    if constexpr (ConcurrentEngine<S>) impl_.drain();
  }

 private:
  typename detail::UpdaterImpl<S>::type impl_;
};

// RAII query handle, uniform across engines.
//
// Thread-affinity rule: one handle per querying thread; the handle caches a
// private snapshot (sorted runs, plus a summary merged once enough answers
// have come from one snapshot; for a sharded sketch, the union of its
// shards' runs) and is not thread-safe, while any number of handles query
// the same sketch concurrently and wait-free.
// Lifetime rule: the handle must not outlive the sketch; answers come from
// the snapshot taken by the last refresh(), so call refresh() whenever newer
// data should become visible (it is O(1) when nothing changed, and it never
// throws: a concurrent engine's refresh allocates nothing).  For
// sequential engines refresh() is a no-op and answers always reflect the
// sketch's current state — under that engine's single-threaded contract.
template <typename S>
class QuerierHandle {
 public:
  using value_type = typename S::value_type;

  explicit QuerierHandle(S& sketch) : impl_(detail::QuerierImpl<S>::make(sketch)) {}

  QuerierHandle(QuerierHandle&&) noexcept = default;
  QuerierHandle(const QuerierHandle&) = delete;
  QuerierHandle& operator=(const QuerierHandle&) = delete;

  void refresh() noexcept {
    if constexpr (ConcurrentEngine<S>) impl_.refresh();
  }

  value_type quantile(double phi) const { return impl().quantile(phi); }
  std::uint64_t rank(const value_type& v) const { return impl().rank(v); }
  double cdf(const value_type& v) const { return impl().cdf(v); }
  std::uint64_t size() const { return impl().size(); }

 private:
  decltype(auto) impl() const {
    if constexpr (ConcurrentEngine<S>) {
      return (impl_);
    } else {
      return (*impl_);
    }
  }

  typename detail::QuerierImpl<S>::type impl_;
};

// Serializes any QuantileSketch into a freshly sized byte vector.  Sizing
// and serializing are two separate snapshots, so under concurrent ingestion
// the payload can grow in between (serialize then returns 0); retry with the
// fresh size until one image fits.
template <QuantileSketch S>
std::vector<std::byte> to_bytes(const S& sketch) {
  std::vector<std::byte> out;
  std::size_t written = 0;
  do {
    out.resize(sketch.serialized_size());
    written = sketch.serialize(out);
  } while (written == 0 && !out.empty());
  out.resize(written);
  return out;
}

}  // namespace qc
