// Tests for the parallel ingest pipeline: pre-sorted local buffers, the
// chunk-merge Gather&Sort primitives, and the install queue.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/workload.hpp"
#include "core/quancurrent.hpp"
#include "core/run_merge.hpp"
#include "qc_test.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

using qc::stream::Distribution;

namespace {

qc::core::Options pipeline_options(std::uint32_t k, std::uint32_t b) {
  qc::core::Options o;
  o.k = k;
  o.b = b;
  o.collect_stats = true;
  o.topology = qc::numa::Topology::virtual_nodes(2, 2);
  return o;
}

// Random data whose chunk-length runs are each sorted (the chunk-merge
// precondition), plus the fully sorted expectation.
struct ChunkedInput {
  std::vector<double> chunked;
  std::vector<double> expected;
};

ChunkedInput make_chunked(std::size_t n, std::size_t chunk, std::uint64_t seed) {
  qc::Xoshiro256 rng(seed);
  ChunkedInput in;
  in.chunked.resize(n);
  for (auto& v : in.chunked) {
    v = (rng.next_double() - 0.5) * 1e4;
    if (rng() % 8 == 0) v = static_cast<double>(static_cast<int>(v) % 8);  // dups
  }
  in.expected = in.chunked;
  std::sort(in.expected.begin(), in.expected.end());
  const std::size_t c = chunk == 0 ? n : chunk;
  for (std::size_t off = 0; off < n; off += c) {
    std::sort(in.chunked.begin() + static_cast<std::ptrdiff_t>(off),
              in.chunked.begin() + static_cast<std::ptrdiff_t>(std::min(off + c, n)));
  }
  return in;
}

}  // namespace

// Property test: merging pre-sorted chunks produces exactly the value
// sequence a full sort would, for both the production ChunkMerger and the
// generic loser-tree raw merge, across sizes, chunk lengths (dividing and
// not), and the degenerate single-chunk / chunk-of-one cases.  So does the
// ingest presort (small_sort per 16-item block, then the chunk merge) on
// unsorted input, with a short last block, and when the caller sorted the
// complete blocks already: every size up to 17, FCDS's 100 and 1000 and a
// 1024-item local buffer.
QC_TEST(chunk_merge_equals_full_sort) {
  qc::core::ChunkMerger<double> chunk_merger;
  qc::core::RunMerger<double> tree_merger;
  std::uint64_t seed = 1;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{1000},
        std::size_t{4096}, std::size_t{8192}}) {
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{3}, std::size_t{16}, std::size_t{100},
          std::size_t{256}, n, 2 * n}) {
      const auto in = make_chunked(n, chunk, seed++);
      std::vector<double> out(n, -1.0);
      chunk_merger.merge(std::span<const double>(in.chunked), chunk,
                         std::span<double>(out));
      CHECK(out == in.expected);

      std::vector<qc::core::RunRef<double>> runs;
      qc::core::chunk_runs(std::span<const double>(in.chunked), chunk, runs);
      std::vector<double> tree_out(n, -1.0);
      const std::size_t written = tree_merger.merge_items(
          std::span<const qc::core::RunRef<double>>(runs),
          std::span<double>(tree_out));
      CHECK_EQ(written, n);
      CHECK(tree_out == in.expected);
    }
  }

  std::vector<std::size_t> presort_sizes{100, 1000, 1024};
  for (std::size_t n = 1; n <= 17; ++n) presort_sizes.push_back(n);
  for (const std::size_t n : presort_sizes) {
    const std::size_t block = qc::core::kPresortBlock;
    const auto in = make_chunked(n, 1, seed++);  // chunks of one: unsorted
    const auto presorted = make_chunked(n, block, seed - 1);
    const std::size_t complete = n - n % block;
    for (std::size_t sorted_prefix : {std::size_t{0}, complete}) {
      std::vector<double> data = in.chunked;
      if (sorted_prefix != 0) {
        std::copy_n(presorted.chunked.begin(), complete, data.begin());
      }
      std::vector<double> out(n, -1.0);
      const auto sorted = qc::core::presort(std::span<double>(data), std::span<double>(out),
                                            chunk_merger, std::less<double>(), sorted_prefix);
      CHECK(std::equal(sorted.begin(), sorted.end(), in.expected.begin(), in.expected.end()));
      CHECK_EQ(sorted.data() == data.data(), n <= block);
    }
  }
}

// The staged merge the batch owner runs must be bit-identical to merge():
// chunk = n (0 passes), odd and even pass counts, a short last chunk, b in
// {1, 16, 64}, with duplicates and both zeros in the data.  After its copy
// the stage overwrites the original input with garbage, as writers to a
// reopened gather buffer may while the owner merges: the merge must read
// only the staged copy.
QC_TEST(staged_chunk_merge_matches_merge) {
  qc::core::ChunkMerger<double> reference;
  qc::core::ChunkMerger<double> staged;
  qc::Xoshiro256 rng(91);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    for (const std::size_t n : {chunk, 2 * chunk, 4 * chunk, 8 * chunk, 16 * chunk,
                                3 * chunk + chunk / 2 + 1, std::size_t{8192}}) {
      std::vector<double> input(n);
      for (auto& v : input) {
        switch (rng() % 4) {
          case 0: v = 0.0; break;
          case 1: v = -0.0; break;
          case 2: v = static_cast<double>(rng() % 5); break;
          default: v = (rng.next_double() - 0.5) * 1e4; break;
        }
      }
      for (std::size_t off = 0; off < n; off += chunk) {
        std::sort(input.begin() + static_cast<std::ptrdiff_t>(off),
                  input.begin() + static_cast<std::ptrdiff_t>(std::min(off + chunk, n)));
      }
      std::vector<double> want(n);
      reference.merge(std::span<const double>(input), chunk, std::span<double>(want));

      std::vector<double> got(n, 7.0);
      bool staged_once = false;
      staged.merge_staged(chunk, std::span<double>(got), [&](std::span<double> stage) {
        CHECK_EQ(stage.size(), n);
        if (chunk >= n) CHECK(stage.data() == got.data());  // nothing to merge
        std::copy(input.begin(), input.end(), stage.begin());
        std::fill(input.begin(), input.end(), -1e300);
        staged_once = true;
      });
      CHECK(staged_once);
      CHECK(std::memcmp(got.data(), want.data(), n * sizeof(double)) == 0);
    }
  }
}

// merge_compact against its definition, byte for byte: std::merge (ties
// from the first run) followed by keeping every other merged item from
// `parity`.  Equal and unequal run lengths, odd totals, both parities, both
// orders, and data with ties that only bit inspection tells apart (+0.0 and
// -0.0), all-equal runs, and runs over disjoint value ranges.  Every call
// writes into a guarded buffer: nothing past the returned count may change.
template <typename Compare>
void check_merge_compact(Compare cmp, std::uint64_t seed) {
  qc::Xoshiro256 rng(seed);
  enum class Data { kUniform, kAllEqual, kMod7, kSignedZeros, kDisjointAB, kDisjointBA };
  const auto fill = [&](std::vector<double>& v, Data d, double base) {
    for (auto& x : v) {
      switch (d) {
        case Data::kUniform: x = rng.next_double(); break;
        case Data::kAllEqual: x = 3.0; break;
        case Data::kMod7: x = static_cast<double>(rng() % 7); break;
        case Data::kSignedZeros: x = rng() % 3 == 0 ? 1.0 : (rng() % 2 ? 0.0 : -0.0); break;
        default: x = base + rng.next_double(); break;
      }
    }
    std::sort(v.begin(), v.end(), cmp);
  };
  std::vector<std::pair<std::size_t, std::size_t>> sizes;
  for (const std::size_t k : {2, 3, 5, 16, 17, 4096}) sizes.emplace_back(k, k);
  for (const auto& [na, nb] : std::initializer_list<std::pair<std::size_t, std::size_t>>{
           {0, 0}, {0, 1}, {1, 0}, {0, 9}, {9, 0}, {1, 2}, {7, 30}, {30, 7},
           {64, 63}, {100, 1}, {1, 100}, {1000, 4097}, {4097, 1000}}) {
    sizes.emplace_back(na, nb);
  }
  for (const auto& [na, nb] : sizes) {
    for (const Data d : {Data::kUniform, Data::kAllEqual, Data::kMod7, Data::kSignedZeros,
                         Data::kDisjointAB, Data::kDisjointBA}) {
      std::vector<double> a(na);
      std::vector<double> b(nb);
      const bool ab = d != Data::kDisjointBA;
      fill(a, d, ab ? 0.0 : 10.0);
      fill(b, d, ab ? 10.0 : 0.0);
      std::vector<double> merged(na + nb);
      std::merge(a.begin(), a.end(), b.begin(), b.end(), merged.begin(), cmp);
      for (const std::uint32_t parity : {0u, 1u}) {
        std::vector<double> want;
        for (std::size_t i = parity; i < merged.size(); i += 2) want.push_back(merged[i]);
        std::vector<double> got(want.size() + 8, 12345.0);
        const std::size_t written =
            qc::core::merge_compact(a.data(), na, b.data(), nb, parity, got.data(), cmp);
        CHECK_EQ(written, want.size());
        CHECK(want.empty() ||
              std::memcmp(got.data(), want.data(), want.size() * sizeof(double)) == 0);
        for (std::size_t i = want.size(); i < got.size(); ++i) CHECK_EQ(got[i], 12345.0);
      }
    }
  }
}

QC_TEST(merge_compact_matches_merge_then_stride) {
  check_merge_compact(std::less<double>(), 71);
  check_merge_compact(std::greater<double>(), 72);
}

// Unsorted input breaks the merge's contract, not memory: the output is
// some sequence of input items, exactly the documented count long.
QC_TEST(merge_compact_stays_in_bounds_on_unsorted_input) {
  qc::Xoshiro256 rng(73);
  for (const std::size_t n : {std::size_t{5}, std::size_t{64}, std::size_t{1001}}) {
    std::vector<double> a(n);
    std::vector<double> b(n + 3);
    for (auto& x : a) x = rng.next_double();
    for (auto& x : b) x = rng.next_double();
    for (const std::uint32_t parity : {0u, 1u}) {
      const std::size_t count = (2 * n + 3 + 1 - parity) / 2;
      std::vector<double> got(count + 8, -1.0);
      CHECK_EQ(qc::core::merge_compact(a.data(), a.size(), b.data(), b.size(), parity,
                                       got.data()),
               count);
      for (std::size_t i = 0; i < count; ++i) CHECK(got[i] >= 0.0);
      for (std::size_t i = count; i < got.size(); ++i) CHECK_EQ(got[i], -1.0);
    }
  }
}

// The sorting networks must be true permutations of the input bit patterns:
// IEEE min/max-style compare-exchanges duplicate one of {+0.0, -0.0} (both
// compare equal, so only bit inspection catches it).  small_sort runs on
// every local buffer, so a lossy exchange would silently corrupt the stream.
QC_TEST(small_sort_preserves_signed_zero_bits) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                              std::size_t{16}}) {
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = (mask >> i) & 1 ? -0.0 : +0.0;
      }
      qc::core::small_sort(std::span<double>(v));
      // Zeros of either sign compare equal, so any output order is sorted —
      // but every input bit pattern must survive (permutation property).
      std::size_t neg = 0;
      for (const double d : v) neg += std::signbit(d) ? 1 : 0;
      CHECK_EQ(neg, static_cast<std::size_t>(std::popcount(mask)));
    }
  }
}

// quiesce() must install batches still parked in the install queue before
// counting gather residue and compacting the tail.
QC_TEST(quiesce_drains_pending_install_queue) {
  const std::uint32_t k = 64;
  const std::size_t cap = 2 * k;
  auto o = pipeline_options(k, 8);
  o.install_queue = 16;
  qc::core::Quancurrent<double> sk(o);

  auto batch = qc::stream::make_stream(Distribution::kUniform, cap, 5);
  std::sort(batch.begin(), batch.end());
  sk.enqueue_batch(std::span<const double>(batch));
  sk.enqueue_batch(std::span<const double>(batch));
  // Partial updater residue rides along through the tail.
  {
    auto updater = sk.make_updater(0);
    for (int i = 0; i < 5; ++i) updater.update(0.5);
  }
  CHECK_EQ(sk.size(), 5u);  // queued batches invisible until installed
  sk.quiesce();
  CHECK_EQ(sk.size(), 2 * cap + 5);
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), 2 * cap + 5);
  CHECK_EQ(q.rank(1e18), 2 * cap + 5);
}

// Bulk update(span) must be byte-for-byte equivalent to element-wise
// update(v), including partial local buffers across odd split points.
QC_TEST(bulk_update_matches_scalar_update) {
  const std::uint64_t n = 30'000;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 31);
  auto o = pipeline_options(64, 8);
  qc::core::Quancurrent<double> scalar_sk(o);
  qc::core::Quancurrent<double> bulk_sk(o);
  {
    auto u = scalar_sk.make_updater(0);
    for (const double v : data) u.update(v);
  }
  {
    auto u = bulk_sk.make_updater(0);
    // Feed in ragged pieces so chunks straddle span boundaries.
    std::size_t off = 0;
    std::size_t piece = 1;
    while (off < n) {
      const std::size_t len = std::min<std::size_t>(piece, n - off);
      u.update(std::span<const double>(data.data() + off, len));
      off += len;
      piece = piece * 3 + 1;
    }
  }
  scalar_sk.quiesce();
  bulk_sk.quiesce();
  CHECK_EQ(scalar_sk.size(), n);
  CHECK_EQ(bulk_sk.size(), n);
  CHECK_EQ(scalar_sk.tritmap().raw(), bulk_sk.tritmap().raw());
  auto qs = scalar_sk.make_querier();
  auto qb = bulk_sk.make_querier();
  CHECK(qs.summary() == qb.summary());
}

// Contention counters must be populated (and stay zero when the workload
// cannot produce the event).
QC_TEST(stats_expose_ingest_contention_counters) {
  const std::uint64_t n = 100'000;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 37);
  qc::core::Quancurrent<double> sk(pipeline_options(64, 8));
  qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);
  const auto st = sk.stats();
  CHECK(st.batches > 0u);
  // Every install publishes exactly one batch.
  CHECK_EQ(st.installs, st.batches);
  CHECK(st.latch_holds >= st.batches);
  // Weight conservation across the installer.
  CHECK_EQ(sk.size(), n);

  // One updater: no flush finds its ordinal closed, and every latch hold
  // installs a batch (drainers do not take the latch for a head batch that
  // is not ready), so the holds are the batches plus quiesce()'s two: the
  // tail install of the 32-item gather residue and the reclamation hold.
  qc::core::Quancurrent<double> one(pipeline_options(64, 8));
  qc::bench::ingest_quancurrent(one, data, 1, /*quiesce=*/true);
  const auto s1 = one.stats();
  CHECK(s1.batches > 0u);
  CHECK_EQ(s1.gather_waits, 0u);
  CHECK_EQ(s1.gather_wait_ns, 0u);
  CHECK_EQ(s1.latch_holds, s1.batches + 2);
  CHECK_EQ(one.size(), n);
}

// Mixed updaters + queriers hammering the installer; run under
// whatever sanitizer the build config selects (ASan/UBSan or TSan via
// -DQC_SANITIZE=thread).  Queriers must only ever observe whole installed
// batches (size % 2k == 0 while the tail is untouched) and sorted summaries.
QC_TEST(mixed_updaters_and_queriers_stress) {
  // Each updater's slice (n / threads) must be a whole number of b-buffers so
  // the tail stays empty until quiesce and the size % 2k invariant holds.
  const std::uint64_t n = 160'000;
  const std::uint32_t k = 64;
  const std::uint32_t upd_threads = 4;
  static_assert((160'000 / 4) % 8 == 0);
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 41);
  qc::core::Quancurrent<double> sk(pipeline_options(k, 8));

  std::atomic<bool> stop{false};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&] {
      auto q = sk.make_querier();
      while (!stop.load(std::memory_order_acquire)) {
        q.refresh();
        const std::uint64_t size = q.size();
        if (q.holes() == 0) {
          CHECK_EQ(size % (2 * k), 0u);
        }
        if (size != 0) {
          const double med = q.quantile(0.5);
          CHECK(med >= 0.0 && med < 1.0);
          const auto items = q.summary().items();
          CHECK(std::is_sorted(items.begin(), items.end()));
        }
      }
    });
  }
  qc::bench::ingest_quancurrent(sk, data, upd_threads);
  stop.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();

  sk.quiesce();
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
  CHECK_EQ(q.size(), sk.size());
  CHECK_EQ(q.rank(1e18), n);
}

QC_TEST_MAIN()
