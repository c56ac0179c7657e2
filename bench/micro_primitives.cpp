// Micro-benchmarks for the engine's primitives, covering both hot paths.
//
// Query side: merge-based summary refresh vs. the old global-sort refresh,
// incremental (tritmap-diff) refresh vs. full re-copy, binary-search
// quantiles vs. the old linear scan.  These quantify the constants behind
// fig06b/fig06c.
//
// Ingest side: the owner's Gather&Sort cost — multiway merge of pre-sorted
// b-chunks vs. the full-sort baseline (radix batch_sort and std::sort) across
// k x b — plus the substrate ops (batch radix sort, tritmap arithmetic).
// These quantify the constants behind fig06a/fig07a/fig07b; results land in
// BENCH_ingest_micro.json.
//
// Env: QC_SCALE/QC_KEYS, QC_K, QC_B, QC_BENCH_JSON.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "atomics/tritmap.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/workload.hpp"
#include "common/env.hpp"
#include "common/fmt_table.hpp"
#include "common/timer.hpp"
#include "core/batch_sort.hpp"
#include "core/quancurrent.hpp"
#include "core/run_merge.hpp"
#include "stream/generators.hpp"

namespace {

// Keeps `v` observable so the compiler cannot elide the benchmarked work.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

// Average seconds per call of fn() over `iters` calls.
template <typename Fn>
double time_per_op(std::uint64_t iters, Fn&& fn) {
  qc::Timer t;
  for (std::uint64_t i = 0; i < iters; ++i) fn();
  return t.seconds() / static_cast<double>(iters);
}

// Best-of-3 average: reruns the timing loop and keeps the fastest repetition,
// shedding frequency wobble and scheduler noise on shared CI runners.
template <typename Fn>
double best_time_per_op(std::uint64_t iters, Fn&& fn) {
  double best = time_per_op(iters, fn);
  for (int rep = 0; rep < 2; ++rep) best = std::min(best, time_per_op(iters, fn));
  return best;
}

std::string nanos(double seconds) { return qc::Table::num(seconds * 1e9, 1) + " ns"; }
std::string micros(double seconds) { return qc::Table::num(seconds * 1e6, 2) + " us"; }

}  // namespace

int main() {
  using namespace qc;
  const auto scale = env::bench_scale();
  const std::uint32_t k = static_cast<std::uint32_t>(env::get_u64("QC_K", 4096));
  const std::uint32_t b = static_cast<std::uint32_t>(env::get_u64("QC_B", 16));

  std::printf("=== micro_primitives ===\n");
  std::printf("k=%u b=%u n=%llu\n\n", k, b,
              static_cast<unsigned long long>(scale.keys));

  Table t({"case", "time/op", "note"});

  // ----- query path: refresh strategies on a quiesced sketch ---------------
  core::Options o;
  o.k = k;
  o.b = b;
  core::Quancurrent<double> sk(o);
  const auto data = stream::make_stream(stream::Distribution::kUniform, scale.keys, 7);
  bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);
  const std::uint64_t retained = sk.retained();
  const std::uint64_t refresh_iters = std::clamp<std::uint64_t>(
      50'000'000 / std::max<std::uint64_t>(retained, 1), 10, 2000);

  auto q = sk.make_querier();
  q.set_sort_baseline(true);
  const double sort_refresh =
      time_per_op(refresh_iters, [&] { q.refresh_full(); });
  q.set_sort_baseline(false);
  const double merge_refresh =
      time_per_op(refresh_iters, [&] { q.refresh_full(); });
  const double incr_refresh = time_per_op(refresh_iters * 100, [&] { q.refresh(); });

  t.add_row({"refresh: global sort (old)", micros(sort_refresh),
             "R=" + Table::integer(retained)});
  t.add_row({"refresh: multiway merge", micros(merge_refresh),
             Table::num(sort_refresh / merge_refresh, 2) + "x vs sort"});
  t.add_row({"refresh: incremental (no change)", nanos(incr_refresh), "O(1) fast path"});

  // ----- query path: quantile/rank on a frozen snapshot --------------------
  q.refresh();
  const auto& summary = q.summary();
  double phi = 0.0;
  const double quantile_bsearch = time_per_op(1'000'000, [&] {
    phi += 0.001;
    if (phi >= 1.0) phi = 0.001;
    keep(q.quantile(phi));
  });
  // The old linear scan over the summary, for comparison.
  phi = 0.0;
  const double quantile_linear = time_per_op(
      retained > 4'000'000 ? 10'000 : 100'000, [&] {
        phi += 0.001;
        if (phi >= 1.0) phi = 0.001;
        const auto prefix = summary.prefix_weights();
        const double target = phi * static_cast<double>(summary.total_weight());
        std::size_t i = 0;
        while (i < prefix.size() && static_cast<double>(prefix[i]) < target) ++i;
        keep(summary.items()[std::min(i, summary.items().size() - 1)]);
      });
  double rv = 0.0;
  const double rank_bsearch = time_per_op(1'000'000, [&] {
    rv += 0.001;
    if (rv >= 1.0) rv = 0.001;
    keep(q.rank(rv));
  });
  t.add_row({"quantile: binary search", nanos(quantile_bsearch), "O(log R)"});
  t.add_row({"quantile: linear scan (old)", nanos(quantile_linear),
             Table::num(quantile_linear / quantile_bsearch, 1) + "x slower"});
  t.add_row({"rank: binary search", nanos(rank_bsearch), "O(log R)"});

  // ----- merge primitive on synthetic runs ---------------------------------
  {
    const std::size_t levels = 16;
    std::vector<std::vector<double>> run_data(levels);
    std::vector<core::RunRef<double>> runs;
    for (std::size_t l = 0; l < levels; ++l) {
      run_data[l] = stream::make_stream(stream::Distribution::kUniform, k, 100 + l);
      std::sort(run_data[l].begin(), run_data[l].end());
      runs.push_back({run_data[l].data(), run_data[l].size(), 1ULL << l});
    }
    core::WeightedSummary<double> out;
    core::RunMerger<double> merger;
    std::vector<std::pair<double, std::uint64_t>> scratch;
    const auto span = std::span<const core::RunRef<double>>(runs);
    const double merge_t =
        time_per_op(200, [&] { merger.merge(span, out); });
    const double sort_t =
        time_per_op(200, [&] { core::sort_merge_runs(span, out, scratch); });
    t.add_row({"merge_runs (16 x k)", micros(merge_t), "loser tree"});
    t.add_row({"sort_merge_runs (16 x k)", micros(sort_t),
               Table::num(sort_t / merge_t, 2) + "x vs merge"});
  }

  // ----- ingest path: Gather&Sort = chunk merge vs full sort ---------------
  //
  // The batch owner's critical-path work per 2k batch: merging the gather
  // buffer's 2k/b pre-sorted chunks (the new pipeline; chunk sorting happened
  // on the writer threads) vs sorting the full 2k buffer from scratch (the
  // baseline; radix batch_sort and std::sort).  "merge" is the production
  // ChunkMerger (interleaved pairwise), "tree" the generic loser-tree raw
  // merge.  Cost accounting mirrors flush_chunk exactly: the merge writes the
  // sorted batch straight into the install cell, while a full sort works on
  // the gather buffer in place and then memcpys into the cell — so the sort
  // variants are charged sort + cell copy (the input re-copy that only
  // exists because the benchmark loop reruns the sort is subtracted).
  bench::JsonKv ingest_json("micro_ingest_primitives", scale.name);
  bool gather_merge_wins = true;
  {
    std::printf("gather path: chunk merge vs full sort (owner cost per 2k batch)\n");
    Table g({"k", "b", "chunks", "merge", "tree", "batch_sort", "std::sort",
             "sort/merge"});
    for (const std::uint32_t gk : {256u, 1024u, 4096u}) {
      for (const std::uint32_t gb : {16u, 64u, 256u}) {
        if (gb > 2 * gk) continue;
        const std::size_t cap = 2 * static_cast<std::size_t>(gk);
        auto raw = stream::make_stream(stream::Distribution::kUniform, cap, 11);
        // Pre-sorted-chunk image of the same data, as updaters would flush it.
        auto chunked = raw;
        for (std::size_t off = 0; off < cap; off += gb) {
          std::sort(chunked.begin() + static_cast<std::ptrdiff_t>(off),
                    chunked.begin() + static_cast<std::ptrdiff_t>(off + gb));
        }
        std::vector<double> out(cap);
        std::vector<double> work(cap);
        std::vector<double> aux;
        std::vector<core::RunRef<double>> runs;
        core::chunk_runs(std::span<const double>(chunked), gb, runs);
        core::ChunkMerger<double> chunk_merger;
        core::RunMerger<double> tree_merger;
        const auto runs_span = std::span<const core::RunRef<double>>(runs);
        const std::uint64_t iters = std::max<std::uint64_t>(2'000'000 / cap, 50);
        const double copy_t = best_time_per_op(iters, [&] {
          std::copy(raw.begin(), raw.end(), work.begin());
          keep(work.data());
        });
        const double merge_t = best_time_per_op(iters, [&] {
          chunk_merger.merge(std::span<const double>(chunked), gb,
                             std::span<double>(out));
          keep(out.data());
        });
        const double tree_t = best_time_per_op(iters, [&] {
          tree_merger.merge_items(runs_span, std::span<double>(out));
          keep(out.data());
        });
        // sort variants: reset input (subtracted), sort in place, copy the
        // sorted batch into the install cell (`out`) as flush_chunk does.
        const double radix_t = best_time_per_op(iters, [&] {
          std::copy(raw.begin(), raw.end(), work.begin());
          core::batch_sort(std::span<double>(work), aux);
          std::memcpy(out.data(), work.data(), cap * sizeof(double));
          keep(out.data());
        }) - copy_t;
        const double std_t = best_time_per_op(iters, [&] {
          std::copy(raw.begin(), raw.end(), work.begin());
          std::sort(work.begin(), work.end());
          std::memcpy(out.data(), work.data(), cap * sizeof(double));
          keep(out.data());
        }) - copy_t;
        const double best_sort = std::min(radix_t, std_t);
        if (gk >= 1024 && merge_t >= best_sort) gather_merge_wins = false;
        g.add_row({Table::integer(gk), Table::integer(gb),
                   Table::integer(cap / gb), micros(merge_t), micros(tree_t),
                   micros(radix_t), micros(std_t),
                   Table::num(best_sort / merge_t, 2) + "x"});
        char key[64];
        std::snprintf(key, sizeof(key), "gather_merge_us_k%u_b%u", gk, gb);
        ingest_json.add(key, merge_t * 1e6);
        std::snprintf(key, sizeof(key), "gather_sort_us_k%u_b%u", gk, gb);
        ingest_json.add(key, best_sort * 1e6);
      }
    }
    g.print();
    std::printf("\n");
  }

  // ----- ingest substrates -------------------------------------------------
  {
    auto batch = stream::make_stream(stream::Distribution::kUniform, 2 * k, 3);
    std::vector<double> work(batch.size());
    std::vector<double> aux;
    const double radix_t = time_per_op(200, [&] {
      std::copy(batch.begin(), batch.end(), work.begin());
      core::batch_sort(std::span<double>(work), aux);
      keep(work.data());
    });
    const double std_t = time_per_op(200, [&] {
      std::copy(batch.begin(), batch.end(), work.begin());
      std::sort(work.begin(), work.end());
      keep(work.data());
    });
    t.add_row({"batch_sort (radix, 2k)", micros(radix_t), ""});
    t.add_row({"std::sort (2k)", micros(std_t),
               Table::num(std_t / radix_t, 2) + "x vs radix"});

    Tritmap tm(0);
    for (std::uint32_t i = 0; i < 20; ++i) tm = tm.with_trit(i, 1 + (i % 2));
    const double size_t_ = time_per_op(1'000'000, [&] { keep(tm.stream_size(k)); });
    const double trans_t = time_per_op(1'000'000, [&] {
      const Tritmap u = tm.with_trit(0, 0).after_batch_update();
      keep(u.after_install_propagation(0));
    });
    t.add_row({"tritmap stream_size", nanos(size_t_), ""});
    t.add_row({"tritmap batch+propagate", nanos(trans_t), ""});
  }

  t.print();

  if (merge_refresh < sort_refresh) {
    std::printf("\nmerge-based refresh beats sort-based refresh by %.2fx\n",
                sort_refresh / merge_refresh);
  } else {
    std::printf("\nWARNING: merge-based refresh did NOT beat sort-based refresh\n");
  }
  if (gather_merge_wins) {
    std::printf("chunk-merge Gather&Sort beats the full-sort baseline at k >= 1024\n");
  } else {
    std::printf("WARNING: chunk-merge Gather&Sort did NOT beat the full-sort "
                "baseline at some k >= 1024 configuration\n");
  }

  const std::string dir = bench::json_out_dir();
  if (!dir.empty()) {
    const std::string path = dir + "/BENCH_ingest_micro.json";
    if (ingest_json.write_file(path)) std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
