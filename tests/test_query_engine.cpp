// The merge-based query engine: run_merge primitives, the prefix-weight
// summary, and Querier's incremental (tritmap-diff) refresh — including the
// ISSUE's three acceptance properties: (a) every refresh yields a
// value-sorted summary, (b) quantile/rank match the exact oracle within the
// error bound after quiesce, and (c) incremental and full refresh produce
// identical summaries.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "bench_util/workload.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "core/quancurrent.hpp"
#include "core/run_merge.hpp"
#include "qc_test.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

using qc::stream::Distribution;

namespace {

qc::core::Options small_options(std::uint32_t k, std::uint32_t b) {
  qc::core::Options o;
  o.k = k;
  o.b = b;
  o.collect_stats = true;
  o.topology = qc::numa::Topology::virtual_nodes(2, 2);
  return o;
}

bool summary_is_sorted(const qc::core::WeightedSummary<double>& s) {
  const auto items = s.items();
  return std::is_sorted(items.begin(), items.end());
}

}  // namespace

QC_TEST(merge_runs_matches_sort_merge_runs) {
  qc::Xoshiro256 rng(41);
  qc::core::RunMerger<double> merger;
  std::vector<std::pair<double, std::uint64_t>> scratch;
  // Random run counts and lengths, including empty runs; uniform doubles are
  // effectively duplicate-free, so merge and sort orders must agree exactly.
  for (const std::size_t num_runs : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                     std::size_t{7}, std::size_t{16}}) {
    std::vector<std::vector<double>> data(num_runs);
    std::vector<qc::core::RunRef<double>> runs;
    for (std::size_t r = 0; r < num_runs; ++r) {
      const std::size_t len = rng() % 200;
      data[r].resize(len);
      for (auto& v : data[r]) v = rng.next_double();
      std::sort(data[r].begin(), data[r].end());
      runs.push_back({data[r].data(), data[r].size(), 1ULL << (r % 5)});
    }
    qc::core::WeightedSummary<double> merged, sorted;
    const auto span = std::span<const qc::core::RunRef<double>>(runs);
    merger.merge(span, merged);
    qc::core::sort_merge_runs(span, sorted, scratch);
    CHECK(merged == sorted);
    CHECK(summary_is_sorted(merged));
  }
}

QC_TEST(merge_runs_breaks_ties_by_run_index) {
  // Two runs sharing values but with different weights: ties must go to the
  // lower run index, making the output deterministic.
  const std::vector<double> a{1.0, 2.0, 2.0};
  const std::vector<double> b{2.0, 3.0};
  const std::vector<qc::core::RunRef<double>> runs{{a.data(), a.size(), 4},
                                                   {b.data(), b.size(), 1}};
  qc::core::RunMerger<double> merger;
  qc::core::WeightedSummary<double> out;
  merger.merge(std::span<const qc::core::RunRef<double>>(runs), out);
  CHECK_EQ(out.size(), 5u);
  CHECK_EQ(out.total_weight(), 14u);
  const auto items = out.items();
  const auto prefix = out.prefix_weights();
  CHECK(std::vector<double>(items.begin(), items.end()) ==
        (std::vector<double>{1, 2, 2, 2, 3}));
  // Run 0's weight-4 copies of 2.0 come before run 1's weight-1 copy.
  CHECK(std::vector<std::uint64_t>(prefix.begin(), prefix.end()) ==
        (std::vector<std::uint64_t>{4, 8, 12, 13, 14}));
}

QC_TEST(summary_binary_searches_match_linear_scans) {
  qc::Xoshiro256 rng(43);
  qc::core::WeightedSummary<double> s;
  double v = 0.0;
  std::vector<std::pair<double, std::uint64_t>> flat;
  for (int i = 0; i < 500; ++i) {
    v += rng.next_double();
    const std::uint64_t w = 1 + rng() % 7;
    s.append(v, w);
    flat.emplace_back(v, w);
  }
  // rank: first item not less than the probe, prefix weight before it.
  for (int i = 0; i < 200; ++i) {
    const double probe = rng.next_double() * v;
    std::uint64_t expect = 0;
    for (const auto& [item, weight] : flat) {
      if (!(item < probe)) break;
      expect += weight;
    }
    CHECK_EQ(qc::core::summary_rank(s, probe), expect);
  }
  // quantile: smallest item whose cumulative weight reaches phi * total.
  for (int i = 1; i < 100; ++i) {
    const double phi = static_cast<double>(i) / 100.0;
    const double target = phi * static_cast<double>(s.total_weight());
    std::uint64_t cumulative = 0;
    double expect = flat.back().first;
    for (const auto& [item, weight] : flat) {
      cumulative += weight;
      if (static_cast<double>(cumulative) >= target) {
        expect = item;
        break;
      }
    }
    CHECK_NEAR(qc::core::summary_quantile(s, phi), expect, 0.0);
  }
  CHECK_NEAR(qc::core::summary_quantile(s, 0.0), s.items()[0], 0.0);
  CHECK_EQ(qc::core::summary_rank(s, -1.0), 0u);
  CHECK_EQ(qc::core::summary_rank(s, v + 1.0), s.total_weight());
}

QC_TEST(backoff_spins_and_escalates) {
  qc::Backoff backoff;
  for (int i = 0; i < 100; ++i) backoff.spin();  // must escalate without hanging
  backoff.reset();
  backoff.spin();
}

QC_TEST(concurrent_refreshes_always_see_sorted_summaries) {
  // Acceptance (a): every refresh — incremental, racing live installs —
  // yields a value-sorted summary whose prefix weights are consistent.
  const std::uint64_t n = 120'000;
  const std::uint32_t k = 64;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 29);
  qc::core::Quancurrent<double> sk(small_options(k, 8));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto q = sk.make_querier();
      while (!stop.load(std::memory_order_acquire)) {
        q.refresh();
        const auto& s = q.summary();
        CHECK(summary_is_sorted(s));
        CHECK_EQ(s.total_weight(), q.size());
        const auto prefix = s.prefix_weights();
        CHECK(std::is_sorted(prefix.begin(), prefix.end()));
        if (!s.empty()) {
          const double med = q.quantile(0.5);
          CHECK(med >= 0.0 && med < 1.0);
        }
      }
    });
  }
  qc::bench::ingest_quancurrent(sk, data, 2);
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  sk.quiesce();
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
}

QC_TEST(quantile_and_rank_match_oracle_after_quiesce) {
  // Acceptance (b): after quiesce, quantile AND rank answers stay within the
  // paper's error bound of the exact oracle.
  const std::uint64_t n = 200'000;
  const std::uint32_t k = 256;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 31);
  qc::core::Quancurrent<double> sk(small_options(k, 8));
  qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);
  CHECK_EQ(sk.size(), n);

  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
  qc::stream::ExactQuantiles<double> exact(std::move(data));

  const double bound = 12.0 / static_cast<double>(k);
  double max_err = 0.0;
  for (int i = 1; i < 50; ++i) {
    const double phi = static_cast<double>(i) / 50.0;
    max_err = std::max(max_err, exact.rank_error(q.quantile(phi), phi));
  }
  CHECK(max_err <= bound);

  // rank(): normalized error against the oracle's exact rank.
  for (int i = 1; i < 50; ++i) {
    const double probe = static_cast<double>(i) / 50.0;
    const double est = static_cast<double>(q.rank(probe)) / static_cast<double>(n);
    const double truth =
        static_cast<double>(exact.rank(probe)) / static_cast<double>(n);
    CHECK(std::fabs(est - truth) <= bound);
  }
}

QC_TEST(incremental_and_full_refresh_return_identical_summaries) {
  // Acceptance (c): a querier whose cache evolved across many refreshes must
  // produce bit-identical summaries to a full re-reference and to a fresh
  // querier, at every quiesced point.
  const std::uint32_t k = 64;
  qc::core::Quancurrent<double> sk(small_options(k, 8));
  auto data = qc::stream::make_stream(Distribution::kUniform, 60'000, 37);

  auto incremental = sk.make_querier();
  std::size_t fed = 0;
  std::uint32_t rounds = 0;
  while (fed < data.size()) {
    {
      auto updater = sk.make_updater(rounds % 4);
      const std::size_t chunk = std::min<std::size_t>(data.size() - fed, 7'321);
      for (std::size_t i = 0; i < chunk; ++i) updater.update(data[fed + i]);
      fed += chunk;
    }
    sk.quiesce();
    incremental.refresh();  // keeps the references of unchanged levels
    CHECK_EQ(incremental.holes(), 0u);

    auto full = sk.make_querier();  // fresh: every level referenced anew
    CHECK(incremental.summary() == full.summary());

    full.refresh_full();  // and the explicit cache-bypass path
    CHECK(incremental.summary() == full.summary());

    CHECK_EQ(incremental.size(), fed);
    ++rounds;
  }
  CHECK(rounds >= 8u);
}

QC_TEST(incremental_refresh_is_noop_when_nothing_changed) {
  qc::core::Quancurrent<double> sk(small_options(64, 8));
  {
    auto updater = sk.make_updater(0);
    for (int i = 0; i < 50'000; ++i) updater.update(static_cast<double>(i));
  }
  sk.quiesce();
  auto q = sk.make_querier();
  const auto first = q.summary();
  for (int i = 0; i < 10; ++i) {
    q.refresh();  // fast path: seq and tail version unchanged
    CHECK(q.summary() == first);
  }
  // A tail-only mutation must invalidate the fast path.
  {
    auto updater = sk.make_updater(0);
    updater.update(1e9);
  }  // drains 1 element to the tail
  q.refresh();
  CHECK_EQ(q.size(), 50'001u);
  CHECK_NEAR(q.summary().items().back(), 1e9, 0.0);
}

// ----- direct answers: exact against the merged summary ---------------------

namespace {

// Bit-for-bit equality: of several equal items (-0.0 == +0.0), a direct
// answer must pick the very copy the summary picks.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The phi edge cases (out of range, zero, a hair above 0 or below 1, NaN)
// plus an even grid.
std::vector<double> probe_phis() {
  std::vector<double> phis{-1.0, 0.0, 1e-12, 1.0 - 1e-15, 1.0, 2.0,
                           std::numeric_limits<double>::quiet_NaN()};
  for (int i = 1; i < 100; ++i) phis.push_back(static_cast<double>(i) / 100.0);
  return phis;
}

// Checks every direct answer over `runs` against the summary RunMerger
// builds from them.
template <typename Compare>
void check_runs_against_summary(const std::vector<qc::core::RunRef<double>>& runs,
                                const std::vector<double>& values, Compare cmp) {
  const auto span = std::span<const qc::core::RunRef<double>>(runs);
  qc::core::RunMerger<double, Compare> merger;
  qc::core::WeightedSummary<double> summary;
  merger.merge(span, summary, cmp);
  std::vector<std::size_t> scratch(3 * runs.size());
  for (const double phi : probe_phis()) {
    const double direct = qc::core::runs_quantile(span, summary.total_weight(), phi,
                                                  std::span<std::size_t>(scratch), cmp);
    CHECK(same_bits(direct, qc::core::summary_quantile(summary, phi)));
  }
  for (const double v : values) {
    CHECK_EQ(qc::core::runs_rank(span, v, cmp), qc::core::summary_rank(summary, v, cmp));
  }
}

// Records `rounds` passes of quantile/rank answers from a querier's current
// view BEFORE its summary exists — the early answers come straight from the
// runs, the later ones (past the querier's merge cost rule) from the summary
// it materializes — then checks them all against summary().
template <typename Querier, typename Compare>
void check_querier_against_summary(const Querier& q, const std::vector<double>& values,
                                   Compare cmp, int rounds = 8) {
  const auto phis = probe_phis();
  std::vector<double> quantiles;
  std::vector<std::uint64_t> ranks;
  for (int r = 0; r < rounds; ++r) {
    for (const double phi : phis) quantiles.push_back(q.quantile(phi));
    for (const double v : values) ranks.push_back(q.rank(v));
  }
  const auto& summary = q.summary();
  CHECK_EQ(summary.total_weight(), q.size());
  std::size_t i = 0;
  std::size_t j = 0;
  for (int r = 0; r < rounds; ++r) {
    for (const double phi : phis) {
      CHECK(same_bits(quantiles[i++], qc::core::summary_quantile(summary, phi)));
    }
    for (const double v : values) {
      CHECK_EQ(ranks[j++], qc::core::summary_rank(summary, v, cmp));
    }
  }
}

std::vector<double> mod7_probes() {
  std::vector<double> values;
  for (int i = -2; i <= 18; ++i) values.push_back(static_cast<double>(i) / 2.0);
  return values;
}

}  // namespace

QC_TEST(direct_run_answers_match_merged_summary) {
  qc::Xoshiro256 rng(47);
  const auto values = mod7_probes();
  for (int trial = 0; trial < 40; ++trial) {
    // Heavy duplicates (values mod 7), weights 1..2^9, some empty runs.
    const std::size_t num_runs = 1 + rng() % 12;
    std::vector<std::vector<double>> data(num_runs);
    std::vector<qc::core::RunRef<double>> less_runs, greater_runs;
    for (std::size_t r = 0; r < num_runs; ++r) {
      data[r].resize(rng() % 300);
      for (auto& v : data[r]) v = static_cast<double>(rng() % 7);
      less_runs.push_back({nullptr, data[r].size(), 1ULL << (rng() % 10)});
    }
    // Ascending copies for std::less, descending views of the same runs
    // for std::greater.
    std::vector<std::vector<double>> desc(num_runs);
    for (std::size_t r = 0; r < num_runs; ++r) {
      std::sort(data[r].begin(), data[r].end());
      desc[r].assign(data[r].rbegin(), data[r].rend());
      less_runs[r].data = data[r].data();
      greater_runs.push_back({desc[r].data(), desc[r].size(), less_runs[r].weight});
    }
    check_runs_against_summary(less_runs, values, std::less<double>());
    check_runs_against_summary(greater_runs, values, std::greater<double>());
  }
  // Equal items that differ in bits: the summary breaks the tie by run
  // index, and the direct answer must return the same copy.
  const std::vector<double> a{-1.0, 0.0, 0.0, 2.0};
  const std::vector<double> b{-0.0, 0.0, -0.0, 0.0, 1.0};  // sorted: all equal
  const std::vector<double> c{-0.0};
  const std::vector<double> d{0.0};
  check_runs_against_summary({{a.data(), a.size(), 2}, {b.data(), b.size(), 1},
                              {c.data(), c.size(), 4}},
                             {-0.0, 0.0, 1.0}, std::less<double>());
  check_runs_against_summary({{b.data(), b.size(), 1}, {a.data(), a.size(), 2}},
                             {-0.0, 0.0, 1.0}, std::less<double>());
  check_runs_against_summary({{d.data(), 1, 3}, {c.data(), 1, 1}, {b.data(), 4, 2}},
                             {-0.0, 0.0}, std::less<double>());
  // No runs, and runs that are all empty.
  check_runs_against_summary({}, {0.0}, std::less<double>());
  check_runs_against_summary({{a.data(), 0, 1}, {b.data(), 0, 8}}, {0.0},
                             std::less<double>());
}

QC_TEST(direct_quantile_matches_summary_on_adversarial_shapes) {
  // The interpolated pivot must never change which item comes back.  Shapes
  // that defeat the interpolation (disjoint ranges, all-equal values, tiny
  // runs, run counts up to a full ladder plus its tail) and shapes where the
  // tie walk decides (duplicates, +-0.0) are checked bit for bit.
  enum Shape { kUniform, kMod7, kAllEqual, kSignedZero, kDisjoint, kShapes };
  qc::Xoshiro256 rng(61);
  const std::size_t max_runs = 2 * std::size_t{qc::Tritmap::kMaxLevels} + 1;
  const std::vector<double> values{-1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 6.5, 17.0, 1e9};
  for (int trial = 0; trial < 1500; ++trial) {
    const auto shape = static_cast<Shape>(trial % kShapes);
    const std::size_t num_runs = 1 + rng() % max_runs;
    std::vector<std::vector<double>> data(num_runs);
    for (std::size_t r = 0; r < num_runs; ++r) {
      const std::uint64_t pick = rng() % 8;
      data[r].resize(pick < 3 ? pick : rng() % 300);  // empty, 1 and 2 items
      for (auto& v : data[r]) {
        switch (shape) {
          case kUniform: v = rng.next_double(); break;
          case kMod7: v = static_cast<double>(rng() % 7); break;
          case kAllEqual: v = 3.0; break;
          case kSignedZero: v = rng() % 2 == 0 ? 0.0 : -0.0; break;
          default: v = static_cast<double>(r) + rng.next_double(); break;
        }
      }
      std::sort(data[r].begin(), data[r].end());
    }
    // Ascending copies for std::less, descending views of the same runs for
    // std::greater; the run order (the tie-break) is reversed half the time.
    std::vector<std::vector<double>> desc(num_runs);
    std::vector<qc::core::RunRef<double>> less_runs, greater_runs;
    for (std::size_t r = 0; r < num_runs; ++r) {
      desc[r].assign(data[r].rbegin(), data[r].rend());
      const std::uint64_t weight = 1ULL << (rng() % 12);
      less_runs.push_back({data[r].data(), data[r].size(), weight});
      greater_runs.push_back({desc[r].data(), desc[r].size(), weight});
    }
    if (rng() % 2 == 0) {
      std::reverse(less_runs.begin(), less_runs.end());
      std::reverse(greater_runs.begin(), greater_runs.end());
    }
    check_runs_against_summary(less_runs, values, std::less<double>());
    check_runs_against_summary(greater_runs, values, std::greater<double>());
  }
  // Through a sketch: an ascending stream leaves runs over disjoint value
  // ranges with the heaviest run lowest, a descending stream the reverse.
  for (const bool ascending : {true, false}) {
    qc::core::Quancurrent<double> sk(small_options(64, 8));
    {
      auto u = sk.make_updater(0);
      for (int i = 0; i < 90'000; ++i) {
        u.update(static_cast<double>(ascending ? i : 90'000 - i));
      }
    }
    sk.quiesce();
    auto q = sk.make_querier();
    CHECK_EQ(q.size(), 90'000u);
    CHECK(q.runs().size() >= 4u);
    std::vector<double> probes{-1.0, 0.0, 1.0, 1e6};
    for (int i = 1; i < 40; ++i) probes.push_back(static_cast<double>(i) * 2'250.5);
    // The querier switches to its summary after a few answers, so its runs
    // also go through the kernel directly, every phi.
    check_runs_against_summary({q.runs().begin(), q.runs().end()}, probes,
                               std::less<double>());
    check_querier_against_summary(q, probes, std::less<double>());
  }
}

QC_TEST(querier_answers_match_its_summary) {
  const auto mod7 = mod7_probes();
  {  // multi-level sketch, uniform values
    qc::core::Quancurrent<double> sk(small_options(64, 8));
    auto data = qc::stream::make_stream(Distribution::kUniform, 90'000, 53);
    qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);
    auto q = sk.make_querier();
    std::vector<double> probes(data.begin(), data.begin() + 40);
    probes.push_back(-1.0);
    probes.push_back(2.0);
    check_querier_against_summary(q, probes, std::less<double>());
  }
  {  // heavy duplicates under std::greater
    qc::core::Quancurrent<double, std::greater<double>> sk(small_options(64, 8));
    {
      auto u = sk.make_updater(0);
      for (int i = 0; i < 70'000; ++i) u.update(static_cast<double>((i * 13) % 7));
    }
    sk.quiesce();
    auto q = sk.make_querier();
    CHECK_EQ(q.size(), 70'000u);
    CHECK(q.quantile(0.0) == 6.0);  // greater-first order
    check_querier_against_summary(q, mod7, std::greater<double>());
  }
  {  // empty sketch
    qc::core::Quancurrent<double> sk(small_options(64, 8));
    auto q = sk.make_querier();
    CHECK_EQ(q.size(), 0u);
    CHECK_EQ(q.rank(1.0), 0u);
    CHECK(q.quantile(0.5) == 0.0);
    check_querier_against_summary(q, mod7, std::less<double>());
  }
  {  // tail-only sketch: fewer than 2k items never reach the ladder
    qc::core::Quancurrent<double> sk(small_options(64, 8));
    {
      auto u = sk.make_updater(0);
      for (int i = 0; i < 100; ++i) u.update(static_cast<double>(i % 7));
    }
    sk.quiesce();
    CHECK_EQ(sk.tritmap().num_levels(), 0u);
    auto q = sk.make_querier();
    CHECK_EQ(q.size(), 100u);
    check_querier_against_summary(q, mod7, std::less<double>());
  }
}

QC_TEST(incremental_and_full_views_answer_identically) {
  // Each round publishes new views; the first answers of a view come from
  // its runs, so this compares the direct paths of an incremental view and
  // a full re-reference, then both against the summary.
  qc::core::Quancurrent<double> sk(small_options(64, 8));
  auto incremental = sk.make_querier();
  auto full = sk.make_querier();
  const auto values = mod7_probes();
  const auto phis = probe_phis();
  std::uint32_t i = 0;
  for (int round = 0; round < 12; ++round) {
    {
      auto u = sk.make_updater(static_cast<std::uint32_t>(round) % 4);
      for (int n = 0; n < 4'111; ++n, ++i) u.update(static_cast<double>(i % 7) + 0.5);
    }
    sk.quiesce();
    incremental.refresh();
    full.refresh_full();
    CHECK_EQ(incremental.size(), full.size());
    for (const double phi : phis) {
      CHECK(same_bits(incremental.quantile(phi), full.quantile(phi)));
    }
    for (const double v : values) CHECK_EQ(incremental.rank(v), full.rank(v));
    CHECK(incremental.summary() == full.summary());
    check_querier_against_summary(incremental, values, std::less<double>(), 1);
  }
}

QC_TEST(sequential_sketch_summary_uses_prefix_weights) {
  qc::sequential::QuantilesSketch<double> sk(128);
  auto data = qc::stream::make_stream(Distribution::kUniform, 30'000, 5);
  for (const double v : data) sk.update(v);
  const auto& s = sk.summary();
  CHECK(summary_is_sorted(s));
  CHECK_EQ(s.total_weight(), 30'000u);
  CHECK_EQ(sk.rank(2.0), 30'000u);
  qc::stream::ExactQuantiles<double> exact(std::move(data));
  for (const double phi : {0.1, 0.5, 0.9}) {
    CHECK(exact.rank_error(sk.quantile(phi), phi) <= 10.0 / 128.0);
  }
}

QC_TEST_MAIN()
