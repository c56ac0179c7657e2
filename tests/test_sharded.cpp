// ShardedQuancurrent: routing (affinity + hash), cross-shard answers from
// the union of the shards' run views (bit-identical to merging the
// per-shard summaries), weight conservation, accuracy against the exact
// oracle, and incremental cross-shard refresh.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/workload.hpp"
#include "qc.hpp"
#include "qc_test.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

using qc::stream::Distribution;

namespace {

qc::Options small_options(std::uint32_t k, std::uint32_t b) {
  qc::Options o;
  o.k = k;
  o.b = b;
  o.collect_stats = true;
  o.topology = qc::numa::Topology::virtual_nodes(2, 2);
  return o;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The reference cross-shard summary: every shard's own summary, merged with
// ties toward the lower shard (and, within a shard, in summary order).  A
// stable sort of the shard-ordered concatenation gives exactly that order.
template <typename Sketch, typename Compare>
qc::core::WeightedSummary<double> merged_shard_summaries(Sketch& sk, Compare cmp) {
  struct Item {
    double value;
    std::uint64_t weight;
  };
  std::vector<Item> all;
  for (std::uint32_t s = 0; s < sk.num_shards(); ++s) {
    const auto q = sk.shard(s).make_querier();
    const auto& part = q.summary();
    const auto items = part.items();
    const auto prefix = part.prefix_weights();
    for (std::size_t i = 0; i < items.size(); ++i) {
      all.push_back({items[i], prefix[i] - (i == 0 ? 0 : prefix[i - 1])});
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [&cmp](const Item& a, const Item& b) { return cmp(a.value, b.value); });
  qc::core::WeightedSummary<double> out;
  for (const Item& it : all) out.append(it.value, it.weight);
  return out;
}

std::vector<double> probe_phis() {
  std::vector<double> phis{-1.0, 0.0, 1e-12, 1.0 - 1e-15, 1.0, 2.0,
                           std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i <= 2000; ++i) phis.push_back(static_cast<double>(i) / 2000.0);
  return phis;
}

// Checks a cross-shard querier against the reference merge, bit for bit:
// several rounds of answers recorded before summary() is first asked for
// (the early ones come from the runs, the later ones from the lazily
// merged union), then the summary itself.
template <typename Sketch, typename Compare>
void check_against_merged_shards(Sketch& sk, const std::vector<double>& values,
                                 Compare cmp) {
  const auto ref = merged_shard_summaries(sk, cmp);
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), ref.total_weight());
  for (int round = 0; round < 3; ++round) {
    for (const double phi : probe_phis()) {
      CHECK(same_bits(q.quantile(phi), qc::core::summary_quantile(ref, phi)));
    }
    for (const double v : values) {
      const std::uint64_t rank = qc::core::summary_rank(ref, v, cmp);
      CHECK_EQ(q.rank(v), rank);
      const double total = static_cast<double>(ref.total_weight());
      CHECK(q.cdf(v) == (total == 0 ? 0.0 : static_cast<double>(rank) / total));
    }
  }
  CHECK(q.summary() == ref);
}

std::vector<double> mod7_probes() {
  std::vector<double> values{-0.0, 0.0};
  for (int i = -2; i <= 18; ++i) values.push_back(static_cast<double>(i) / 2.0);
  return values;
}

// Feeds `count` values f(0, s), f(1, s), ... into shard s and drains them.
template <typename Sketch, typename Fn>
void feed_shard(Sketch& sk, std::uint32_t shard, int count, Fn f) {
  auto u = sk.shard(shard).make_updater(0);
  for (int i = 0; i < count; ++i) u.update(f(i, static_cast<int>(shard)));
}

}  // namespace

QC_TEST(sharded_multithread_ingest_conserves_weight_and_accuracy) {
  const std::uint32_t k = 256;
  const std::uint64_t n = 200'000;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 61);
  qc::ShardedQuancurrent<double> sk(4, small_options(k, 8));
  CHECK_EQ(sk.num_shards(), 4u);
  qc::bench::ingest_quancurrent(sk, data, 8, /*quiesce=*/true);

  CHECK_EQ(sk.size(), n);
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
  CHECK_EQ(q.rank(1e18), n);

  qc::stream::ExactQuantiles<double> exact(std::move(data));
  double max_err = 0.0;
  for (int i = 1; i < 50; ++i) {
    const double phi = static_cast<double>(i) / 50.0;
    max_err = std::max(max_err, exact.rank_error(q.quantile(phi), phi));
  }
  // Per-shard error bounds survive the cross-shard merge.
  CHECK(max_err <= 12.0 / static_cast<double>(k));
}

QC_TEST(affinity_routing_pins_threads_to_shards) {
  qc::ShardedQuancurrent<double> sk(2, small_options(64, 8));
  {
    auto u0 = sk.make_updater(0);  // shard 0
    auto u2 = sk.make_updater(2);  // also shard 0
    auto u1 = sk.make_updater(1);  // shard 1
    for (int i = 0; i < 1'000; ++i) {
      u0.update(1.0);
      u2.update(2.0);
      u1.update(3.0);
    }
  }
  sk.quiesce();
  CHECK_EQ(sk.shard(0).size(), 2'000u);
  CHECK_EQ(sk.shard(1).size(), 1'000u);
  CHECK_EQ(sk.size(), 3'000u);
}

QC_TEST(hash_routing_spreads_values_across_shards) {
  const std::uint64_t n = 40'000;
  qc::ShardedQuancurrent<double> sk(4, small_options(64, 8));
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 62);
  {
    auto u = sk.make_hash_updater();
    for (double v : data) u.update(v);
  }
  sk.quiesce();
  CHECK_EQ(sk.size(), n);
  // Every shard sees a statistically even substream: within 3x of fair
  // share (very loose; the hash would have to be badly broken to fail).
  for (std::uint32_t s = 0; s < 4; ++s) {
    CHECK(sk.shard(s).size() > n / 12);
    CHECK(sk.shard(s).size() < n / 4 * 3);
  }
  // Identical values always route to the same shard.
  qc::ShardedQuancurrent<double> sk2(4, small_options(64, 8));
  {
    auto u = sk2.make_hash_updater();
    for (int i = 0; i < 4'000; ++i) u.update(42.0);
  }
  sk2.quiesce();
  std::uint32_t non_empty = 0;
  for (std::uint32_t s = 0; s < 4; ++s) non_empty += sk2.shard(s).size() != 0 ? 1 : 0;
  CHECK_EQ(non_empty, 1u);
}

QC_TEST(cross_shard_summary_equals_single_sketch_union) {
  // Two shards fed disjoint halves must answer exactly like the merged
  // stream at the extremes, and the summary must be value-sorted with a
  // consistent prefix-weight array.
  qc::ShardedQuancurrent<double> sk(2, small_options(64, 8));
  {
    auto u0 = sk.make_updater(0);
    auto u1 = sk.make_updater(1);
    for (int i = 0; i < 10'000; ++i) {
      u0.update(static_cast<double>(i));            // [0, 10000)
      u1.update(static_cast<double>(20'000 + i));   // [20000, 30000)
    }
  }
  sk.quiesce();
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), 20'000u);
  // Compaction keeps a random half per level, so the exact min/max need not
  // be retained — but the extremes must come from the right shard's range.
  CHECK(q.quantile(0.0) < 10'000.0);
  CHECK(q.quantile(1.0) >= 20'000.0);
  // 15000 splits the shards exactly: every retained shard-0 item (total
  // weight 10000) is below it, every shard-1 item above.
  CHECK_EQ(q.rank(15'000.0), 10'000u);
  CHECK_NEAR(q.cdf(15'000.0), 0.5, 0.01);

  const auto& summary = q.summary();
  CHECK(std::is_sorted(summary.items().begin(), summary.items().end()));
  CHECK(std::is_sorted(summary.prefix_weights().begin(), summary.prefix_weights().end()));
  CHECK_EQ(summary.total_weight(), 20'000u);
}

QC_TEST(cross_shard_answers_equal_the_merged_shard_summaries) {
  const auto values = mod7_probes();
  {  // heavy duplicates (values mod 7), multi-level shards of unequal size
    qc::ShardedQuancurrent<double> sk(3, small_options(64, 8));
    for (std::uint32_t s = 0; s < 3; ++s) {
      feed_shard(sk, s, 20'000 + 7'919 * static_cast<int>(s),
                 [](int i, int shard) { return static_cast<double>((i * 13 + shard) % 7); });
    }
    sk.quiesce();
    check_against_merged_shards(sk, values, std::less<double>());
  }
  {  // -0.0 and +0.0 compare equal but differ in bits: the tie-break must
     // pick the lower shard's copy, as the merged summaries do
    qc::ShardedQuancurrent<double> sk(3, small_options(64, 8));
    for (std::uint32_t s = 0; s < 3; ++s) {
      feed_shard(sk, s, 12'000, [](int i, int shard) {
        const double signed_zero = shard == 1 ? -0.0 : 0.0;
        const double pattern[5] = {-0.0, 0.0, 1.0, -1.0, signed_zero};
        return pattern[(i + shard) % 5];
      });
    }
    sk.quiesce();
    check_against_merged_shards(sk, values, std::less<double>());
  }
  {  // std::greater
    qc::ShardedQuancurrent<double, std::greater<double>> sk(2, small_options(64, 8));
    for (std::uint32_t s = 0; s < 2; ++s) {
      feed_shard(sk, s, 30'000,
                 [](int i, int shard) { return static_cast<double>((i * 3 + shard) % 7); });
    }
    sk.quiesce();
    check_against_merged_shards(sk, values, std::greater<double>());
    CHECK(sk.make_querier().quantile(0.0) == 6.0);  // greater-first order
  }
  {  // a multi-level shard, an empty shard and a tail-only shard
    qc::ShardedQuancurrent<double> sk(3, small_options(64, 8));
    feed_shard(sk, 0, 25'000, [](int i, int) { return static_cast<double>(i % 7); });
    feed_shard(sk, 2, 100, [](int i, int) { return static_cast<double>(i % 7) + 0.5; });
    sk.quiesce();
    CHECK_EQ(sk.shard(1).size(), 0u);
    CHECK_EQ(sk.shard(2).tritmap().num_levels(), 0u);
    check_against_merged_shards(sk, values, std::less<double>());
  }
  {  // every shard empty
    qc::ShardedQuancurrent<double> sk(2, small_options(64, 8));
    check_against_merged_shards(sk, values, std::less<double>());
    CHECK(sk.make_querier().quantile(0.5) == 0.0);
  }
}

QC_TEST(moved_sharded_querier_answers_identically) {
  qc::ShardedQuancurrent<double> sk(3, small_options(64, 8));
  for (std::uint32_t s = 0; s < 3; ++s) {
    feed_shard(sk, s, 9'000,
               [](int i, int shard) { return static_cast<double>((i + shard) % 7); });
  }
  sk.quiesce();
  auto q = sk.make_querier();
  q.refresh();
  const auto values = mod7_probes();
  std::vector<double> quantiles;
  std::vector<std::uint64_t> ranks;
  for (const double phi : probe_phis()) quantiles.push_back(q.quantile(phi));
  for (const double v : values) ranks.push_back(q.rank(v));
  const std::uint64_t size = q.size();

  auto moved = std::move(q);
  CHECK_EQ(moved.size(), size);
  std::size_t i = 0;
  for (const double phi : probe_phis()) CHECK(same_bits(moved.quantile(phi), quantiles[i++]));
  i = 0;
  for (const double v : values) CHECK_EQ(moved.rank(v), ranks[i++]);

  // The moved handle keeps refreshing: new data in one shard shows up.
  feed_shard(sk, 1, 5'000, [](int i, int) { return static_cast<double>(i % 7); });
  sk.quiesce();
  moved.refresh();
  CHECK_EQ(moved.size(), size + 5'000);
  CHECK(moved.summary() == merged_shard_summaries(sk, std::less<double>()));
}

QC_TEST(cross_shard_refresh_is_incremental) {
  qc::ShardedQuancurrent<double> sk(2, small_options(64, 8));
  {
    auto u = sk.make_updater(0);
    for (int i = 0; i < 5'000; ++i) u.update(static_cast<double>(i));
  }
  sk.quiesce();
  auto q = sk.make_querier();
  const std::uint64_t size_before = q.size();
  // No publication anywhere: refresh must be a no-op (and stay correct).
  q.refresh();
  q.refresh();
  CHECK_EQ(q.size(), size_before);

  // New data in one shard becomes visible after refresh.
  {
    auto u = sk.make_updater(1);
    for (int i = 0; i < 5'000; ++i) u.update(static_cast<double>(i));
  }
  sk.quiesce();
  q.refresh();
  CHECK_EQ(q.size(), 2 * size_before);
}

QC_TEST(sharded_queries_live_during_ingest) {
  const std::uint64_t n = 100'000;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 63);
  qc::ShardedQuancurrent<double> sk(4, small_options(128, 8));
  // On a loaded 1-core box the queriers may or may not get scheduled before
  // ingestion ends (so no assertion on mixed.queries); what must hold is
  // that the mixed run completes and the final cross-shard view is exact.
  const auto mixed = qc::bench::run_mixed(sk, data, 4, 2);
  (void)mixed;
  sk.quiesce();
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
}

// ----- sharded serde (the recovery container as in-memory facade serde) -----

QC_TEST(sharded_serde_roundtrip_is_bit_identical_per_shard) {
  const std::uint32_t k = 128;
  qc::ShardedQuancurrent<double> sk(3, small_options(k, 8));
  const auto data = qc::stream::make_stream(Distribution::kUniform, 30'000, 21);
  {
    auto u = sk.make_hash_updater();
    for (double v : data) u.update(v);
  }
  sk.quiesce();

  const auto img = qc::recovery::serialize_sharded(sk, 42);
  auto rt = qc::recovery::deserialize_sharded<double>(img);
  CHECK(rt != nullptr);
  if (rt == nullptr) return;
  // Same width restores via adopt(): no merge, no re-route — every shard
  // re-serializes to the exact bytes it was stored as.
  CHECK_EQ(rt->num_shards(), 3u);
  CHECK_EQ(rt->size(), sk.size());
  for (std::uint32_t s = 0; s < 3; ++s) {
    CHECK(qc::to_bytes(rt->shard(s)) == qc::to_bytes(sk.shard(s)));
  }
}

QC_TEST(sharded_restore_reroutes_into_different_width) {
  const std::uint32_t k = 128;
  const std::uint64_t n = 40'000;
  const auto data = qc::stream::make_stream(Distribution::kUniform, n, 77);
  qc::ShardedQuancurrent<double> sk(4, small_options(k, 8));
  {
    auto u = sk.make_hash_updater();
    for (double v : data) u.update(v);
  }
  sk.quiesce();
  const auto img = qc::recovery::serialize_sharded(sk);
  qc::stream::ExactQuantiles<double> exact{std::vector<double>(data)};

  // Shrinking and growing the serving tier both bridge via merge_into: total
  // weight is conserved and answers stay inside the merged-error envelope.
  for (const std::uint32_t want : {2u, 8u}) {
    auto rt = qc::recovery::deserialize_sharded<double>(img, want);
    CHECK(rt != nullptr);
    if (rt == nullptr) continue;
    CHECK_EQ(rt->num_shards(), want);
    CHECK_EQ(rt->size(), n);
    auto q = rt->make_querier();
    double max_err = 0.0;
    for (int i = 1; i < 50; ++i) {
      const double phi = static_cast<double>(i) / 50.0;
      max_err = std::max(max_err, exact.rank_error(q.quantile(phi), phi));
    }
    CHECK(max_err < 16.0 / static_cast<double>(k));
  }
}

// The sharded checkpoint images each shard, and a shard merges through the
// single sketch's merge_into, so both must hold every item whose push
// returned before the call while short-lived updaters (15 items each, so
// every item arrives through Updater::drain -> push_tail) move full 2k
// batches from the shards' tails into their ladders.
QC_TEST(sharded_images_hold_every_item_pushed_before_them) {
  const std::uint32_t k = 64;
  qc::ShardedQuancurrent<double> sk(2, small_options(k, 16));
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t n = 0;
    for (std::uint32_t u = 0; !stop.load(std::memory_order_acquire); ++u) {
      {
        auto updater = sk.make_updater(u % 4);
        for (int i = 0; i < 15; ++i) updater.update(static_cast<double>(n++ % 1000));
      }
      pushed.store(n, std::memory_order_release);
    }
  });
  int short_images = 0;
  int short_merges = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t before = pushed.load(std::memory_order_acquire);
    if (round % 2 == 0) {
      const auto back = qc::recovery::deserialize_sharded<double>(
          qc::recovery::serialize_sharded(sk));
      CHECK(back != nullptr);
      if (back == nullptr || back->size() < before) ++short_images;
    } else {
      qc::Quancurrent<double> target(small_options(k, 16));
      for (std::uint32_t s = 0; s < sk.num_shards(); ++s) CHECK(sk.shard(s).merge_into(target));
      if (target.size() < before) ++short_merges;
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  CHECK_EQ(short_images, 0);
  CHECK_EQ(short_merges, 0);
  CHECK_EQ(sk.size(), pushed.load(std::memory_order_acquire));
}

QC_TEST_MAIN()
