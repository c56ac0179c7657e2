#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "bench_util/workload.hpp"
#include "core/quancurrent.hpp"
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

}  // namespace

QC_TEST(options_normalize_clamps_b_to_divide_batches) {
  qc::core::Options o;
  o.k = 100;  // 2k = 200
  o.b = 33;   // not a divisor of 200 -> clamped down to 25
  o.normalize();
  CHECK_EQ((2 * o.k) % o.b, 0u);
  CHECK(o.b <= 33u);
}

QC_TEST(single_thread_ingest_conserves_weight) {
  const std::uint64_t n = 10'000;
  qc::core::Quancurrent<double> sk(small_options(128, 8));
  {
    auto updater = sk.make_updater(0);
    for (std::uint64_t i = 0; i < n; ++i) updater.update(static_cast<double>(i));
  }
  sk.quiesce();
  CHECK_EQ(sk.size(), n);
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
  CHECK_EQ(q.holes(), 0u);
  CHECK_EQ(q.rank(1e18), n);
}

QC_TEST(quiesce_flushes_partial_buffers) {
  // 10 elements with k=128: everything lands in local/tail buffers.
  qc::core::Quancurrent<double> sk(small_options(128, 8));
  {
    auto updater = sk.make_updater(0);
    for (int i = 0; i < 10; ++i) updater.update(static_cast<double>(i));
  }
  sk.quiesce();
  CHECK_EQ(sk.size(), 10u);
  auto q = sk.make_querier();
  CHECK_NEAR(q.quantile(0.0), 0.0, 1e-9);
  CHECK_NEAR(q.quantile(1.0), 9.0, 1e-9);
}

QC_TEST(four_thread_ingest_conserves_weight_and_accuracy) {
  // The ISSUE's acceptance experiment: 4 update threads, total retained
  // weight must equal n after quiesce and the rank error must stay within
  // the sketch's eps bound.  Thread interleaving varies between runs, but
  // weight conservation is exact and the error bound has large headroom.
  const std::uint64_t n = 200'000;
  const std::uint32_t k = 256;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 17);
  qc::core::Quancurrent<double> sk(small_options(k, 8));
  qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);

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
  CHECK(max_err <= 12.0 / static_cast<double>(k));

  const auto st = sk.stats();
  CHECK(st.batches > 0u);
  CHECK(st.propagations >= st.batches);
}

QC_TEST(concurrent_queries_during_ingest_see_consistent_sizes) {
  // Queries running against live ingestion must always observe a size that
  // is a multiple of 2k plus the tail, and never crash on a mid-install
  // snapshot.
  const std::uint64_t n = 100'000;
  const std::uint32_t k = 64;
  // The reader's size % 2k == 0 invariant needs the tail to stay empty while
  // it runs, i.e. the per-thread slices must be whole local buffers.
  static_assert((100'000 / 2) % 8 == 0, "pick n divisible by threads * b");
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 23);
  qc::core::Quancurrent<double> sk(small_options(k, 8));

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto q = sk.make_querier();
      const std::uint64_t size = q.size();
      CHECK_EQ(size % (2 * k), 0u);  // tail is empty until quiesce
      if (size > 0) {
        const double med = q.quantile(0.5);
        CHECK(med >= 0.0 && med < 1.0);
      }
    }
  });
  qc::bench::ingest_quancurrent(sk, data, 2);
  stop.store(true, std::memory_order_release);
  reader.join();

  sk.quiesce();
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);  // drains + quiesce leave no element behind
  CHECK_EQ(q.size(), sk.size());
}

QC_TEST(stats_expose_batches_and_propagations) {
  qc::core::Quancurrent<double> sk(small_options(64, 4));
  {
    auto updater = sk.make_updater(0);
    for (int i = 0; i < 1024; ++i) updater.update(static_cast<double>(i));
  }
  const auto st = sk.stats();
  CHECK_EQ(st.batches, 1024u / 128u);
  CHECK(st.propagations >= st.batches);
  CHECK_NEAR(st.hole_rate_per_batch(), 0.0, 1e-9);
}

// Short-lived updaters (b = 16, 15 items each) never fill a local buffer,
// so every item reaches the sketch through a drain's push_tail, and no
// quiesce() ever runs.  push_tail folds the tail's full 2k batches into the
// ladder, so a fresh querier never sees a weight-1 run of 2k or more, and
// size() stays exact.  The concurrent phase drains from four threads while
// a querier checks the same bound.
QC_TEST(short_lived_updaters_keep_the_tail_under_2k) {
  const std::uint32_t k = 64;
  qc::core::Quancurrent<double> sk(small_options(k, 16));
  const auto tail_under_2k = [&](const qc::core::Quancurrent<double>::Querier& q) {
    for (const auto& run : q.runs()) {
      if (run.weight == 1 && run.size >= 2 * k) return false;
    }
    return true;
  };
  std::uint64_t n = 0;
  for (std::uint32_t u = 0; u < 200; ++u) {
    {
      auto updater = sk.make_updater(u % 4);
      for (int i = 0; i < 15; ++i) updater.update(static_cast<double>(n++ % 1000));
    }
    CHECK_EQ(sk.size(), n);
    auto q = sk.make_querier();
    CHECK_EQ(q.size(), n);
    CHECK(tail_under_2k(q));
  }
  CHECK(sk.tritmap().stream_size(k) > 0);  // full batches reached the ladder

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    auto q = sk.make_querier();
    while (!stop.load(std::memory_order_acquire)) {
      q.refresh();
      CHECK(tail_under_2k(q));
    }
  });
  std::vector<std::thread> writers;
  for (std::uint32_t t = 0; t < 4; ++t) {
    writers.emplace_back([&sk, t] {
      for (int u = 0; u < 100; ++u) {
        auto updater = sk.make_updater(t);
        for (int i = 0; i < 15; ++i) updater.update(static_cast<double>(t * 1000 + i));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  n += 4 * 100 * 15;
  CHECK_EQ(sk.size(), n);
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
  CHECK(tail_under_2k(q));
}

// serialize() and merge_into() read the ladder and the tail as one image.
// One thread makes short-lived updaters of 15 items each (k = 64, b = 16),
// so every item arrives through Updater::drain -> push_tail, and a push
// that completes a 2k batch moves it from the tail into the ladder.
// Another alternates serialize -> deserialize with merge_into a fresh
// target: each result must hold every item whose push returned before the
// call.  An image that read the ladder before such a move and the tail
// after it would miss up to 2k items.
QC_TEST(images_hold_every_item_pushed_before_them) {
  const std::uint32_t k = 64;
  qc::core::Quancurrent<double> sk(small_options(k, 16));
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
  std::vector<std::byte> blob;
  for (int round = 0; round < 2000; ++round) {
    const std::uint64_t before = pushed.load(std::memory_order_acquire);
    if (round % 2 == 0) {
      std::size_t bytes = 0;
      while (bytes == 0) {  // the size is a probe: installs may outgrow it
        blob.resize(sk.serialized_size() + 4 * 2 * k * sizeof(double));
        bytes = sk.serialize(blob);
      }
      const auto back = qc::core::Quancurrent<double>::deserialize(
          std::span<const std::byte>(blob.data(), bytes));
      CHECK(back != nullptr);
      if (back == nullptr || back->size() < before) ++short_images;
    } else {
      qc::core::Quancurrent<double> target(small_options(k, 16));
      CHECK(sk.merge_into(target));
      if (target.size() < before) ++short_merges;
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  CHECK_EQ(short_images, 0);
  CHECK_EQ(short_merges, 0);
  CHECK_EQ(sk.size(), pushed.load(std::memory_order_acquire));
}

// Every push of a 15-item short-lived updater (b = 16) is one install that
// adds 15 items, so every published state holds a multiple of 15.  A
// querier refreshing against a stream of such pushes must only validate
// views of published states: the tail block is overwritten in place, and a
// view pairing the tail of one install with the ladder of another is off
// by the 2k batch the install split off (128 items at k = 64).
QC_TEST(validated_views_pair_ladder_and_tail_of_one_install) {
  const std::uint32_t k = 64;
  qc::core::Quancurrent<double> sk(small_options(k, 16));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint32_t u = 0; !stop.load(std::memory_order_acquire); ++u) {
      auto updater = sk.make_updater(u % 4);
      for (int i = 0; i < 15; ++i) updater.update(static_cast<double>((u * 15 + i) % 1000));
    }
  });
  auto q = sk.make_querier();
  std::uint64_t views = 0;
  std::uint64_t torn = 0;
  while (views < 200'000) {
    q.refresh_full();
    if (q.holes() != 0) continue;
    ++views;
    if (q.size() % 15 != 0) ++torn;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  CHECK_EQ(torn, std::uint64_t{0});
  CHECK(sk.tritmap().stream_size(k) > 0);
}

QC_TEST_MAIN()
