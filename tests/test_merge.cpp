// merge_into: weight conservation, merge-vs-single-stream error bounds,
// order independence (associativity within the rank-error envelope), the
// leveled install path it rides on, and wait-freedom of concurrent queriers
// while a merge is in flight.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/workload.hpp"
#include "core/small_sort.hpp"
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

// A sequential k-item-level image with its presort-chunk field zeroed and
// every -0.0 item written as +0.0: what stays of the image when the presort
// changes its block length and the order it leaves the two zeros in.
std::vector<std::byte> zero_canonical(std::vector<std::byte> image, std::uint32_t k) {
  std::memset(image.data() + 16, 0, sizeof(std::uint64_t));  // chunk, after k
  const auto canonicalize = [&](std::size_t off, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i, off += sizeof(double)) {
      double v = 0.0;
      std::memcpy(&v, image.data() + off, sizeof(v));
      if (v == 0.0) v = 0.0;
      std::memcpy(image.data() + off, &v, sizeof(v));
    }
  };
  std::uint64_t base_count = 0;
  std::memcpy(&base_count, image.data() + 64, sizeof(base_count));
  std::size_t off = 72;
  canonicalize(off, base_count);
  off += base_count * sizeof(double);
  std::uint32_t levels = 0;
  std::memcpy(&levels, image.data() + off, sizeof(levels));
  off += sizeof(levels);
  for (std::uint32_t i = 0; i < levels; ++i) {
    if (image[off++] == std::byte{0}) continue;
    canonicalize(off, k);
    off += k * sizeof(double);
  }
  return image;
}

// Max rank error of `answer(phi)` against the exact oracle over a phi grid.
template <typename AnswerFn>
double max_rank_error(const qc::stream::ExactQuantiles<double>& exact, AnswerFn&& answer) {
  double max_err = 0.0;
  for (int i = 1; i < 50; ++i) {
    const double phi = static_cast<double>(i) / 50.0;
    max_err = std::max(max_err, exact.rank_error(answer(phi), phi));
  }
  return max_err;
}

}  // namespace

QC_TEST(sequential_merge_conserves_weight_and_accuracy) {
  const std::uint32_t k = 256;
  const std::uint64_t n = 100'000;
  auto a_data = qc::stream::make_stream(Distribution::kUniform, n, 11);
  auto b_data = qc::stream::make_stream(Distribution::kNormal, n, 12);

  qc::QuantilesSketch<double> a(k), b(k);
  for (double v : a_data) a.update(v);
  for (double v : b_data) b.update(v);

  qc::QuantilesSketch<double> merged(k);
  CHECK(a.merge_into(merged));
  CHECK(b.merge_into(merged));
  CHECK_EQ(merged.size(), 2 * n);

  std::vector<double> all = a_data;
  all.insert(all.end(), b_data.begin(), b_data.end());
  qc::stream::ExactQuantiles<double> exact(std::move(all));
  // Merged error stays within the same envelope a single sketch fed both
  // streams satisfies (12/k: the single-stream test bound with headroom).
  const double err =
      max_rank_error(exact, [&](double phi) { return merged.quantile(phi); });
  CHECK(err <= 12.0 / static_cast<double>(k));
}

QC_TEST(sequential_merge_rejects_mismatched_k_and_self) {
  qc::QuantilesSketch<double> a(128), b(64);
  a.update(1.0);
  CHECK(!a.merge_into(b));
  CHECK(!a.merge_into(a));
  CHECK_EQ(b.size(), 0u);
}

QC_TEST(sequential_merge_is_order_independent_within_bound) {
  const std::uint32_t k = 256;
  const std::uint64_t n = 60'000;
  std::vector<std::vector<double>> streams;
  std::vector<double> all;
  for (std::uint64_t s = 0; s < 3; ++s) {
    streams.push_back(qc::stream::make_stream(
        s % 2 == 0 ? Distribution::kUniform : Distribution::kNormal, n, 20 + s));
    all.insert(all.end(), streams.back().begin(), streams.back().end());
  }
  qc::stream::ExactQuantiles<double> exact(std::move(all));

  // (A into (B into C-target)) vs (C into (B into A-target)): different
  // fold orders agree with the oracle — and hence with each other — within
  // the rank-error envelope.
  const auto fold = [&](std::initializer_list<int> order) {
    qc::QuantilesSketch<double> target(k);
    for (int idx : order) {
      qc::QuantilesSketch<double> part(k, /*seed=*/900 + idx);
      for (double v : streams[static_cast<std::size_t>(idx)]) part.update(v);
      CHECK(part.merge_into(target));
    }
    return max_rank_error(exact, [&](double phi) { return target.quantile(phi); });
  };
  CHECK(fold({0, 1, 2}) <= 12.0 / static_cast<double>(k));
  CHECK(fold({2, 1, 0}) <= 12.0 / static_cast<double>(k));
  CHECK(fold({1, 2, 0}) <= 12.0 / static_cast<double>(k));
}

QC_TEST(concurrent_merge_conserves_weight_and_accuracy) {
  const std::uint32_t k = 256;
  const std::uint64_t n = 100'000;
  auto a_data = qc::stream::make_stream(Distribution::kUniform, n, 31);
  auto b_data = qc::stream::make_stream(Distribution::kNormal, n, 32);

  qc::Quancurrent<double> a(small_options(k, 8));
  qc::Quancurrent<double> b(small_options(k, 8));
  qc::bench::ingest_quancurrent(a, a_data, 2, /*quiesce=*/true);
  qc::bench::ingest_quancurrent(b, b_data, 2, /*quiesce=*/true);
  CHECK_EQ(a.size(), n);
  CHECK_EQ(b.size(), n);

  // Fold b into a: a now answers for the union.
  CHECK(b.merge_into(a));
  CHECK_EQ(a.size(), 2 * n);
  CHECK_EQ(b.size(), n);  // source unchanged

  auto q = a.make_querier();
  CHECK_EQ(q.size(), 2 * n);
  std::vector<double> all = a_data;
  all.insert(all.end(), b_data.begin(), b_data.end());
  qc::stream::ExactQuantiles<double> exact(std::move(all));
  const double err = max_rank_error(exact, [&](double phi) { return q.quantile(phi); });
  CHECK(err <= 12.0 / static_cast<double>(k));
}

QC_TEST(concurrent_merge_rejects_mismatched_k_and_self) {
  qc::Quancurrent<double> a(small_options(128, 8));
  qc::Quancurrent<double> b(small_options(64, 8));
  a.update(1.0);
  CHECK(!a.merge_into(b));
  CHECK(!a.merge_into(a));
  CHECK_EQ(b.size(), 0u);
}

QC_TEST(concurrent_merge_is_order_independent_within_bound) {
  const std::uint32_t k = 256;
  const std::uint64_t n = 50'000;
  std::vector<std::vector<double>> streams;
  std::vector<double> all;
  for (std::uint64_t s = 0; s < 3; ++s) {
    streams.push_back(qc::stream::make_stream(Distribution::kUniform, n, 40 + s));
    all.insert(all.end(), streams.back().begin(), streams.back().end());
  }
  qc::stream::ExactQuantiles<double> exact(std::move(all));

  const auto fold = [&](std::initializer_list<int> order) {
    qc::Quancurrent<double> target(small_options(k, 8));
    for (int idx : order) {
      qc::Quancurrent<double> part(small_options(k, 8));
      qc::bench::ingest_quancurrent(part, streams[static_cast<std::size_t>(idx)], 2,
                                    /*quiesce=*/true);
      CHECK(part.merge_into(target));
    }
    CHECK_EQ(target.size(), 3 * n);
    auto q = target.make_querier();
    return max_rank_error(exact, [&](double phi) { return q.quantile(phi); });
  };
  CHECK(fold({0, 1, 2}) <= 12.0 / static_cast<double>(k));
  CHECK(fold({2, 0, 1}) <= 12.0 / static_cast<double>(k));
}

QC_TEST(install_run_lands_at_requested_level) {
  const std::uint32_t k = 64;
  qc::Quancurrent<double> sk(small_options(k, 8));
  std::vector<double> run(k);
  for (std::uint32_t i = 0; i < k; ++i) run[i] = static_cast<double>(i);

  sk.install_run(3, run);  // k items of weight 8
  CHECK_EQ(sk.size(), static_cast<std::uint64_t>(k) << 3);
  CHECK_EQ(sk.tritmap().trit(3), 1u);

  sk.install_run(3, run);  // fills level 3 -> compacts into level 4
  CHECK_EQ(sk.size(), static_cast<std::uint64_t>(k) << 4);
  CHECK_EQ(sk.tritmap().trit(3), 0u);
  CHECK_EQ(sk.tritmap().trit(4), 1u);

  auto q = sk.make_querier();
  CHECK_EQ(q.size(), sk.size());
  CHECK_NEAR(q.quantile(1.0), static_cast<double>(k - 1), 1e-12);
}

// Every compaction step is pinned bit for bit: the serialized images of a
// single-updater ingest (k = 64, ~1M elements with duplicates and both
// zeros), of a sketch that ladder was then merged into (so install_run's
// entry level cascades too), and of the sequential sketch over the same
// stream must keep the CRC32C digests below.  A merge that breaks ties
// toward the other run, or keeps the wrong parity, changes which of two
// equal items (+0.0 vs -0.0) survives and with it the digest.
QC_TEST(cascade_images_match_pinned_digests) {
  const std::uint32_t k = 64;
  const std::size_t n = std::size_t{1} << 20;
  qc::Xoshiro256 rng(2207);
  std::vector<double> data(n);
  for (auto& v : data) {
    switch (rng() % 6) {
      case 0: v = 0.0; break;
      case 1: v = -0.0; break;
      case 2: v = static_cast<double>(rng() % 7); break;
      default: v = (rng.next_double() - 0.5) * 1e4; break;
    }
  }
  const auto digest = [](const auto& sketch) {
    const auto image = qc::to_bytes(sketch);
    return qc::recovery::crc32c(image.data(), image.size());
  };

  auto o = small_options(k, 8);
  o.seed = 41;
  qc::Quancurrent<double> src(o);
  {
    auto u = src.make_updater(0);
    u.update(std::span<const double>(data));
  }
  src.quiesce();
  CHECK_EQ(src.size(), n);

  o.seed = 43;
  qc::Quancurrent<double> target(o);
  {
    auto u = target.make_updater(0);
    u.update(std::span<const double>(data.data(), n / 3));
  }
  target.quiesce();
  CHECK(src.merge_into(target));
  target.quiesce();
  CHECK_EQ(target.size(), n + n / 3);

  qc::QuantilesSketch<double> seq(k, /*seed=*/47);
  for (const double v : data) seq.update(v);
  CHECK_EQ(seq.size(), n);

  const std::uint32_t got[3] = {digest(src), digest(target), digest(seq)};
  std::printf("    digests: %08x %08x %08x\n", got[0], got[1], got[2]);
  CHECK_EQ(got[0], 0x0f4f23d8u);
  CHECK_EQ(got[1], 0x3111c3afu);
  CHECK_EQ(got[2], 0x58d5c966u);
  // The sequential base presorts 16-item blocks with small_sort, which puts
  // -0.0 before +0.0, and its image declares chunk 16.  A sketch that sorted
  // its whole 128-item base with std::sort, which may leave the two zeros in
  // either order, and declared chunk 0 wrote digest 0x9f3227e2.  With the
  // chunk field zeroed and every -0.0 written as +0.0 both images hash to
  // the digest below, so only the zeros' order and the chunk field moved.
  const auto canonical = zero_canonical(qc::to_bytes(seq), k);
  const std::uint32_t canonical_digest =
      qc::recovery::crc32c(canonical.data(), canonical.size());
  std::printf("    zero-canonical sequential digest: %08x\n", canonical_digest);
  CHECK_EQ(canonical_digest, 0x5eb1e37du);

  // target's 85-item tail is an immutable sorted block, so the image writes
  // it sorted.  An engine that kept the tail in insertion order wrote the
  // 5 items the updater drained, then quiesce()'s 80-item gather residue
  // as ten presorted 8-item chunks; with its tail put back in that order,
  // the image must keep that engine's digest, so only the order moved.
  auto image = qc::to_bytes(target);
  const std::size_t m = n / 3;
  std::vector<double> inserted(data.begin() + static_cast<std::ptrdiff_t>(m - 5),
                               data.begin() + static_cast<std::ptrdiff_t>(m));
  for (std::size_t c = m - 85; c < m - 5; c += 8) {
    std::array<double, 8> chunk{};
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(c), 8, chunk.begin());
    qc::core::small_sort(std::span<double>(chunk));
    inserted.insert(inserted.end(), chunk.begin(), chunk.end());
  }
  std::memcpy(image.data() + image.size() - 85 * sizeof(double), inserted.data(),
              85 * sizeof(double));
  CHECK_EQ(qc::recovery::crc32c(image.data(), image.size()), 0x2d988403u);
}

QC_TEST(queriers_stay_live_during_concurrent_merge) {
  const std::uint32_t k = 128;
  const std::uint64_t n = 50'000;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 55);
  qc::Quancurrent<double> target(small_options(k, 8));
  std::vector<qc::Quancurrent<double>*> sources;
  std::vector<std::unique_ptr<qc::Quancurrent<double>>> owned;
  for (int s = 0; s < 4; ++s) {
    owned.push_back(std::make_unique<qc::Quancurrent<double>>(small_options(k, 8)));
    qc::bench::ingest_quancurrent(*owned.back(), data, 2, /*quiesce=*/true);
    sources.push_back(owned.back().get());
  }

  // Queriers refresh continuously while merges replay ladders into target;
  // every observed size must be a consistent point-in-time weight (never
  // past the final total; a rare hole-accepted snapshot may undercount but
  // never overcount).
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread reader([&] {
    auto q = target.make_querier();
    while (!done.load(std::memory_order_acquire)) {
      q.refresh();
      if (q.size() > 4 * n) violations.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (auto* src : sources) CHECK(src->merge_into(target));
  done.store(true, std::memory_order_release);
  reader.join();

  CHECK_EQ(violations.load(std::memory_order_relaxed), 0u);  // reader joined
  CHECK_EQ(target.size(), 4 * n);
  auto q = target.make_querier();
  CHECK_EQ(q.size(), 4 * n);
}

// a.merge_into(b) racing b.merge_into(a), with live updaters on both and
// the smallest retire cap.  A merge that kept its ladder image (an IBR pin
// on the source) while installing into the target could deadlock: each
// sketch's latch holder throttles on the other merge's pin while that merge
// waits on the first sketch's installs.  Merges drop the image first, so
// every trial finishes; a hang is reported and aborts, since a deadlocked
// thread cannot be joined.
QC_TEST(crossed_merges_with_live_updaters_finish) {
  qc::Options o = small_options(16, 8);  // a small k retires blocks fast
  o.ibr_epoch_freq = 1;
  o.ibr_recl_freq = 4;
  o.ibr_retire_cap = 64;
  constexpr int kTrials = 100;
  constexpr int kRounds = 4;
  std::atomic<int> finished{0};
  std::uint64_t throttles = 0;
  std::thread watchdog([&finished] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (finished.load(std::memory_order_acquire) < kTrials) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "crossed merges did not finish in 120 s (deadlock)\n");
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (int trial = 0; trial < kTrials; ++trial) {
    qc::Quancurrent<double> a(o), b(o);
    std::atomic<bool> stop{false};
    std::atomic<int> merged{0};
    std::vector<std::thread> threads;
    for (auto* sk : {&a, &b}) {
      threads.emplace_back([sk, &stop] {
        auto u = sk->make_updater(0);
        for (std::uint32_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
          u.update(static_cast<double>(i % 10'000));
        }
        u.drain();
      });
    }
    // Let the ladders grow a few levels before the merges start.
    while (a.size() < 20'000 || b.size() < 20'000) std::this_thread::yield();
    std::vector<std::thread> mergers;
    for (auto [src, dst] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
      mergers.emplace_back([src = src, dst = dst, &merged] {
        for (int r = 0; r < kRounds; ++r) {
          if (src->merge_into(*dst)) merged.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : mergers) t.join();
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    CHECK_EQ(merged.load(std::memory_order_relaxed), 2 * kRounds);
    a.quiesce();
    b.quiesce();
    CHECK(!a.ibr_stats().degraded);
    CHECK(!b.ibr_stats().degraded);
    throttles += a.ibr_stats().throttle_waits + b.ibr_stats().throttle_waits;
    finished.fetch_add(1, std::memory_order_release);
  }
  watchdog.join();
  std::fprintf(stderr, "crossed merges: %d trials, %llu throttle episodes\n", kTrials,
               static_cast<unsigned long long>(throttles));
}

QC_TEST_MAIN()
