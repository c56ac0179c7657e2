// Baselines subsystem (fig10/ext benches): the FCDS concurrent quantiles
// baseline, the KLL sequential baseline, and the relaxation algebra that
// matches fig10's buffer sizes to a target r.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "analysis/relaxation.hpp"
#include "baselines/fcds.hpp"
#include "qc_test.hpp"
#include "sequential/kll_sketch.hpp"
#include "sequential/quantiles_sketch.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

namespace {

using namespace qc;

// ----- relaxation algebra ----------------------------------------------------

QC_TEST(relaxation_round_trips) {
  // buffer_for_relaxation inverts relaxation exactly on achievable points.
  for (std::uint64_t k : {256ull, 4096ull}) {
    for (std::uint64_t nodes : {1ull, 4ull}) {
      for (std::uint64_t threads : {8ull, 32ull}) {
        for (std::uint64_t b : {1ull, 8ull, 16ull, 100ull, 1024ull}) {
          const std::uint64_t r = analysis::quancurrent_relaxation(k, nodes, threads, b);
          CHECK_EQ(analysis::quancurrent_buffer_for_relaxation(r, k, nodes, threads), b);
        }
      }
    }
  }
  for (std::uint64_t workers : {1ull, 8ull, 24ull}) {
    for (std::uint64_t B : {1ull, 9ull, 2500ull}) {
      const std::uint64_t r = analysis::fcds_relaxation(workers, B);
      CHECK_EQ(analysis::fcds_buffer_for_relaxation(r, workers), B);
    }
  }
  // The inverse is a floor: targets between achievable points round down.
  CHECK_EQ(analysis::fcds_buffer_for_relaxation(analysis::fcds_relaxation(8, 100) + 15, 8),
           100ull);
  CHECK_EQ(analysis::quancurrent_buffer_for_relaxation(
               analysis::quancurrent_relaxation(4096, 1, 8, 50) + 6, 4096, 1, 8),
           50ull);
  // Degenerate targets: gather term alone exceeds r, or no local buffers.
  CHECK_EQ(analysis::quancurrent_buffer_for_relaxation(100, 4096, 1, 8), 0ull);
  CHECK_EQ(analysis::quancurrent_buffer_for_relaxation(1'000'000, 4096, 4, 4), 0ull);
  CHECK_EQ(analysis::fcds_buffer_for_relaxation(7, 8), 0ull);
  // Paper sanity: at k=4096, S=1, N=8, Quancurrent reaches r ~ 2e4 with b ~
  // 500 while FCDS needs B ~ 1250 to sit at the same r.
  CHECK(analysis::quancurrent_relaxation(4096, 1, 8, 512) < 21'000);
  CHECK_EQ(analysis::fcds_relaxation(8, 1250), 20'000ull);
}

// ----- KLL -------------------------------------------------------------------

QC_TEST(kll_rank_error_within_oracle_bound) {
  const std::uint32_t k = 256;
  const std::uint64_t n = 60'000;
  auto data = stream::make_stream(stream::Distribution::kUniform, n, 42);
  sequential::KllSketch<double> kll(k);
  for (double v : data) kll.update(v);
  CHECK_EQ(kll.size(), n);
  stream::ExactQuantiles<double> exact{std::vector<double>(data)};
  double max_err = 0.0;
  for (double phi = 0.05; phi <= 0.951; phi += 0.05) {
    max_err = std::max(max_err, exact.rank_error(kll.quantile(phi), phi));
  }
  // KLL's rank error is O(1/k); 8/k is a generous deterministic envelope.
  CHECK(max_err < 8.0 / static_cast<double>(k));
  // rank() and cdf() answer from the same summary.
  const double median = kll.quantile(0.5);
  CHECK_NEAR(kll.cdf(median), 0.5, 0.05);
}

QC_TEST(kll_retained_stays_near_3k) {
  // The geometric capacity decay caps retained space at ~3k for any stream
  // length — the headline space win over the classic sketch ext_kll_compare
  // measures.
  const std::uint32_t k = 128;
  sequential::KllSketch<double> kll(k);
  auto data = stream::make_stream(stream::Distribution::kNormal, 200'000, 7);
  std::uint64_t max_retained = 0;
  for (double v : data) {
    kll.update(v);
    max_retained = std::max(max_retained, kll.retained());
  }
  CHECK(max_retained <= 5ull * k);
  CHECK(kll.retained() >= k / 2);  // it did keep a summary
  CHECK(kll.num_levels() > 5);     // and the stream really cascaded
}

// ----- FCDS ------------------------------------------------------------------

QC_TEST(fcds_single_worker_matches_sequential_exactly) {
  // With one worker, B dividing 2k, and a quiesce, every compaction block is
  // the same 2k stream elements the sequential sketch compacts, the merged
  // sorted sequence is identical, and the compaction coin streams align
  // (same seed, one coin per compaction) — so answers match bit-for-bit.
  const std::uint32_t k = 128;
  const std::uint64_t seed = 777;
  const std::uint64_t n = 40'000;
  const auto data = stream::make_stream(stream::Distribution::kUniform, n, 9);
  sequential::QuantilesSketch<double> seq(k, seed);
  for (double v : data) seq.update(v);

  for (std::uint64_t B : {32ull, 64ull, 256ull}) {
    fcds::FcdsQuantiles<double>::Options fo;
    fo.k = k;
    fo.worker_buffer = B;
    fo.num_workers = 1;
    fo.publish_every = 1u << 30;  // only quiesce publishes
    fo.seed = seed;
    fcds::FcdsQuantiles<double> f(fo);
    {
      auto w = f.make_updater(0);
      for (double v : data) w.update(v);
    }
    f.quiesce();
    CHECK_EQ(f.size(), n);
    for (double phi = 0.05; phi <= 0.951; phi += 0.05) {
      CHECK_EQ(f.quantile(phi), seq.quantile(phi));
    }
    for (double probe : {0.1, 0.25, 0.5, 0.9}) {
      CHECK_EQ(f.rank(probe), seq.rank(probe));
    }
  }

  // A B that does NOT divide 2k partitions the stream into different (but
  // equally valid) 2k compaction blocks: a worker pre-sorts its buffer, so a
  // buffer straddling the 2k boundary contributes its smallest items first.
  // Answers then differ from the sequential sketch but stay inside the same
  // O(1/k) envelope.
  stream::ExactQuantiles<double> exact{std::vector<double>(data)};
  for (std::uint64_t B : {100ull, 1000ull}) {
    fcds::FcdsQuantiles<double>::Options fo;
    fo.k = k;
    fo.worker_buffer = B;
    fo.num_workers = 1;
    fo.publish_every = 1u << 30;
    fo.seed = seed;
    fcds::FcdsQuantiles<double> f(fo);
    {
      auto w = f.make_updater(0);
      for (double v : data) w.update(v);
    }
    f.quiesce();
    CHECK_EQ(f.size(), n);
    for (double phi = 0.05; phi <= 0.951; phi += 0.05) {
      CHECK(exact.rank_error(f.quantile(phi), phi) < 8.0 / static_cast<double>(k));
    }
  }
}

QC_TEST(fcds_concurrent_ingest_with_live_queries) {
  // Multi-worker ingest with a live reader hammering the double-buffered
  // snapshot while the propagator publishes on a short cadence — the TSan
  // smoke for the worker/propagator/query synchronization.
  const std::uint32_t k = 64;
  const std::uint32_t workers = 4;
  const std::uint64_t per_worker = 20'000;
  const std::uint64_t n = workers * per_worker;
  const auto data = stream::make_stream(stream::Distribution::kUniform, n, 33);

  fcds::FcdsQuantiles<double>::Options fo;
  fo.k = k;
  fo.worker_buffer = 256;
  fo.num_workers = workers;
  fo.publish_every = 1024;
  fcds::FcdsQuantiles<double> f(fo);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const double q = f.quantile(0.5);
      CHECK(q >= 0.0 && q < 1.0);
      (void)f.size();
    }
  });
  std::vector<std::thread> pool;
  for (std::uint32_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      auto up = f.make_updater(w);
      for (std::uint64_t i = w * per_worker; i < (w + 1) * per_worker; ++i) {
        up.update(data[i]);
      }
    });
  }
  for (auto& t : pool) t.join();
  f.quiesce();
  done.store(true, std::memory_order_release);
  reader.join();

  CHECK_EQ(f.size(), n);
  CHECK(f.publishes() > 1);  // the cadence actually published mid-stream
  stream::ExactQuantiles<double> exact{std::vector<double>(data)};
  for (double phi : {0.1, 0.5, 0.9}) {
    CHECK(exact.rank_error(f.quantile(phi), phi) < 8.0 / static_cast<double>(k));
  }
}

QC_TEST(fcds_wait_free_reader_sees_monotone_snapshots) {
  // The snapshot path is a pinned double-buffer swap (no mutex): readers pin
  // a buffer, re-check the active index, and read; the propagator drains the
  // inactive buffer's pins before rebuilding it and flips with one store.
  // Two properties fall out and are asserted here while a publish storm runs
  // (publish_every = 1 buffer, several live readers):
  //   * every read is a CONSISTENT snapshot — quantile(0.25) <= quantile(0.75)
  //     answered from one summary, never a half-rebuilt one, and
  //   * a reader's successive size() calls are monotone non-decreasing —
  //     the flip only ever installs a strictly newer snapshot.
  const std::uint32_t k = 64;
  const std::uint32_t workers = 2;
  const std::uint32_t readers = 3;
  const std::uint64_t per_worker = 30'000;
  const std::uint64_t n = workers * per_worker;
  const auto data = stream::make_stream(stream::Distribution::kUniform, n, 91);

  fcds::FcdsQuantiles<double>::Options fo;
  fo.k = k;
  fo.worker_buffer = 128;
  fo.num_workers = workers;
  fo.publish_every = 1;  // republish on every handed-off buffer
  fcds::FcdsQuantiles<double> f(fo);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> pool;
  for (std::uint32_t r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      std::uint64_t last_size = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t s = f.size();
        CHECK(s >= last_size);
        last_size = s;
        if (s != 0) {
          const double lo = f.quantile(0.25);
          const double hi = f.quantile(0.75);
          CHECK(lo <= hi);
          CHECK(lo >= 0.0 && hi < 1.0);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint32_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      auto up = f.make_updater(w);
      for (std::uint64_t i = w * per_worker; i < (w + 1) * per_worker; ++i) {
        up.update(data[i]);
      }
    });
  }
  for (std::size_t t = readers; t < pool.size(); ++t) pool[t].join();
  f.quiesce();
  done.store(true, std::memory_order_release);
  for (std::uint32_t r = 0; r < readers; ++r) pool[r].join();

  CHECK_EQ(f.size(), n);
  CHECK(f.publishes() > 10);  // the storm actually flipped buffers repeatedly
  CHECK(reads.load(std::memory_order_relaxed) > 0);  // post-join: no ordering
}

}  // namespace

QC_TEST_MAIN()
