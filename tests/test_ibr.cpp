// Elastic levels + interval-based reclamation: queriers stay wait-free while
// updaters grow/republish level blocks, a view's referenced blocks outlive
// their displacement without throttling ingest, ibr_stats() counters are
// monotone and internally consistent, quiesce() reclaims every block no
// view references, and the serialize_propagation ablation arm is
// bit-equivalent to the default engine.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util/workload.hpp"
#include "core/sharded.hpp"
#include "qc.hpp"
#include "qc_test.hpp"
#include "stream/generators.hpp"

using qc::stream::Distribution;

namespace {

qc::Options small_options(std::uint32_t k, std::uint32_t b) {
  qc::Options o;
  o.k = k;
  o.b = b;
  o.topology = qc::numa::Topology::virtual_nodes(2, 2);
  return o;
}

// Number of blocks the sketch publishes: each non-empty run at each level
// is exactly one live block once quiesce() has trimmed, and the tail is one
// more.
std::uint64_t published_blocks(const qc::Quancurrent<double>& sk) {
  const auto tm = sk.tritmap();
  std::uint64_t runs = 0;
  for (std::uint32_t level = 0; level < qc::Tritmap::kMaxLevels; ++level) {
    runs += tm.trit(level);
  }
  return runs + 1;  // the tail block, published even when empty
}

bool wait_until(const std::atomic<bool>& flag, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

QC_TEST(queriers_survive_concurrent_level_growth) {
  // Small k + aggressive reclamation cadence maximizes block churn: every
  // cascade hop allocates a fresh block and retires the displaced one while
  // queriers' views reference the blocks they validated.  TSan is the real
  // judge here; the functional checks prove snapshots stay
  // tritmap-consistent, and that a view answers the same after the ladder
  // churned under it (pool reuse of a block it let go would change the
  // answer, and is invisible to ASan).
  qc::Options o = small_options(64, 8);
  o.ibr_epoch_freq = 1;
  o.ibr_recl_freq = 1;
  qc::Quancurrent<double> sk(o);

  constexpr std::uint32_t kUpdaters = 4;
  constexpr std::uint32_t kPerThread = 20'000;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.reserve(kUpdaters + 2);
  for (std::uint32_t t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&, t] {
      auto u = sk.make_updater(t);
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        u.update(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (std::uint32_t q = 0; q < 2; ++q) {
    threads.emplace_back([&] {
      auto querier = sk.make_querier();
      std::uint64_t last_size = 0;
      while (!done.load(std::memory_order_acquire)) {
        querier.refresh();
        const std::uint64_t size = querier.size();
        CHECK(size >= last_size);  // installed weight only grows
        last_size = size;
        if (size != 0) {
          const double mid = querier.quantile(0.5);
          CHECK(mid >= 0.0);
          CHECK(mid < static_cast<double>(kUpdaters) * kPerThread);
          const std::uint64_t seen = sk.size();
          for (int spin = 0; spin < 1000 && sk.size() == seen; ++spin) {
            std::this_thread::yield();
          }
          CHECK(querier.quantile(0.5) == mid);
        }
      }
    });
  }
  for (std::uint32_t t = 0; t < kUpdaters; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  for (std::uint32_t q = 0; q < 2; ++q) threads[kUpdaters + q].join();

  sk.quiesce();
  auto querier = sk.make_querier();
  CHECK_EQ(querier.size(), std::uint64_t{kUpdaters} * kPerThread);
}

// A view references its blocks instead of copying them.  A querier that
// never refreshes again keeps answering bit-identically after installs
// displace every block it references, under eager reclamation
// (ibr_epoch_freq = ibr_recl_freq = 1: each retirement scans, and a block
// no view references is pooled and reused at once).
QC_TEST(held_view_survives_displacement) {
  qc::Options o = small_options(64, 16);
  o.ibr_epoch_freq = 1;
  o.ibr_recl_freq = 1;
  qc::Quancurrent<double> sk(o);
  for (int i = 0; i < 5000; ++i) sk.update(static_cast<double>((i * 7919) % 1000));
  sk.quiesce();
  auto q = sk.make_querier();  // answers nothing until the blocks are displaced
  std::vector<double> quantiles;
  std::vector<std::uint64_t> ranks;
  qc::core::WeightedSummary<double> summary;
  {
    const auto twin = sk.make_querier();
    for (int i = 0; i <= 20; ++i) quantiles.push_back(twin.quantile(i / 20.0));
    for (int v = -1; v <= 40; ++v) ranks.push_back(twin.rank(v * 25.0));
    summary = twin.summary();
  }
  std::uint64_t level_runs = 0;
  for (const auto& run : q.runs()) level_runs += run.weight > 1 ? 1 : 0;
  CHECK(level_runs > 0);
  CHECK_EQ(sk.ibr_stats().held_blocks, std::uint64_t{0});

  const std::vector<double> run(o.k, 2000.0);
  for (int i = 0; i < 256; ++i) sk.install_run(1, run);
  CHECK_EQ(sk.ibr_stats().held_blocks, level_runs);
  for (int i = 0; i <= 20; ++i) {
    CHECK(q.quantile(i / 20.0) == quantiles[static_cast<std::size_t>(i)]);
  }
  for (int v = -1; v <= 40; ++v) {
    CHECK_EQ(q.rank(v * 25.0), ranks[static_cast<std::size_t>(v + 1)]);
  }
  CHECK(q.summary() == summary);
}

// Views pin memory, not ingest: the retire cap does not count blocks only a
// view keeps.  Eight queriers, made 2^5 - 1, ..., 2^12 - 1 level-1 runs in,
// each reference one run at each of levels 1..j, none shared with another
// querier, and never refresh.  The installs after them and 60k items of
// ingest displace all 68 of those blocks, more than the minimum cap of 64,
// and finish with no throttle episode.  The queriers are made on the
// ingesting thread and kept under a mutex, so that if the cap ever counted
// them, the main thread could destroy them and so release the throttled
// ingest instead of hanging.
QC_TEST(idle_queriers_do_not_throttle_ingest) {
  qc::Options o = small_options(4, 8);
  o.ibr_epoch_freq = 1;
  o.ibr_recl_freq = 4;
  o.ibr_retire_cap = 64;
  qc::Quancurrent<double> sk(o);
  std::mutex idle_mu;
  std::vector<qc::Quancurrent<double>::Querier> idle;  // guarded by idle_mu
  bool abandoned = false;                              // guarded by idle_mu
  idle.reserve(8);

  constexpr std::uint32_t kItems = 60'000;
  constexpr int kInstalled = (1 << 12) - 1;
  std::atomic<bool> ingested{false};
  std::thread ingest([&] {
    const std::vector<double> run(o.k, 0.5);
    int installed = 0;
    for (int j = 5; j <= 12; ++j) {
      for (; installed < (1 << j) - 1; ++installed) sk.install_run(1, run);
      const std::lock_guard<std::mutex> lock(idle_mu);
      if (!abandoned) idle.push_back(sk.make_querier());
    }
    auto u = sk.make_updater(0);
    for (std::uint32_t i = 0; i < kItems; ++i) u.update(static_cast<double>(i % 1000));
    u.drain();
    ingested.store(true, std::memory_order_release);
  });
  const bool finished = wait_until(ingested, 20'000);
  CHECK(finished);
  CHECK_EQ(sk.ibr_stats().throttle_waits, std::uint64_t{0});
  if (!finished) {
    const std::lock_guard<std::mutex> lock(idle_mu);
    abandoned = true;
    idle.clear();
  }
  ingest.join();

  sk.quiesce();
  const qc::IbrStats s = sk.ibr_stats();
  CHECK_EQ(s.held_blocks, std::uint64_t{68});
  CHECK(s.retire_list_len <= o.ibr_retire_cap);
  CHECK_EQ(s.live_blocks(), published_blocks(sk) + s.held_blocks);
  idle.clear();
  sk.quiesce();
  CHECK_EQ(sk.ibr_stats().held_blocks, std::uint64_t{0});
  CHECK_EQ(sk.ibr_stats().live_blocks(), published_blocks(sk));
  CHECK_EQ(sk.size(), std::uint64_t{kItems} + std::uint64_t{kInstalled} * 2 * o.k);
}

QC_TEST(ibr_stats_are_monotone_and_consistent) {
  qc::Options o = small_options(64, 8);
  o.ibr_epoch_freq = 1;
  o.ibr_recl_freq = 1;
  qc::Quancurrent<double> sk(o);

  qc::IbrStats prev;
  for (int chunk = 0; chunk < 50; ++chunk) {
    for (int i = 0; i < 1'000; ++i) {
      sk.update(static_cast<double>(chunk * 1'000 + i));
    }
    const qc::IbrStats s = sk.ibr_stats();
    // Every counter is monotone...
    CHECK(s.epochs >= prev.epochs);
    CHECK(s.allocated >= prev.allocated);
    CHECK(s.reused >= prev.reused);
    CHECK(s.retired >= prev.retired);
    CHECK(s.reclaimed >= prev.reclaimed);
    CHECK(s.freed >= prev.freed);
    CHECK(s.scans >= prev.scans);
    CHECK(s.peak_unreclaimed >= prev.peak_unreclaimed);
    // ...and the flows balance: blocks leave the retire list only via a
    // scan, and nothing is freed that was never allocated.
    CHECK(s.reclaimed <= s.retired);
    CHECK(s.freed <= s.allocated);
    CHECK(s.live_blocks() <= s.allocated);
    prev = s;
  }
  CHECK(prev.allocated > 0);
  CHECK(prev.epochs > 0);
  CHECK(prev.scans > 0);
}

QC_TEST(quiesce_reclaims_every_unreferenced_block) {
  // After quiesce() with no readers, exactly the tritmap-referenced runs and
  // the tail block may remain live: consumed-but-published stale blocks are trimmed, the retire
  // list is drained (idle handles announce no epoch), and the reuse pool is
  // flushed back to the allocator.
  qc::Options o = small_options(64, 8);
  o.ibr_epoch_freq = 4;
  o.ibr_recl_freq = 1024;  // lazy cadence: quiesce must still finish the job
  qc::Quancurrent<double> sk(o);
  const auto data = qc::stream::make_stream(Distribution::kUniform, 60'000, 11);
  qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);

  const qc::IbrStats s = sk.ibr_stats();
  CHECK(s.allocated > 0);
  CHECK(s.reclaimed > 0);
  CHECK_EQ(s.reclaimed, s.retired);  // retire list fully drained
  CHECK_EQ(s.live_blocks(), published_blocks(sk));

  // Idempotent: a second quiesce retires nothing further.
  sk.quiesce();
  const qc::IbrStats s2 = sk.ibr_stats();
  CHECK_EQ(s2.live_blocks(), published_blocks(sk));
  CHECK_EQ(s2.retired, s.retired);
}

QC_TEST(quiesce_reclaims_every_block_no_view_references) {
  // Views keep the blocks they reference past quiesce(): afterwards
  // live_blocks() is the published runs and tail block plus held_blocks.  With every
  // querier destroyed or refreshed, held_blocks is 0: a destroyed querier
  // references nothing, and one refreshed since the ladder last changed
  // references only published blocks.
  qc::Options o = small_options(64, 8);
  o.ibr_epoch_freq = 4;
  o.ibr_recl_freq = 1024;  // lazy cadence: quiesce must still finish the job
  qc::Quancurrent<double> sk(o);
  auto kept = sk.make_querier();
  std::optional<qc::Quancurrent<double>::Querier> dropped;
  {
    auto u = sk.make_updater(0);
    for (int i = 0; i < 60'000; ++i) {
      u.update(static_cast<double>((i * 7919) % 1000));
      if (i == 20'000) kept.refresh();
      if (i == 40'000) dropped.emplace(sk.make_querier());
    }
  }
  sk.quiesce();
  const qc::IbrStats s = sk.ibr_stats();
  CHECK(s.held_blocks > 0);
  CHECK_EQ(s.retire_list_len, std::uint64_t{0});
  CHECK_EQ(s.live_blocks(), published_blocks(sk) + s.held_blocks);

  dropped.reset();
  kept.refresh();  // up to date: lets go of the view it replaced
  kept.refresh();  // nothing new: O(1), references unchanged
  sk.quiesce();
  const qc::IbrStats s2 = sk.ibr_stats();
  CHECK_EQ(s2.held_blocks, std::uint64_t{0});
  CHECK_EQ(s2.live_blocks(), published_blocks(sk));
  CHECK_EQ(kept.size(), sk.size());
}

QC_TEST(serialize_propagation_is_bit_equivalent) {
  // The ablation control arm only adds a lock around owner duties — with one
  // thread the two engines must walk identical states.  The serialized
  // images may differ ONLY in the serialize_propagation options byte
  // (offset 29: header 12 + k/b/rho 12 + stats 1 + queue 4).
  qc::Options base = small_options(64, 8);
  base.seed = 99;
  qc::Options serial = base;
  serial.serialize_propagation = true;
  qc::Quancurrent<double> sk_a(base);
  qc::Quancurrent<double> sk_b(serial);
  const auto data = qc::stream::make_stream(Distribution::kNormal, 40'000, 7);
  for (double v : data) {
    sk_a.update(v);
    sk_b.update(v);
  }
  sk_a.quiesce();
  sk_b.quiesce();

  std::vector<std::byte> blob_a(sk_a.serialized_size());
  std::vector<std::byte> blob_b(sk_b.serialized_size());
  CHECK_EQ(sk_a.serialize(blob_a), blob_a.size());
  CHECK_EQ(sk_b.serialize(blob_b), blob_b.size());
  CHECK_EQ(blob_a.size(), blob_b.size());
  std::size_t diffs = 0;
  std::size_t diff_at = 0;
  for (std::size_t i = 0; i < blob_a.size(); ++i) {
    if (blob_a[i] != blob_b[i]) {
      ++diffs;
      diff_at = i;
    }
  }
  CHECK_EQ(diffs, std::size_t{1});
  CHECK_EQ(diff_at, std::size_t{29});
}

QC_TEST(quiesce_tolerates_concurrent_merge_into) {
  // quiesce()'s precondition bans concurrent update(), not concurrent
  // merge_into(): a merging peer may enqueue (and self-drain) install
  // batches at any moment, so the historical head==tail assert after the
  // drain was spuriously violable.  Hammer the two against each other.
  qc::Quancurrent<double> src(small_options(64, 8));
  for (int i = 0; i < 10'000; ++i) src.update(static_cast<double>(i));
  src.quiesce();
  const std::uint64_t src_size = src.size();
  CHECK(src_size > 0);

  qc::Quancurrent<double> target(small_options(64, 8));
  constexpr int kMerges = 50;
  std::thread merger([&] {
    for (int m = 0; m < kMerges; ++m) CHECK(src.merge_into(target));
  });
  for (int i = 0; i < 200; ++i) target.quiesce();
  merger.join();

  target.quiesce();
  CHECK_EQ(target.size(), src_size * kMerges);
  const qc::IbrStats s = target.ibr_stats();
  CHECK_EQ(s.live_blocks(), published_blocks(target));
}

QC_TEST(sharded_ibr_stats_aggregate_over_shards) {
  qc::core::ShardedQuancurrent<double> sk(2, small_options(64, 8));
  {
    auto u0 = sk.make_updater(0);
    auto u1 = sk.make_updater(1);
    for (int i = 0; i < 30'000; ++i) {
      u0.update(static_cast<double>(i));
      u1.update(static_cast<double>(-i));
    }
  }
  sk.quiesce();
  // A cross-shard view keeps shard 0's blocks once installs displace them.
  const auto q = sk.make_querier();
  const std::vector<double> run(64, 0.5);
  for (int i = 0; i < 256; ++i) sk.shard(0).install_run(1, run);
  const qc::IbrStats total = sk.ibr_stats();
  const qc::IbrStats s0 = sk.shard(0).ibr_stats();
  const qc::IbrStats s1 = sk.shard(1).ibr_stats();
  CHECK(s0.allocated > 0);
  CHECK(s1.allocated > 0);
  CHECK(s0.held_blocks > 0);
  CHECK_EQ(total.allocated, s0.allocated + s1.allocated);
  CHECK_EQ(total.retired, s0.retired + s1.retired);
  CHECK_EQ(total.freed, s0.freed + s1.freed);
  CHECK_EQ(total.held_blocks, s0.held_blocks + s1.held_blocks);
  CHECK_EQ(total.peak_unreclaimed,
           std::max(s0.peak_unreclaimed, s1.peak_unreclaimed));
}

QC_TEST_MAIN()
