// Extension: update scaling beyond a single sketch's contention knee.
//
// A single Quancurrent funnels every flush through per-node gather buffers
// and one install latch; past some thread count those shared points are the
// bottleneck (fig06a's gather_waits/latch_spins).  ShardedQuancurrent splits
// the stream across S independent sketches (thread-affinity routing) and
// answers queries from the union of the shards' run views, so update
// throughput keeps scaling.  This bench sweeps threads over
// {1..max(16, QC_MAX_THREADS)} for a single sketch vs S ∈ {2, 4} shards,
// then runs a mixed phase on S = 4 to show cross-shard queries staying live
// (and lock-free) during ingestion.  A rebuild-query arm then measures what
// a fresh cross-shard query costs: each round installs one 2k batch into
// one shard and times refresh() plus quantile + rank, for S = 4 and for a
// single sketch at the same k.
//
// Writes BENCH_sharded.json when QC_BENCH_JSON is set; the rebuild-query
// percentiles are diagnostic counters, not gated.
//
// Env: QC_SCALE/QC_KEYS/QC_RUNS/QC_MAX_THREADS, QC_K, QC_B, QC_BENCH_JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/harness.hpp"
#include "bench_util/workload.hpp"
#include "core/sharded.hpp"
#include "common/env.hpp"
#include "common/fmt_table.hpp"
#include "stream/generators.hpp"

namespace {

struct RebuildQuery {
  double refresh_p50_us = 0.0;
  double refresh_p90_us = 0.0;
  double query_p50_us = 0.0;  // refresh + quantile + rank
  double query_p90_us = 0.0;
};

// `rounds` rounds of: install_batch(round), then one timed fresh query on a
// querier that lives across rounds, so every refresh rebuilds its view.
template <typename Sketch, typename Install>
RebuildQuery rebuild_query(Sketch& sk, Install install_batch, int rounds,
                           const std::vector<double>& probes) {
  using clock = std::chrono::steady_clock;
  const auto us = [](clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  auto q = sk.make_querier();
  std::vector<double> refresh_us, query_us;
  double sink = 0.0;
  for (int r = 0; r < rounds; ++r) {
    install_batch(r);
    const double phi = static_cast<double>(r % 97 + 1) / 99.0;
    const auto t0 = clock::now();
    q.refresh();
    const auto t1 = clock::now();
    sink += q.quantile(phi) + static_cast<double>(q.rank(probes[r % probes.size()]));
    const auto t2 = clock::now();
    refresh_us.push_back(us(t1 - t0));
    query_us.push_back(us(t2 - t0));
  }
  if (sink < 0) std::printf("%f\n", sink);  // keeps the answers live
  return {qc::bench::percentile(refresh_us, 0.5), qc::bench::percentile(refresh_us, 0.9),
          qc::bench::percentile(query_us, 0.5), qc::bench::percentile(query_us, 0.9)};
}

}  // namespace

int main() {
  using namespace qc;
  auto scale = env::bench_scale();
  const std::uint32_t k = static_cast<std::uint32_t>(env::get_u64("QC_K", 1024));
  const std::uint32_t b = static_cast<std::uint32_t>(env::get_u64("QC_B", 16));
  // The interesting region starts past the single-sketch knee, so this sweep
  // always includes 16 threads even when QC_MAX_THREADS is lower — and the
  // knee only manifests with enough stream per thread and enough runs to
  // average out scheduling noise, so smoke scale gets floored up here.
  const std::uint32_t max_threads = std::max(16u, scale.max_threads);
  scale.keys = std::max<std::uint64_t>(scale.keys, 500'000);
  scale.runs = std::max(scale.runs, 4u);

  std::printf("=== ext: sharded update scaling (single vs S=2 vs S=4) ===\n");
  std::printf("k=%u b=%u n=%llu runs=%u max_threads=%u\n\n", k, b,
              static_cast<unsigned long long>(scale.keys), scale.runs, max_threads);

  const auto data = stream::make_stream(stream::Distribution::kUniform, scale.keys, 23);

  const auto make_opts = [&] {
    core::Options o;
    o.k = k;
    o.b = b;
    o.collect_stats = true;
    o.topology = numa::Topology::virtual_nodes(4, 8);
    return o;
  };

  bench::JsonSeries json("ext_sharded_scaling", scale.name, "sharded4_ops_per_sec");
  Table t({"threads", "single", "S=2", "S=4", "S4/single", "single_waits", "S4_waits"});
  double single_at_max = 0.0;
  double sharded4_at_max = 0.0;
  for (std::uint32_t threads : bench::thread_sweep(max_threads)) {
    core::Stats single_stats;
    const double single = bench::average_runs(scale.runs, [&] {
      core::Quancurrent<double> sk(make_opts());
      const double secs = bench::ingest_quancurrent(sk, data, threads);
      single_stats = sk.stats();
      return throughput(data.size(), secs);
    });
    const double s2 = bench::average_runs(scale.runs, [&] {
      core::ShardedQuancurrent<double> sk(2, make_opts());
      return throughput(data.size(), bench::ingest_quancurrent(sk, data, threads));
    });
    core::Stats s4_stats;
    const double s4 = bench::average_runs(scale.runs, [&] {
      core::ShardedQuancurrent<double> sk(4, make_opts());
      const double secs = bench::ingest_quancurrent(sk, data, threads);
      s4_stats = sk.stats();
      return throughput(data.size(), secs);
    });
    single_at_max = single;
    sharded4_at_max = s4;
    json.add(threads, s4);
    t.add_row({Table::integer(threads), Table::mops(single), Table::mops(s2),
               Table::mops(s4), Table::num(s4 / single, 2) + "x",
               Table::integer(single_stats.gather_waits + single_stats.latch_spins),
               Table::integer(s4_stats.gather_waits + s4_stats.latch_spins)});
  }
  t.print();
  std::printf("\n@%u threads: single=%s S4=%s (%.2fx)\n", max_threads,
              Table::mops(single_at_max).c_str(), Table::mops(sharded4_at_max).c_str(),
              sharded4_at_max / single_at_max);

  // Mixed phase: S = 4 shards ingesting while cross-shard queriers refresh;
  // the facade querier takes no lock, so queries stay live throughout.
  const std::uint32_t upd = std::min<std::uint32_t>(8, max_threads);
  const std::uint32_t qry = std::min<std::uint32_t>(4, max_threads);
  core::ShardedQuancurrent<double> mixed_sk(4, make_opts());
  const auto mixed = bench::run_mixed(mixed_sk, data, upd, qry);
  std::printf("mixed (S=4, %uu+%uq): upd=%s qry=%s refresh p50=%.1fus p99=%.1fus "
              "holes=%llu\n",
              upd, qry, Table::mops(mixed.update_throughput).c_str(),
              Table::mops(mixed.query_throughput).c_str(), mixed.refresh_p50_us,
              mixed.refresh_p99_us, static_cast<unsigned long long>(mixed.holes));

  // Rebuild-query arm: the same stream prefilled into S = 4 shards and into
  // one sketch, then one 2k batch per round (round-robin over the shards).
  constexpr int kRounds = 400;
  std::vector<std::vector<double>> batches(16);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    batches[i] = stream::make_stream(stream::Distribution::kUniform, 2 * std::size_t{k},
                                     100 + i);
    std::sort(batches[i].begin(), batches[i].end());
  }
  const std::vector<double> probes(data.begin(), data.begin() + 64);
  const std::uint32_t prefill_threads = std::min<std::uint32_t>(4, max_threads);
  core::ShardedQuancurrent<double> rq_sharded(4, make_opts());
  bench::ingest_quancurrent(rq_sharded, data, prefill_threads, /*quiesce=*/true);
  const RebuildQuery rq4 = rebuild_query(
      rq_sharded,
      [&](int r) {
        auto& shard = rq_sharded.shard(static_cast<std::uint32_t>(r) % 4);
        shard.enqueue_batch(batches[static_cast<std::size_t>(r) % batches.size()]);
        shard.drain_installs();
      },
      kRounds, probes);
  core::Quancurrent<double> rq_single(make_opts());
  bench::ingest_quancurrent(rq_single, data, prefill_threads, /*quiesce=*/true);
  const RebuildQuery rq1 = rebuild_query(
      rq_single,
      [&](int r) {
        rq_single.enqueue_batch(batches[static_cast<std::size_t>(r) % batches.size()]);
        rq_single.drain_installs();
      },
      kRounds, probes);
  std::printf("rebuild query (one 2k install per round, %d rounds):\n", kRounds);
  std::printf("  S=4:    refresh p50=%.1fus p90=%.1fus  refresh+quantile+rank p50=%.1fus "
              "p90=%.1fus\n",
              rq4.refresh_p50_us, rq4.refresh_p90_us, rq4.query_p50_us, rq4.query_p90_us);
  std::printf("  single: refresh p50=%.1fus p90=%.1fus  refresh+quantile+rank p50=%.1fus "
              "p90=%.1fus\n",
              rq1.refresh_p50_us, rq1.refresh_p90_us, rq1.query_p50_us, rq1.query_p90_us);

  json.counter("single_at_max_threads", single_at_max);
  json.counter("sharded4_at_max_threads", sharded4_at_max);
  json.counter("sharded4_speedup", sharded4_at_max / single_at_max);
  json.counter("mixed_update_tput", mixed.update_throughput);
  json.counter("mixed_query_tput", mixed.query_throughput);
  json.counter("rebuild_refresh_p50_us_s4", rq4.refresh_p50_us);
  json.counter("rebuild_refresh_p90_us_s4", rq4.refresh_p90_us);
  json.counter("rebuild_query_p50_us_s4", rq4.query_p50_us);
  json.counter("rebuild_query_p90_us_s4", rq4.query_p90_us);
  json.counter("rebuild_refresh_p50_us_single", rq1.refresh_p50_us);
  json.counter("rebuild_refresh_p90_us_single", rq1.refresh_p90_us);
  json.counter("rebuild_query_p50_us_single", rq1.query_p50_us);
  json.counter("rebuild_query_p90_us_single", rq1.query_p90_us);

  const std::string dir = bench::json_out_dir();
  if (!dir.empty()) {
    const std::string path = dir + "/BENCH_sharded.json";
    if (json.write_file(path)) std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
