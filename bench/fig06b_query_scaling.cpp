// Figure 6b: query-only throughput vs. number of query threads.
// Paper parameters: k = 4096, b = 16; 10M elements pre-filled, then queries
// from up to 32 threads; linear scaling to 30x the sequential sketch.
//
// Each Quancurrent query is a snapshot refresh plus a quantile: refresh is
// the incremental tritmap-diff path (O(1) on a quiesced sketch).  A querier
// answers its first few quantiles straight from the snapshot's sorted runs,
// then merges the snapshot into a prefix-weight summary once and answers
// every later query with a binary search over it.  The sequential baseline
// answers from the same binary-searched summary representation, queried
// from one thread.
//
// Reports queries/sec, refresh p50/p99, and hole/retry counts via the
// bench_util query stats; writes BENCH_query.json when QC_BENCH_JSON is set.
//
// Env: QC_SCALE/QC_KEYS/QC_RUNS/QC_MAX_THREADS, QC_K, QC_B, QC_QUERIES,
// QC_BENCH_JSON.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util/harness.hpp"
#include "bench_util/workload.hpp"
#include "common/env.hpp"
#include "common/fmt_table.hpp"
#include "stream/generators.hpp"

int main() {
  using namespace qc;
  const auto scale = env::bench_scale();
  const std::uint32_t k = static_cast<std::uint32_t>(env::get_u64("QC_K", 4096));
  const std::uint32_t b = static_cast<std::uint32_t>(env::get_u64("QC_B", 16));
  const std::uint64_t total_queries = env::get_u64("QC_QUERIES", scale.keys);

  std::printf("=== Figure 6b: query-only throughput ===\n");
  std::printf("k=%u b=%u prefill=%llu queries=%llu (paper: 30x sequential at 32)\n\n", k, b,
              static_cast<unsigned long long>(scale.keys),
              static_cast<unsigned long long>(total_queries));

  core::Options o;
  o.k = k;
  o.b = b;
  o.collect_stats = true;
  o.topology = numa::Topology::virtual_nodes(4, 8);
  core::Quancurrent<double> sk(o);
  const auto data = stream::make_stream(stream::Distribution::kUniform, scale.keys, 11);
  bench::ingest_quancurrent(sk, data, std::min<std::uint32_t>(8, scale.max_threads),
                            /*quiesce=*/true);

  // Sequential baseline: one sketch queried from one thread.
  sequential::QuantilesSketch<double> seq(k);
  for (double x : data) seq.update(x);
  (void)seq.quantile(0.5);  // build the lazy summary outside the timed loop
  const std::uint64_t seq_queries = std::max<std::uint64_t>(total_queries / 100, 100);
  Timer seq_timer;
  double phi = 0.001;
  for (std::uint64_t i = 0; i < seq_queries; ++i) {
    (void)seq.quantile(phi);
    phi += 0.001;
    if (phi >= 1.0) phi = 0.001;
  }
  const double seq_tput = throughput(seq_queries, seq_timer.seconds());

  bench::JsonSeries json("fig06b_query_scaling", scale.name, "queries_per_sec");
  Table t({"threads", "queries/s", "speedup", "p50_us", "p99_us", "holes", "retries"});
  for (std::uint32_t threads : bench::thread_sweep(scale.max_threads)) {
    // Every column aggregates the same scale.runs runs: throughput and
    // latency percentiles are averaged, hole/retry counters summed.
    double qps = 0.0, p50 = 0.0, p99 = 0.0;
    std::uint64_t holes = 0, retries = 0;
    const std::uint32_t runs = std::max(scale.runs, 1u);
    for (std::uint32_t r = 0; r < runs; ++r) {
      const auto stats = bench::run_query_load(sk, threads, total_queries / threads);
      qps += stats.queries_per_sec / runs;
      p50 += stats.refresh_p50_us / runs;
      p99 += stats.refresh_p99_us / runs;
      holes += stats.holes;
      retries += stats.query_retries;
    }
    json.add(threads, qps);
    t.add_row({Table::integer(threads), Table::mops(qps),
               Table::num(qps / seq_tput, 2) + "x", Table::num(p50, 3),
               Table::num(p99, 3), Table::integer(holes), Table::integer(retries)});
  }
  t.print();
  std::printf("sequential baseline: %s\n", Table::mops(seq_tput).c_str());

  const std::string dir = bench::json_out_dir();
  if (!dir.empty()) {
    const std::string path = dir + "/BENCH_query.json";
    if (json.write_file(path)) std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
