// Figure 6a: update-only throughput vs. number of update threads.
// Paper parameters: k = 4096, b = 16, 10M elements; Quancurrent scales
// linearly, reaching 12x the sequential sketch at 32 threads.  The
// sequential baseline presorts and compacts through the engine's own
// kernels (core/run_merge.hpp presort and merge_compact), so one updater
// ingests about as fast as it and the speedup column measures concurrency.
//
// Writes BENCH_ingest.json when QC_BENCH_JSON is set.
//
// Env: QC_SCALE/QC_KEYS/QC_RUNS/QC_MAX_THREADS, QC_K, QC_B, QC_BENCH_JSON.
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

  std::printf("=== Figure 6a: update-only throughput ===\n");
  std::printf("k=%u b=%u n=%llu runs=%u (paper: 12x sequential at 32 threads)\n\n", k, b,
              static_cast<unsigned long long>(scale.keys), scale.runs);

  const auto data = stream::make_stream(stream::Distribution::kUniform, scale.keys, 7);

  // Sequential baseline.
  const double seq_tput = bench::average_runs(scale.runs, [&] {
    sequential::QuantilesSketch<double> seq(k);
    return throughput(data.size(), bench::ingest_sequential(seq, data));
  });

  bench::JsonSeries json("fig06a_update_scaling", scale.name, "ops_per_sec");
  Table t({"threads", "quancurrent", "sequential", "speedup", "waits"});
  core::Stats last_stats;
  double last_updater_ns = 0.0;  // threads x wall time of the last run
  for (std::uint32_t threads : bench::thread_sweep(scale.max_threads)) {
    core::Stats run_stats;
    double run_updater_ns = 0.0;
    const double tput = bench::average_runs(scale.runs, [&] {
      core::Options o;
      o.k = k;
      o.b = b;
      o.collect_stats = true;
      o.topology = numa::Topology::virtual_nodes(4, 8);
      core::Quancurrent<double> sk(o);
      const double secs = bench::ingest_quancurrent(sk, data, threads);
      run_stats = sk.stats();
      run_updater_ns = secs * 1e9 * threads;
      return throughput(data.size(), secs);
    });
    last_stats = run_stats;  // contention profile at the widest thread count
    last_updater_ns = run_updater_ns;
    json.add(threads, tput);
    t.add_row({Table::integer(threads), Table::mops(tput), Table::mops(seq_tput),
               Table::num(tput / seq_tput, 2) + "x",
               Table::integer(run_stats.gather_waits + run_stats.latch_spins)});
  }
  t.print();
  // Share of the updaters' time spent waiting for a gather ordinal to reopen.
  const double wait_share =
      last_updater_ns > 0.0 ? static_cast<double>(last_stats.gather_wait_ns) / last_updater_ns
                            : 0.0;
  std::printf("\ncontention @ max threads: gather_waits=%llu gather_wait_ns=%llu "
              "(%.1f%% of updater time) latch_spins=%llu installs=%llu batches=%llu\n",
              static_cast<unsigned long long>(last_stats.gather_waits),
              static_cast<unsigned long long>(last_stats.gather_wait_ns), 100.0 * wait_share,
              static_cast<unsigned long long>(last_stats.latch_spins),
              static_cast<unsigned long long>(last_stats.installs),
              static_cast<unsigned long long>(last_stats.batches));
  // Install latch: the mean hold per install (one batch and its cascade
  // each) and the share of updater time spent holding it.
  const double hold_ns =
      last_stats.latch_holds > 0 ? static_cast<double>(last_stats.latch_hold_total_ns) /
                                       static_cast<double>(last_stats.latch_holds)
                                 : 0.0;
  const double hold_share =
      last_updater_ns > 0.0
          ? static_cast<double>(last_stats.latch_hold_total_ns) / last_updater_ns
          : 0.0;
  std::printf("install latch: %.1f us held per install (%llu holds, %.1f%% of updater "
              "time)\n",
              hold_ns / 1e3, static_cast<unsigned long long>(last_stats.latch_holds),
              100.0 * hold_share);
  json.counter("gather_waits", static_cast<double>(last_stats.gather_waits));
  json.counter("gather_wait_ns", static_cast<double>(last_stats.gather_wait_ns));
  json.counter("latch_spins", static_cast<double>(last_stats.latch_spins));
  json.counter("installs", static_cast<double>(last_stats.installs));
  json.counter("batches", static_cast<double>(last_stats.batches));
  json.counter("latch_hold_ns_per_install", hold_ns);

  const std::string dir = bench::json_out_dir();
  if (!dir.empty()) {
    const std::string path = dir + "/BENCH_ingest.json";
    if (json.write_file(path)) std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
