// Figure 7c: throughput while varying ρ, the number of Gather&Sort buffers
// rotating per NUMA node.  ρ = 1 means every batch owner blocks ingestion
// into its buffer until Gather&Sort finishes; larger ρ lets writers roll to
// the next buffer while the owner merges, trading memory (ρ·nodes·2k items)
// for fewer gather waits.  Reported per ρ: update-only throughput, gather
// waits per batch, and mixed-workload update/query throughput.
//
// Writes BENCH_rho.json when QC_BENCH_JSON is set.
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
  const std::uint32_t k = static_cast<std::uint32_t>(env::get_u64("QC_K", 1024));
  const std::uint32_t b = static_cast<std::uint32_t>(env::get_u64("QC_B", 16));
  const std::uint32_t upd = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(env::get_u64("QC_UPD_THREADS", 8)), scale.max_threads);
  const std::uint32_t qry = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(env::get_u64("QC_QRY_THREADS", 4)), scale.max_threads);

  std::printf("=== Figure 7c: throughput vs rho (Gather&Sort buffers per node) ===\n");
  std::printf("k=%u b=%u upd=%u qry=%u n=%llu runs=%u\n\n", k, b, upd, qry,
              static_cast<unsigned long long>(scale.keys), scale.runs);

  const auto data = stream::make_stream(stream::Distribution::kUniform, scale.keys, 9);

  bench::JsonSeries json("fig07c_vary_rho", scale.name, "update_ops_per_sec_vs_rho");
  Table t({"rho", "update_tput", "waits/batch", "mixed_upd", "mixed_qry", "holes"});
  for (std::uint32_t rho : {1u, 2u, 3u, 4u, 6u, 8u}) {
    core::Stats upd_stats;
    const double upd_tput = bench::average_runs(scale.runs, [&] {
      core::Options o;
      o.k = k;
      o.b = b;
      o.rho = rho;
      o.collect_stats = true;
      o.topology = numa::Topology::virtual_nodes(4, 8);
      core::Quancurrent<double> sk(o);
      const double secs = bench::ingest_quancurrent(sk, data, upd);
      upd_stats = sk.stats();
      return throughput(data.size(), secs);
    });

    core::Options o;
    o.k = k;
    o.b = b;
    o.rho = rho;
    o.collect_stats = true;
    o.topology = numa::Topology::virtual_nodes(4, 8);
    core::Quancurrent<double> sk(o);
    const auto mixed = bench::run_mixed(sk, data, upd, qry);

    const double waits_per_batch =
        upd_stats.batches == 0 ? 0.0
                               : static_cast<double>(upd_stats.gather_waits) /
                                     static_cast<double>(upd_stats.batches);
    json.add(rho, upd_tput);
    t.add_row({Table::integer(rho), Table::mops(upd_tput),
               Table::num(waits_per_batch, 3), Table::mops(mixed.update_throughput),
               Table::mops(mixed.query_throughput), Table::integer(mixed.holes)});
    if (rho == 1 || rho == 8) {
      const std::string tag = "rho" + std::to_string(rho);
      json.counter(tag + "_gather_waits", static_cast<double>(upd_stats.gather_waits));
      json.counter(tag + "_gather_wait_ns", static_cast<double>(upd_stats.gather_wait_ns));
      json.counter(tag + "_batches", static_cast<double>(upd_stats.batches));
    }
  }
  t.print();
  std::printf("\npaper shape: gather waits fall as rho grows; throughput rises until "
              "buffers stop being the bottleneck.\n");

  const std::string dir = bench::json_out_dir();
  if (!dir.empty()) {
    const std::string path = dir + "/BENCH_rho.json";
    if (json.write_file(path)) std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
