// Figure 8: standard error of the estimate in a quiescent state.
// Paper parameters: 1M keys, 1000 runs, k up to 4096, b ∈ {8, 16, 32},
// 8 and 32 threads, against the sequential sketch.  Quancurrent's error
// matches the sequential sketch at equal k and shrinks with k.
//
// The statistic: per run, measure the normalized rank error of query(φ)
// over a φ grid; report the RMS error across runs × φ (×10^4 for
// readability).  Runs use distinct stream seeds.
//
// Env: QC_SCALE (keys default 1M at "small" via QC_KEYS), QC_RUNS
// (default: scale runs × 4 — this figure needs repetitions), QC_MAX_THREADS.
#include <cmath>
#include <cstdio>

#include "bench_util/harness.hpp"
#include "bench_util/workload.hpp"
#include "common/env.hpp"
#include "common/fmt_table.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

namespace {

double rms_rank_error_quancurrent(std::uint32_t k, std::uint32_t b, std::uint32_t threads,
                                  std::uint64_t keys, std::uint32_t runs) {
  using namespace qc;
  double sum_sq = 0;
  std::size_t count = 0;
  for (std::uint32_t r = 0; r < runs; ++r) {
    core::Options o;
    o.k = k;
    o.b = b;
    o.seed = 1000 + r;
    o.topology = numa::Topology::virtual_nodes(4, 8);
    core::Quancurrent<double> sk(o);
    auto data = stream::make_stream(stream::Distribution::kUniform, keys, 5000 + r);
    // Quiescent WITHOUT drain: drain()'s padding duplicates (up to 2k per
    // G&S buffer) would dominate the measurement at large k.  The
    // unpropagated tail of an i.i.d. stream is an unbiased truncation —
    // exactly the paper's quiescent-query setting.
    bench::ingest_quancurrent(sk, data, threads, /*quiesce=*/false);
    stream::ExactQuantiles<double> exact(std::move(data));
    auto q = sk.make_querier();
    q.refresh();
    for (double phi = 0.1; phi <= 0.91; phi += 0.1) {
      const double err = exact.rank_error(q.quantile(phi), phi);
      sum_sq += err * err;
      ++count;
    }
  }
  return std::sqrt(sum_sq / static_cast<double>(count));
}

double rms_rank_error_sequential(std::uint32_t k, std::uint64_t keys, std::uint32_t runs) {
  using namespace qc;
  double sum_sq = 0;
  std::size_t count = 0;
  for (std::uint32_t r = 0; r < runs; ++r) {
    sequential::QuantilesSketch<double> sk(k, 2000 + r);
    auto data = stream::make_stream(stream::Distribution::kUniform, keys, 5000 + r);
    for (double x : data) sk.update(x);
    stream::ExactQuantiles<double> exact(std::move(data));
    for (double phi = 0.1; phi <= 0.91; phi += 0.1) {
      const double err = exact.rank_error(sk.quantile(phi), phi);
      sum_sq += err * err;
      ++count;
    }
  }
  return std::sqrt(sum_sq / static_cast<double>(count));
}

}  // namespace

int main() {
  using namespace qc;
  const auto scale = env::bench_scale();
  const std::uint64_t keys = std::min<std::uint64_t>(scale.keys, 1'000'000);
  const std::uint32_t runs = static_cast<std::uint32_t>(
      env::get_u64("QC_RUNS", std::max<std::uint64_t>(scale.runs, 5)));

  std::printf("=== Figure 8: standard error in quiescent state ===\n");
  std::printf("keys=%llu runs=%u (rank RMS error x 1e4; paper: matches sequential)\n\n",
              static_cast<unsigned long long>(keys), runs);

  for (std::uint32_t threads : {8u, 32u}) {
    const std::uint32_t th = std::min(threads, scale.max_threads);
    std::printf("-- %u update threads (requested %u) --\n", th, threads);
    Table t({"k", "sequential", "b=8", "b=16", "b=32"});
    for (std::uint32_t k : {256u, 1024u, 4096u}) {
      std::vector<std::string> row{Table::integer(k)};
      row.push_back(Table::num(rms_rank_error_sequential(k, keys, runs) * 1e4, 2));
      for (std::uint32_t b : {8u, 16u, 32u}) {
        row.push_back(Table::num(rms_rank_error_quancurrent(k, b, th, keys, runs) * 1e4, 2));
      }
      t.add_row(std::move(row));
    }
    t.print();
    std::printf("\n");
  }
  std::printf("paper shape: error falls with k; Quancurrent ~= sequential; b immaterial.\n");
  return 0;
}
