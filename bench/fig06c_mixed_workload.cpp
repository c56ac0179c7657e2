// Figure 6c: mixed update/query workload.
// Paper parameters: 1 or 2 update threads, a sweep of query threads,
// k = 1024, b = 16, 10M updates after a 10M prefill.  Shows how updates and
// queries interfere: installs force queriers off the O(1) incremental
// refresh path onto tritmap-diff re-references, and snapshot retries/holes
// appear as installs race refreshes.
//
// Reports both throughputs plus refresh p50/p99 and hole/retry counts via
// the bench_util mixed-workload stats.
//
// Env: QC_SCALE/QC_KEYS/QC_RUNS/QC_MAX_THREADS, QC_K, QC_B.
#include <algorithm>
#include <cstdio>

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

  std::printf("=== Figure 6c: mixed update/query workload ===\n");
  std::printf("k=%u b=%u prefill=%llu updates=%llu\n\n", k, b,
              static_cast<unsigned long long>(scale.keys),
              static_cast<unsigned long long>(scale.keys));

  const auto prefill = stream::make_stream(stream::Distribution::kUniform, scale.keys, 3);
  const auto updates = stream::make_stream(stream::Distribution::kUniform, scale.keys, 4);

  Table t({"upd", "qry", "rho", "update/s", "query/s", "p50_us", "p99_us", "holes",
           "retries"});
  for (std::uint32_t upd : {1u, 2u}) {
    for (std::uint32_t rho : {1u, 2u}) {
      for (std::uint32_t qry : {1u, 2u, 4u, 8u, 16u, 32u}) {
        if (upd + qry > scale.max_threads + 2) continue;
        core::Options o;
        o.k = k;
        o.b = b;
        o.rho = rho;
        o.collect_stats = true;
        o.topology = numa::Topology::virtual_nodes(4, 8);
        core::Quancurrent<double> sk(o);
        bench::ingest_quancurrent(sk, prefill,
                                  std::min<std::uint32_t>(8, scale.max_threads),
                                  /*quiesce=*/true);
        const auto r = bench::run_mixed(sk, updates, upd, qry);
        t.add_row({Table::integer(upd), Table::integer(qry), Table::integer(rho),
                   Table::mops(r.update_throughput), Table::mops(r.query_throughput),
                   Table::num(r.refresh_p50_us, 3), Table::num(r.refresh_p99_us, 3),
                   Table::integer(r.holes), Table::integer(r.query_retries)});
      }
    }
  }
  t.print();
  std::printf("\npaper shape: more update threads depress query throughput and vice\n"
              "versa; rho > 1 keeps ingestion (and thus interference) flowing.\n");
  return 0;
}
