// Public API walkthrough — the README example, kept compiling.
//
// Deliberately includes ONLY the umbrella header: this TU is also the
// header-hygiene check (qc.hpp must be self-contained), compiled standalone
// by CI in addition to being built and run as example_public_api.
#include "qc.hpp"

#include <cstdio>
#include <vector>

int main() {
  // --- 1. A single concurrent sketch with per-thread RAII handles. --------
  qc::Options opts;
  opts.k = 256;
  // Options are validated, not silently rewritten: validate() lists every
  // adjustment normalize() would make (construction applies the same list).
  opts.b = 24;  // does not divide 2k = 512
  for (const auto& a : opts.validate()) {
    std::printf("adjustment: %s %llu -> %llu (%s)\n", a.field,
                static_cast<unsigned long long>(a.from),
                static_cast<unsigned long long>(a.to), a.rule);
  }
  qc::Quancurrent<double> sketch(opts);
  {
    qc::UpdaterHandle updater(sketch, /*thread_index=*/0);
    for (int i = 0; i < 100'000; ++i) updater.update(static_cast<double>(i % 1000));
  }  // handle scope ends -> remainder drained, all updates query-visible
  sketch.quiesce();
  qc::QuerierHandle querier(sketch);
  std::printf("single sketch: n=%llu median~%.1f p99~%.1f\n",
              static_cast<unsigned long long>(querier.size()), querier.quantile(0.5),
              querier.quantile(0.99));

  // --- 2. Merge: fold one sketch into another (per-tenant -> global). ----
  qc::Quancurrent<double> other(opts);
  {
    qc::UpdaterHandle updater(other);
    for (int i = 0; i < 50'000; ++i) updater.update(1000.0 + i % 1000);
  }
  other.quiesce();
  other.merge_into(sketch);  // wait-free for queriers on both sketches
  querier.refresh();
  std::printf("after merge:   n=%llu p90~%.1f\n",
              static_cast<unsigned long long>(querier.size()), querier.quantile(0.9));

  // --- 3. Binary serde: ship a summary across processes. ------------------
  const std::vector<std::byte> blob = qc::to_bytes(sketch);
  auto revived = qc::Quancurrent<double>::deserialize(blob);
  std::printf("serde:         %zu bytes, revived n=%llu, median match=%s\n", blob.size(),
              static_cast<unsigned long long>(revived->size()),
              revived->quantile(0.5) == sketch.quantile(0.5) ? "yes" : "no");

  // --- 4. The sequential engine models the same concept. ------------------
  static_assert(qc::QuantileSketch<qc::Quancurrent<double>>);
  static_assert(qc::QuantileSketch<qc::QuantilesSketch<double>>);
  qc::QuantilesSketch<double> seq(256);
  for (int i = 0; i < 10'000; ++i) seq.update(static_cast<double>(i));
  qc::QuantilesSketch<double> seq2(256);
  seq.merge_into(seq2);
  std::printf("sequential:    merged n=%llu median~%.1f\n",
              static_cast<unsigned long long>(seq2.size()), seq2.quantile(0.5));

  // --- 5. Sharded serving facade: scale past one sketch's knee. -----------
  qc::ShardedQuancurrent<double> sharded(/*shards=*/4, opts);
  {
    auto u0 = sharded.make_updater(0);  // thread-affinity routed to shard 0
    auto u1 = sharded.make_updater(1);  // ... shard 1
    for (int i = 0; i < 40'000; ++i) {
      u0.update(static_cast<double>(i % 500));
      u1.update(static_cast<double>(500 + i % 500));
    }
  }
  sharded.quiesce();
  auto sharded_q = sharded.make_querier();  // answers from all shards' runs
  std::printf("sharded (S=4): n=%llu median~%.1f\n",
              static_cast<unsigned long long>(sharded_q.size()), sharded_q.quantile(0.5));
  return 0;
}
