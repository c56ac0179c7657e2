// Extension E1: classic quantiles sketch vs. KLL at equal k.
// Context: the paper builds Quancurrent on the classic (Agarwal et al.)
// sketch; KLL is its modern successor (geometrically shrinking compactors)
// and DataSketches' recommended default, but has no concurrent variant —
// the gap Quancurrent's architecture targets.  This bench quantifies what
// switching the substrate would buy: retained space, accuracy, and
// single-thread update cost.
//
// Env: QC_SCALE/QC_KEYS/QC_RUNS.
#include <cstdio>
#include <string>

#include "bench_util/harness.hpp"
#include "common/env.hpp"
#include "common/fmt_table.hpp"
#include "common/timer.hpp"
#include "sequential/kll_sketch.hpp"
#include "sequential/quantiles_sketch.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

namespace {

struct Row {
  std::size_t retained;
  double max_err;
  double tput;
};

template <class Sketch>
Row measure(Sketch& sk, const std::vector<double>& data) {
  qc::Timer timer;
  for (double x : data) sk.update(x);
  const double secs = timer.seconds();
  qc::stream::ExactQuantiles<double> exact{std::vector<double>(data)};
  double max_err = 0;
  for (double phi = 0.05; phi <= 0.951; phi += 0.05) {
    max_err = std::max(max_err, exact.rank_error(sk.quantile(phi), phi));
  }
  return {sk.retained(), max_err, qc::throughput(data.size(), secs)};
}

}  // namespace

int main() {
  using namespace qc;
  const auto scale = env::bench_scale();

  std::printf("=== Extension E1: classic vs KLL quantiles (sequential) ===\n");
  std::printf("n=%llu uniform stream\n\n", static_cast<unsigned long long>(scale.keys));

  const auto data = stream::make_stream(stream::Distribution::kUniform, scale.keys, 77);

  bench::JsonKv kv("ext_kll_compare", scale.name);
  Table t({"k", "classic_retained", "kll_retained", "classic_maxerr", "kll_maxerr",
           "classic_tput", "kll_tput"});
  for (std::uint32_t k : {64u, 256u, 1024u, 4096u}) {
    sequential::QuantilesSketch<double> classic(k);
    sequential::KllSketch<double> kll(k);
    const Row rc = measure(classic, data);
    const Row rk = measure(kll, data);
    t.add_row({Table::integer(k), Table::integer(rc.retained), Table::integer(rk.retained),
               Table::num(rc.max_err, 5), Table::num(rk.max_err, 5), Table::mops(rc.tput),
               Table::mops(rk.tput)});
    const std::string prefix = "k" + std::to_string(k);
    kv.add(prefix + "_classic_mops", rc.tput / 1e6);
    kv.add(prefix + "_kll_mops", rk.tput / 1e6);
    kv.add(prefix + "_classic_retained", static_cast<double>(rc.retained));
    kv.add(prefix + "_kll_retained", static_cast<double>(rk.retained));
    kv.add(prefix + "_classic_maxerr", rc.max_err);
    kv.add(prefix + "_kll_maxerr", rk.max_err);
  }
  t.print();
  const std::string json_dir = bench::json_out_dir();
  if (!json_dir.empty()) {
    const std::string path = json_dir + "/BENCH_kll.json";
    if (kv.write_file(path)) std::printf("wrote %s\n", path.c_str());
  }
  std::printf("\nexpected: KLL retains a near-constant ~3k elements vs classic's\n"
              "k*popcount(n/2k); accuracy at equal k is the same order.\n");
  return 0;
}
