#include <algorithm>
#include <span>

#include "qc_test.hpp"
#include "sequential/quantiles_sketch.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

using qc::stream::Distribution;

QC_TEST(sample_odd_or_even_halves) {
  const std::vector<double> v{0, 1, 2, 3, 4, 5};
  std::vector<double> even, odd;
  qc::sequential::sample_odd_or_even(std::span<const double>(v), false, even);
  qc::sequential::sample_odd_or_even(std::span<const double>(v), true, odd);
  CHECK(even == (std::vector<double>{0, 2, 4}));
  CHECK(odd == (std::vector<double>{1, 3, 5}));
}

QC_TEST(small_stream_is_exact) {
  // Below 2k elements nothing is compacted, so queries are exact.
  qc::sequential::QuantilesSketch<double> sk(64);
  for (int i = 0; i < 100; ++i) sk.update(static_cast<double>(i));
  CHECK_EQ(sk.size(), 100u);
  CHECK_EQ(sk.retained(), 100u);
  CHECK_EQ(sk.rank(50.0), 50u);
  CHECK_NEAR(sk.quantile(0.5), 49.0, 1.0);
  CHECK_NEAR(sk.cdf(25.0), 0.25, 1e-9);
}

QC_TEST(weight_is_conserved_across_compactions) {
  const std::uint32_t k = 64;
  qc::sequential::QuantilesSketch<double> sk(k);
  const auto data = qc::stream::make_stream(Distribution::kUniform, 50'000, 3);
  for (const double v : data) sk.update(v);
  CHECK_EQ(sk.size(), 50'000u);
  // rank(+inf) must equal the total weight, i.e. the stream length.
  CHECK_EQ(sk.rank(1e18), 50'000u);
  // Compaction keeps at most 2k in the base plus k per level.
  CHECK(sk.retained() < 4 * k + 2 * k * 12);
  CHECK(sk.retained() < sk.size());
}

QC_TEST(rank_error_within_eps_bound_k256_n1e5) {
  // The ISSUE's acceptance experiment: k=256, n=1e5, uniform stream.  The
  // KLL-style ladder's expected normalized rank error is O(1/k); with k=256
  // and fixed seeds the observed max error over a 99-point phi grid is
  // ~0.004, so 10/k = 0.039 gives deterministic headroom.
  const std::uint32_t k = 256;
  const std::uint64_t n = 100'000;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 11);
  qc::sequential::QuantilesSketch<double> sk(k);
  for (const double v : data) sk.update(v);
  qc::stream::ExactQuantiles<double> exact(std::move(data));

  const double bound = 10.0 / static_cast<double>(k);
  double max_err = 0.0;
  for (int i = 1; i < 100; ++i) {
    const double phi = static_cast<double>(i) / 100.0;
    max_err = std::max(max_err, exact.rank_error(sk.quantile(phi), phi));
  }
  CHECK(max_err <= bound);
}

QC_TEST(sorted_adversarial_stream_stays_accurate) {
  const std::uint32_t k = 256;
  auto data = qc::stream::make_stream(Distribution::kSorted, 100'000, 1);
  qc::sequential::QuantilesSketch<double> sk(k);
  for (const double v : data) sk.update(v);
  qc::stream::ExactQuantiles<double> exact(std::move(data));
  for (const double phi : {0.1, 0.5, 0.9}) {
    CHECK(exact.rank_error(sk.quantile(phi), phi) <= 10.0 / static_cast<double>(k));
  }
}

QC_TEST_MAIN()
