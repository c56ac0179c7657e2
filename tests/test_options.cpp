// Options::validate() / normalize(): every clamp rule reports the rewrite it
// makes, validate() is side-effect free, and normalized options are a fixed
// point (no adjustments on re-normalize).
#include <string>

#include "core/options.hpp"
#include "qc_test.hpp"

namespace {

// True when `log` contains an adjustment of `field` landing on `to`.
bool adjusted_to(const std::vector<qc::core::Options::Adjustment>& log,
                 const std::string& field, std::uint64_t to) {
  for (const auto& a : log) {
    if (field == a.field && a.to == to) return true;
  }
  return false;
}

}  // namespace

QC_TEST(defaults_are_already_normalized) {
  qc::core::Options o;
  // install_queue = 0 is the documented auto request, sized silently — the
  // defaults produce no adjustment reports at all.
  CHECK(o.validate().empty());
  o.normalize();
  CHECK_EQ(o.install_queue, 8u);  // auto-sizing still happened
  CHECK(o.validate().empty());
  CHECK(o.normalize().empty());
}

QC_TEST(validate_is_side_effect_free) {
  qc::core::Options o;
  o.k = 0;
  o.b = 33;
  o.rho = 0;
  const auto log = o.validate();
  CHECK(!log.empty());
  CHECK_EQ(o.k, 0u);  // untouched
  CHECK_EQ(o.b, 33u);
  CHECK_EQ(o.rho, 0u);
}

QC_TEST(k_clamps_up_to_two) {
  for (std::uint32_t k : {0u, 1u}) {
    qc::core::Options o;
    o.k = k;
    const auto log = o.normalize();
    CHECK_EQ(o.k, 2u);
    CHECK(adjusted_to(log, "k", 2));
  }
}

QC_TEST(k_clamps_down_to_max) {
  // 2k of an unclamped 2^31 would overflow the 32-bit batch arithmetic
  // (historically a SIGFPE in the b-divisor loop via untrusted serde input).
  qc::core::Options o;
  o.k = 0x80000000u;
  const auto log = o.normalize();
  CHECK_EQ(o.k, qc::core::Options::kMaxK);
  CHECK(adjusted_to(log, "k", qc::core::Options::kMaxK));
  CHECK(o.validate().empty());
}

QC_TEST(rho_clamps_up_to_one) {
  qc::core::Options o;
  o.rho = 0;
  const auto log = o.normalize();
  CHECK_EQ(o.rho, 1u);
  CHECK(adjusted_to(log, "rho", 1));
}

QC_TEST(b_zero_clamps_to_one) {
  qc::core::Options o;
  o.b = 0;
  const auto log = o.normalize();
  CHECK_EQ(o.b, 1u);
  CHECK(adjusted_to(log, "b", 1));
}

QC_TEST(b_clamps_down_to_batch_size) {
  qc::core::Options o;
  o.k = 8;    // 2k = 16
  o.b = 999;  // > 2k
  const auto log = o.normalize();
  CHECK_EQ(o.b, 16u);
  CHECK(adjusted_to(log, "b", 16));
}

QC_TEST(b_clamps_down_to_nearest_divisor) {
  qc::core::Options o;
  o.k = 100;  // 2k = 200
  o.b = 33;   // largest divisor of 200 that is <= 33 is 25
  const auto log = o.normalize();
  CHECK_EQ(o.b, 25u);
  CHECK(adjusted_to(log, "b", 25));
  CHECK_EQ((2 * o.k) % o.b, 0u);
}

QC_TEST(size_driving_fields_clamp_to_caps) {
  // install_queue > 2^31 used to overflow the power-of-two doubling loop
  // into an infinite spin; rho/nodes had no cap at all.  All three now clamp
  // (and report), which is also what lets deserialize reject crafted blobs.
  qc::core::Options o;
  o.install_queue = 3'000'000'000u;
  o.rho = 0xFFFFFFFFu;
  o.topology.nodes = 4'000'000'000u;
  const auto log = o.normalize();
  CHECK_EQ(o.install_queue, qc::core::Options::kMaxInstallQueue);
  CHECK_EQ(o.rho, qc::core::Options::kMaxRho);
  CHECK_EQ(o.topology.nodes, qc::core::Options::kMaxNodes);
  CHECK(adjusted_to(log, "install_queue", qc::core::Options::kMaxInstallQueue));
  CHECK(adjusted_to(log, "rho", qc::core::Options::kMaxRho));
  CHECK(adjusted_to(log, "topology.nodes", qc::core::Options::kMaxNodes));
  CHECK(o.validate().empty());
}

QC_TEST(ibr_frequencies_clamp_into_range) {
  // Zero cadences would disable reclamation entirely (never advance the
  // epoch / never scan); cadences past kMaxIbrFreq are equally pathological
  // in the other direction.  Both ends clamp and report.
  qc::core::Options lo;
  lo.ibr_epoch_freq = 0;
  lo.ibr_recl_freq = 0;
  const auto llog = lo.normalize();
  CHECK_EQ(lo.ibr_epoch_freq, 1u);
  CHECK_EQ(lo.ibr_recl_freq, 1u);
  CHECK(adjusted_to(llog, "ibr_epoch_freq", 1));
  CHECK(adjusted_to(llog, "ibr_recl_freq", 1));

  qc::core::Options hi;
  hi.ibr_epoch_freq = 0xFFFFFFFFu;
  hi.ibr_recl_freq = 0xFFFFFFFFu;
  const auto hlog = hi.normalize();
  CHECK_EQ(hi.ibr_epoch_freq, qc::core::Options::kMaxIbrFreq);
  CHECK_EQ(hi.ibr_recl_freq, qc::core::Options::kMaxIbrFreq);
  CHECK(adjusted_to(hlog, "ibr_epoch_freq", qc::core::Options::kMaxIbrFreq));
  CHECK(adjusted_to(hlog, "ibr_recl_freq", qc::core::Options::kMaxIbrFreq));
  CHECK(hi.validate().empty());
}

QC_TEST(retire_cap_clamps_to_one_drain_group_burst) {
  // 0 means "no cap" and passes through untouched; a nonzero cap below
  // kMinRetireCap could trip on a single cascade's retirement burst and
  // is raised to the floor.  The watchdog threshold is a pure duration with
  // no pathological values, so normalize() never touches it.
  qc::core::Options off;
  off.ibr_retire_cap = 0;
  CHECK(off.normalize().empty());
  CHECK_EQ(off.ibr_retire_cap, 0u);

  qc::core::Options tight;
  tight.ibr_retire_cap = 1;
  const auto tlog = tight.normalize();
  CHECK_EQ(tight.ibr_retire_cap, qc::core::Options::kMinRetireCap);
  CHECK(adjusted_to(tlog, "ibr_retire_cap", qc::core::Options::kMinRetireCap));

  qc::core::Options wd;
  wd.latch_watchdog_ns = 1;  // absurdly twitchy, but legal
  CHECK(wd.normalize().empty());
  CHECK_EQ(wd.latch_watchdog_ns, std::uint64_t{1});
}

QC_TEST(serialize_propagation_is_not_a_clamped_field) {
  // The ablation control arm is a pure boolean switch: normalize() neither
  // rewrites nor reports it, in either position.
  qc::core::Options o;
  CHECK(!o.serialize_propagation);
  o.serialize_propagation = true;
  CHECK(o.normalize().empty());
  CHECK(o.serialize_propagation);
}

QC_TEST(install_queue_auto_sizes_and_rounds_up) {
  // Auto (0): 8 cells, sized silently (an auto request is not a
  // misconfiguration to report).
  qc::core::Options a;
  a.install_queue = 0;
  CHECK(a.normalize().empty());
  CHECK_EQ(a.install_queue, 8u);

  // Explicit but not a power of two: rounded up.
  qc::core::Options b;
  b.install_queue = 9;
  CHECK(adjusted_to(b.normalize(), "install_queue", 16));

  // Explicit but below the floor: raised to 8.
  qc::core::Options c;
  c.install_queue = 3;
  CHECK(adjusted_to(c.normalize(), "install_queue", 8));

  // A power of two of at least 8 is untouched.
  qc::core::Options d;
  d.install_queue = 32;
  CHECK(d.normalize().empty());
}

QC_TEST_MAIN()
