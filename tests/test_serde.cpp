// Binary serde: round-trips are bit-identical for both engines, malformed
// input (wrong magic/version/endianness, truncation) is rejected with the
// precise status, and a deserialized sketch keeps ingesting correctly.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "bench_util/workload.hpp"
#include "qc.hpp"
#include "qc_test.hpp"
#include "stream/generators.hpp"

using qc::stream::Distribution;

namespace {

qc::Options small_options(std::uint32_t k, std::uint32_t b) {
  qc::Options o;
  o.k = k;
  o.b = b;
  o.topology = qc::numa::Topology::virtual_nodes(2, 2);
  return o;
}

template <typename S>
std::vector<std::byte> serialize_of(const S& s) {
  std::vector<std::byte> out(s.serialized_size());
  CHECK_EQ(s.serialize(out), out.size());
  return out;
}

// Sequential image layout: k at 12, chunk at 16, n at 24, base_count at 64,
// the base items from 72, then the level count and the levels.
template <typename V>
void append_value(std::vector<std::byte>& image, const V& v) {
  const auto* bytes = reinterpret_cast<const std::byte*>(&v);
  image.insert(image.end(), bytes, bytes + sizeof(v));
}

}  // namespace

QC_TEST(sequential_roundtrip_is_bit_identical) {
  const auto data = qc::stream::make_stream(Distribution::kNormal, 50'000, 3);
  qc::QuantilesSketch<double> sk(128);
  for (double v : data) sk.update(v);

  const auto blob = serialize_of(sk);
  qc::serde::Status st = qc::serde::Status::bad_payload;
  auto back = qc::QuantilesSketch<double>::deserialize(blob, &st);
  CHECK(st == qc::serde::Status::ok);
  CHECK(back.has_value());
  CHECK_EQ(back->size(), sk.size());
  CHECK_EQ(back->retained(), sk.retained());
  CHECK(back->summary() == sk.summary());  // bit-identical summary

  // Continued ingestion matches the source exactly: the rng state shipped,
  // so both sketches flip the same compaction coins from here on.
  for (double v : data) {
    sk.update(v);
    back->update(v);
  }
  CHECK(back->summary() == sk.summary());
}

QC_TEST(concurrent_roundtrip_is_bit_identical) {
  const auto data = qc::stream::make_stream(Distribution::kUniform, 60'000, 5);
  qc::Quancurrent<double> sk(small_options(128, 8));
  qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);

  const auto blob = serialize_of(sk);
  qc::serde::Status st = qc::serde::Status::bad_payload;
  auto back = qc::Quancurrent<double>::deserialize(blob, &st);
  CHECK(st == qc::serde::Status::ok);
  CHECK(back != nullptr);
  CHECK_EQ(back->size(), sk.size());
  CHECK_EQ(back->retained(), sk.retained());
  CHECK(back->tritmap() == sk.tritmap());

  auto q_src = sk.make_querier();
  auto q_back = back->make_querier();
  CHECK(q_src.summary() == q_back.summary());  // bit-identical summary

  // Re-serializing yields the same image, the rng state included.
  CHECK(serialize_of(*back) == blob);

  // Continued ingestion matches the source exactly: both sketches flip the
  // same compaction coins from here on.
  for (double v : data) {
    sk.update(v);
    back->update(v);
  }
  sk.quiesce();
  back->quiesce();
  CHECK(serialize_of(*back) == serialize_of(sk));
}

QC_TEST(concurrent_roundtrip_preserves_tail) {
  // 10 elements never reach an installed batch: all state lives in the tail.
  qc::Quancurrent<double> sk(small_options(128, 8));
  for (int i = 0; i < 10; ++i) sk.update(static_cast<double>(i));
  sk.quiesce();

  auto back = qc::Quancurrent<double>::deserialize(serialize_of(sk));
  CHECK(back != nullptr);
  CHECK_EQ(back->size(), 10u);
  auto q = back->make_querier();
  CHECK_NEAR(q.quantile(1.0), 9.0, 1e-12);
}

QC_TEST(quiesced_serialized_size_matches_serialize_without_the_latch) {
  // serialized_size() sizes the image from the tritmap and the tail length
  // alone; on a quiesced sketch that must be exactly what serialize()
  // writes — empty, tail-only, and multi-level with a tail.
  for (const int n : {0, 10, 60'013}) {
    qc::Quancurrent<double> sk(small_options(64, 8));
    for (int i = 0; i < n; ++i) sk.update(static_cast<double>((i * 7919) % 1000));
    sk.quiesce();
    const std::uint64_t holds = sk.stats().latch_holds;
    const std::size_t size = sk.serialized_size();
    CHECK_EQ(sk.stats().latch_holds, holds);  // the probe took no latch
    std::vector<std::byte> out(size + 64);
    CHECK_EQ(sk.serialize(out), size);
    CHECK_EQ(sk.stats().latch_holds, holds + 1);
  }
}

QC_TEST(to_bytes_matches_manual_serialize) {
  qc::QuantilesSketch<double> sk(64);
  for (int i = 0; i < 5'000; ++i) sk.update(static_cast<double>(i));
  CHECK(qc::to_bytes(sk) == serialize_of(sk));
}

QC_TEST(serialize_fails_cleanly_on_short_output) {
  qc::QuantilesSketch<double> sk(64);
  for (int i = 0; i < 1'000; ++i) sk.update(static_cast<double>(i));
  std::vector<std::byte> tiny(sk.serialized_size() - 1);
  CHECK_EQ(sk.serialize(tiny), 0u);
}

QC_TEST(deserialize_rejects_bad_magic_version_endianness) {
  qc::QuantilesSketch<double> sk(64);
  for (int i = 0; i < 1'000; ++i) sk.update(static_cast<double>(i));
  const auto blob = serialize_of(sk);
  qc::serde::Status st = qc::serde::Status::ok;

  auto corrupted = blob;
  corrupted[0] = std::byte{0x00};  // magic
  CHECK(!qc::QuantilesSketch<double>::deserialize(corrupted, &st).has_value());
  CHECK(st == qc::serde::Status::bad_magic);

  corrupted = blob;
  const std::uint16_t future_version = qc::serde::kVersion + 1;
  std::memcpy(corrupted.data() + 4, &future_version, sizeof(future_version));
  CHECK(!qc::QuantilesSketch<double>::deserialize(corrupted, &st).has_value());
  CHECK(st == qc::serde::Status::bad_version);

  corrupted = blob;
  const std::uint16_t foreign_endianness = 0x0201;  // byte-swapped tag
  std::memcpy(corrupted.data() + 6, &foreign_endianness, sizeof(foreign_endianness));
  CHECK(!qc::QuantilesSketch<double>::deserialize(corrupted, &st).has_value());
  CHECK(st == qc::serde::Status::bad_endianness);

  // Engine mismatch: a sequential image is not a concurrent sketch.
  CHECK(qc::Quancurrent<double>::deserialize(blob, &st) == nullptr);
  CHECK(st == qc::serde::Status::bad_payload);
}

QC_TEST(deserialize_rejects_v3_images) {
  // v4 dropped two concurrent-engine option bytes; a v3 image of either
  // engine is refused by version rather than misread.  The v3 concurrent
  // layout is rebuilt by hand from a v4 image: the chunk-presort flag (u8)
  // sits between rho and collect_stats, the install combining depth (u32)
  // between collect_stats and install_queue.
  const std::uint16_t v3 = 3;
  qc::serde::Status st = qc::serde::Status::ok;

  qc::QuantilesSketch<double> sk(64);
  for (int i = 0; i < 1'000; ++i) sk.update(static_cast<double>(i));
  auto sblob = serialize_of(sk);
  std::memcpy(sblob.data() + 4, &v3, sizeof(v3));
  CHECK(!qc::QuantilesSketch<double>::deserialize(sblob, &st).has_value());
  CHECK(st == qc::serde::Status::bad_version);

  qc::Quancurrent<double> ck(small_options(64, 8));
  for (int i = 0; i < 1'000; ++i) ck.update(static_cast<double>(i));
  ck.quiesce();
  const auto cblob = serialize_of(ck);
  // Header through rho, presort flag, collect_stats, combining depth, then
  // install_queue onwards.
  std::vector<std::byte> old(cblob.begin(), cblob.begin() + 24);
  old.push_back(std::byte{1});
  old.push_back(cblob[24]);
  const std::uint32_t depth = 4;
  const auto* depth_bytes = reinterpret_cast<const std::byte*>(&depth);
  old.insert(old.end(), depth_bytes, depth_bytes + sizeof(depth));
  old.insert(old.end(), cblob.begin() + 25, cblob.end());
  std::memcpy(old.data() + 4, &v3, sizeof(v3));
  CHECK_EQ(old.size(), cblob.size() + 5);
  CHECK(qc::Quancurrent<double>::deserialize(old, &st) == nullptr);
  CHECK(st == qc::serde::Status::bad_version);
}

QC_TEST(deserialize_diagnoses_byte_swapped_image) {
  // A whole-image byte swap (foreign-endian writer) presents the magic in
  // reverse byte order; the reader must diagnose bad_endianness — the
  // actionable error — not bad_magic.  Historically unreachable: the magic
  // comparison ran first and swallowed every swapped image.
  qc::QuantilesSketch<double> sk(64);
  for (int i = 0; i < 100; ++i) sk.update(static_cast<double>(i));
  auto blob = serialize_of(sk);
  std::reverse(blob.begin(), blob.begin() + 4);  // u32 magic, byte-swapped
  qc::serde::Status st = qc::serde::Status::ok;
  CHECK(!qc::QuantilesSketch<double>::deserialize(blob, &st).has_value());
  CHECK(st == qc::serde::Status::bad_endianness);

  qc::Quancurrent<double> ck(small_options(64, 8));
  ck.update(1.0);
  ck.quiesce();
  auto cblob = serialize_of(ck);
  std::reverse(cblob.begin(), cblob.begin() + 4);
  CHECK(qc::Quancurrent<double>::deserialize(cblob, &st) == nullptr);
  CHECK(st == qc::serde::Status::bad_endianness);
}

QC_TEST(concurrent_roundtrip_preserves_ibr_options) {
  qc::Options o = small_options(64, 8);
  o.serialize_propagation = true;
  o.ibr_epoch_freq = 7;
  o.ibr_recl_freq = 9;
  o.ibr_retire_cap = 128;        // serde v4 offsets 38 and 42
  o.latch_watchdog_ns = 5'000'000;
  qc::Quancurrent<double> sk(o);
  for (int i = 0; i < 1'000; ++i) sk.update(static_cast<double>(i));
  sk.quiesce();
  auto back = qc::Quancurrent<double>::deserialize(serialize_of(sk));
  CHECK(back != nullptr);
  CHECK(back->options().serialize_propagation);
  CHECK_EQ(back->options().ibr_epoch_freq, 7u);
  CHECK_EQ(back->options().ibr_recl_freq, 9u);
  CHECK_EQ(back->options().ibr_retire_cap, 128u);
  CHECK_EQ(back->options().latch_watchdog_ns, std::uint64_t{5'000'000});
}

QC_TEST(deserialize_rejects_unaffordable_preallocation) {
  // k and install_queue both at their caps clear every per-field clamp, but
  // together imply a ~quarter-terabyte fixed footprint (install-queue cells
  // and gather buffers are 2k-item arrays).  A genuine image of such a
  // sketch carries a payload in proportion; this few-hundred-byte blob must
  // be rejected by the allocation-budget pre-check BEFORE the constructor
  // reserves anything (historically an uncatchable OOM kill, not bad_alloc).
  qc::Quancurrent<double> ck(small_options(64, 8));
  ck.update(1.0);
  ck.quiesce();
  auto blob = serialize_of(ck);
  const std::uint32_t max_k = qc::core::Options::kMaxK;
  const std::uint32_t max_queue = qc::core::Options::kMaxInstallQueue;
  std::memcpy(blob.data() + 12, &max_k, sizeof(max_k));          // k
  std::memcpy(blob.data() + 25, &max_queue, sizeof(max_queue));  // install_queue
  qc::serde::Status st = qc::serde::Status::ok;
  CHECK(qc::Quancurrent<double>::deserialize(blob, &st) == nullptr);
  CHECK(st == qc::serde::Status::bad_payload);
}

QC_TEST(deserialize_rejects_oversized_k) {
  // k lives at offset 12 (right after the common header) in both formats.
  // 0x80000000 would overflow 2k (historically a SIGFPE inside the Options
  // b-divisor loop); 0xFFFFFFFF would demand a ~64 GB base reservation.
  // Both exceed Options::kMaxK, which no genuine image can carry.
  qc::serde::Status st = qc::serde::Status::ok;

  qc::Quancurrent<double> ck(small_options(64, 8));
  ck.update(1.0);
  ck.quiesce();
  auto blob = serialize_of(ck);
  const std::uint32_t overflow_k = 0x80000000u;
  std::memcpy(blob.data() + 12, &overflow_k, sizeof(overflow_k));
  CHECK(qc::Quancurrent<double>::deserialize(blob, &st) == nullptr);
  CHECK(st == qc::serde::Status::bad_payload);

  qc::QuantilesSketch<double> sk(64);
  sk.update(1.0);
  auto sblob = serialize_of(sk);
  const std::uint32_t huge_k = 0xFFFFFFFFu;
  std::memcpy(sblob.data() + 12, &huge_k, sizeof(huge_k));
  CHECK(!qc::QuantilesSketch<double>::deserialize(sblob, &st).has_value());
  CHECK(st == qc::serde::Status::bad_payload);
}

QC_TEST(deserialize_rejects_oversized_ring_and_rho) {
  // install_queue (offset 25) and rho (offset 20) above their caps cannot
  // have come from serialize (images echo normalized options); both must be
  // rejected promptly — the uncapped install_queue rounding loop used to
  // hang forever on 2^31, before any allocation could even be attempted.
  qc::Quancurrent<double> ck(small_options(64, 8));
  ck.update(1.0);
  ck.quiesce();
  const auto blob = serialize_of(ck);
  qc::serde::Status st = qc::serde::Status::ok;

  auto corrupted = blob;
  const std::uint32_t huge_queue = 0x80000000u;
  std::memcpy(corrupted.data() + 25, &huge_queue, sizeof(huge_queue));
  CHECK(qc::Quancurrent<double>::deserialize(corrupted, &st) == nullptr);
  CHECK(st == qc::serde::Status::bad_payload);

  corrupted = blob;
  const std::uint32_t huge_rho = 0xFFFFFFFFu;
  std::memcpy(corrupted.data() + 20, &huge_rho, sizeof(huge_rho));
  CHECK(qc::Quancurrent<double>::deserialize(corrupted, &st) == nullptr);
  CHECK(st == qc::serde::Status::bad_payload);
}

QC_TEST(deserialize_rejects_filled_level_in_tritmap) {
  // A published tritmap never contains a trit of 2 (cascades compact filled
  // levels before publishing); accepting one would let the next ingest
  // cascade write past a level's two slots.
  qc::Quancurrent<double> ck(small_options(64, 8));  // empty sketch
  auto blob = serialize_of(ck);
  // Empty image layout ends ... | tritmap u64 | tail_count u64 |.
  const std::uint64_t trit2_at_level1 = 0x8ULL;  // trit(1) == 2
  std::memcpy(blob.data() + blob.size() - 16, &trit2_at_level1,
              sizeof(trit2_at_level1));
  qc::serde::Status st = qc::serde::Status::ok;
  CHECK(qc::Quancurrent<double>::deserialize(blob, &st) == nullptr);
  CHECK(st == qc::serde::Status::bad_payload);
}

QC_TEST(sequential_deserialize_bounds_base_count_by_buffer) {
  // base_count passes the 2k sanity bound but exceeds the bytes present:
  // must reject via the buffer bound BEFORE any count-proportional resize.
  qc::QuantilesSketch<double> sk(64);
  for (int i = 0; i < 100; ++i) sk.update(static_cast<double>(i));
  auto blob = serialize_of(sk);
  const std::uint32_t max_k = qc::core::Options::kMaxK;
  const std::uint64_t big_base = 2ULL * max_k;  // <= 2k, >> remaining bytes
  std::memcpy(blob.data() + 12, &max_k, sizeof(max_k));
  std::memcpy(blob.data() + 64, &big_base, sizeof(big_base));
  qc::serde::Status st = qc::serde::Status::ok;
  CHECK(!qc::QuantilesSketch<double>::deserialize(blob, &st).has_value());
  CHECK(st == qc::serde::Status::short_buffer);
}

// n must equal what the contents stand for: the base's items plus
// k * 2^(i+1) per occupied level i.  A k = 64 image of 10,000 items with n
// patched to 0, 1 or 2^50 once loaded and answered size() 0, cdf(5000)
// 4992 and cdf(5000) 4.4e-12.  Level weights whose sum overflows are
// rejected even when n matches the wrapped sum, and so is a full 2k base,
// which update() would never compact.
QC_TEST(sequential_deserialize_checks_element_count) {
  qc::QuantilesSketch<double> sk(64);
  for (int i = 0; i < 10'000; ++i) sk.update(static_cast<double>(i));
  const auto blob = serialize_of(sk);
  qc::serde::Status st = qc::serde::Status::short_buffer;
  CHECK(qc::QuantilesSketch<double>::deserialize(blob, &st).has_value());
  CHECK(st == qc::serde::Status::ok);
  for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 50}) {
    auto patched = blob;
    std::memcpy(patched.data() + 24, &n, sizeof(n));
    st = qc::serde::Status::ok;
    CHECK(!qc::QuantilesSketch<double>::deserialize(patched, &st).has_value());
    CHECK(st == qc::serde::Status::bad_payload);
  }

  // A k = 3 image with an empty base, claiming n, whose levels `occupied`
  // each hold {1, 2, 3}.
  const auto ladder_image = [](std::uint64_t n, std::uint32_t levels,
                               std::initializer_list<std::uint32_t> occupied) {
    auto image = serialize_of(qc::QuantilesSketch<double>(3));
    image.resize(72);
    std::memcpy(image.data() + 24, &n, sizeof(n));
    append_value(image, levels);
    for (std::uint32_t i = 0; i < levels; ++i) {
      const bool full = std::find(occupied.begin(), occupied.end(), i) != occupied.end();
      append_value(image, static_cast<std::uint8_t>(full ? 1 : 0));
      if (full) {
        for (const double v : {1.0, 2.0, 3.0}) append_value(image, v);
      }
    }
    return image;
  };
  const auto status_of = [](const std::vector<std::byte>& image) {
    qc::serde::Status status = qc::serde::Status::ok;
    (void)qc::QuantilesSketch<double>::deserialize(image, &status);
    return status;
  };
  CHECK(status_of(ladder_image(3 * 2 + 3 * 8, 3, {0, 2})) == qc::serde::Status::ok);
  // 3 * 2^63 wraps to 2^63; 3 * 2^61 + 3 * 2^62 wraps to 2^61.
  CHECK(status_of(ladder_image(std::uint64_t{1} << 63, 63, {62})) ==
        qc::serde::Status::bad_payload);
  CHECK(status_of(ladder_image(std::uint64_t{1} << 61, 62, {60, 61})) ==
        qc::serde::Status::bad_payload);

  // 127 ascending items fill every block but the last; one more makes the
  // base full and its last block sorted.
  qc::QuantilesSketch<double> almost(64);
  for (int i = 0; i < 127; ++i) almost.update(static_cast<double>(i));
  auto full = serialize_of(almost);
  const std::uint64_t count = 128;
  const double item = 127.0;
  std::memcpy(full.data() + 24, &count, sizeof(count));
  std::memcpy(full.data() + 64, &count, sizeof(count));
  const auto* item_bytes = reinterpret_cast<const std::byte*>(&item);
  full.insert(full.begin() + 72 + 127 * sizeof(double), item_bytes,
              item_bytes + sizeof(item));
  CHECK(status_of(full) == qc::serde::Status::bad_payload);
}

// Images of a base presorted in other block lengths load: chunk 0 (the
// whole base left in insertion order, as when 2k <= 256 items were sorted
// at once) and chunk 256.  Each hand-built layout loads, answers
// bit-identically to a sketch fed the same stream, keeps doing so while
// both ingest on, and re-serializes with chunk 16; the chunk-0 image then
// byte for byte like the fed sketch, whose base blocks it re-sorted.
QC_TEST(sequential_images_of_other_presort_blocks_load) {
  const auto check_layout = [](std::uint32_t k, std::uint64_t chunk, std::size_t n) {
    const auto data = qc::stream::make_stream(Distribution::kUniform, n, 17 + k);
    qc::QuantilesSketch<double> fed(k);
    for (const double v : data) fed.update(v);
    auto image = serialize_of(fed);
    std::uint64_t base_count = 0;
    std::memcpy(&base_count, image.data() + 64, sizeof(base_count));
    std::vector<double> base(data.end() - static_cast<std::ptrdiff_t>(base_count),
                             data.end());
    for (std::size_t off = 0; chunk > 1 && off + chunk <= base.size(); off += chunk) {
      std::sort(base.begin() + static_cast<std::ptrdiff_t>(off),
                base.begin() + static_cast<std::ptrdiff_t>(off + chunk));
    }
    std::memcpy(image.data() + 16, &chunk, sizeof(chunk));
    std::memcpy(image.data() + 72, base.data(), base.size() * sizeof(double));
    CHECK(image != serialize_of(fed));

    qc::serde::Status st = qc::serde::Status::short_buffer;
    auto back = qc::QuantilesSketch<double>::deserialize(image, &st);
    CHECK(back.has_value());
    if (!back.has_value()) return;
    CHECK(st == qc::serde::Status::ok);
    CHECK_EQ(back->size(), fed.size());
    CHECK(back->summary() == fed.summary());
    for (int i = 0; i <= 20; ++i) CHECK(back->quantile(i / 20.0) == fed.quantile(i / 20.0));

    const auto again = serialize_of(*back);
    std::uint64_t written = 0;
    std::memcpy(&written, again.data() + 16, sizeof(written));
    CHECK_EQ(written, std::uint64_t{16});
    if (chunk == 0) CHECK(again == serialize_of(fed));
    for (const double v : data) {
      back->update(v);
      fed.update(v);
    }
    CHECK(back->summary() == fed.summary());
  };
  check_layout(64, 0, 128 * 50 + 77);     // 4 blocks and a 13-item tail
  check_layout(256, 256, 512 * 7 + 300);  // one sorted 256-chunk and 44 items
}

QC_TEST(deserialize_rejects_overflowing_tail_count) {
  // One updater, one node, exactly four full 2k batches: quiesce leaves the
  // tail empty, so the blob's final 8 bytes are tail_count = 0.
  qc::Options o = small_options(64, 8);
  o.topology = qc::numa::Topology::virtual_nodes(1, 1);
  qc::Quancurrent<double> ck(o);
  {
    auto u = ck.make_updater(0);
    for (int i = 0; i < 4 * 128; ++i) u.update(static_cast<double>(i));
  }
  ck.quiesce();
  auto blob = serialize_of(ck);

  // A tail_count crafted so count * sizeof(double) wraps to a small value
  // must still be rejected (not crash on a 2^61-element resize).
  const std::uint64_t overflowing = 0x2000000000000001ULL;
  std::memcpy(blob.data() + blob.size() - sizeof(overflowing), &overflowing,
              sizeof(overflowing));
  qc::serde::Status st = qc::serde::Status::ok;
  CHECK(qc::Quancurrent<double>::deserialize(blob, &st) == nullptr);
  CHECK(st == qc::serde::Status::short_buffer);
}

// A live sketch folds its tail's full 2k batches into the ladder, but an
// image is only bytes: one whose tail holds 2k or more items still loads.
// deserialize() folds the tail after it publishes the ladder, so the sketch
// keeps its size and its queriers see a weight-1 run under 2k.
QC_TEST(deserialize_folds_a_tail_of_2k_or_more) {
  // As above: the blob's final 8 bytes are tail_count = 0.
  qc::Options o = small_options(64, 8);
  o.topology = qc::numa::Topology::virtual_nodes(1, 1);
  qc::Quancurrent<double> ck(o);
  {
    auto u = ck.make_updater(0);
    for (int i = 0; i < 4 * 128; ++i) u.update(static_cast<double>(i));
  }
  ck.quiesce();
  auto blob = serialize_of(ck);

  const std::uint64_t tail = 3 * 128 + 5;
  blob.resize(blob.size() - sizeof(tail));
  const auto append = [&blob](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::byte*>(p);
    blob.insert(blob.end(), bytes, bytes + n);
  };
  append(&tail, sizeof(tail));
  for (std::uint64_t i = 0; i < tail; ++i) {
    const double v = static_cast<double>((i * 37) % 1000);
    append(&v, sizeof(v));
  }

  qc::serde::Status st = qc::serde::Status::short_buffer;
  auto back = qc::Quancurrent<double>::deserialize(blob, &st);
  CHECK(back != nullptr);
  if (back == nullptr) return;
  CHECK(st == qc::serde::Status::ok);
  CHECK_EQ(back->size(), 4 * 128 + tail);
  auto q = back->make_querier();
  CHECK_EQ(q.size(), back->size());
  std::uint64_t tail_run = 0;
  for (const auto& run : q.runs()) {
    if (run.weight == 1) tail_run = run.size;
  }
  CHECK_EQ(tail_run, std::uint64_t{5});
}

// serialize() writes the tail sorted, as the immutable block it is; an
// image written in insertion order (the same v4 format) still loads:
// deserialize() sorts its tail first.  A hand-built image with an unsorted
// 100-item tail answers bit-identically to a sketch pushed the same items,
// and re-serializes byte for byte like it, with its tail sorted.
QC_TEST(unsorted_tail_image_loads_and_reserializes_sorted) {
  qc::Options o = small_options(64, 8);
  o.topology = qc::numa::Topology::virtual_nodes(1, 1);
  const auto ladder_only = [&o](qc::Quancurrent<double>& sk) {
    auto u = sk.make_updater(0);
    for (int i = 0; i < 4 * 128; ++i) u.update(static_cast<double>(i));
  };
  qc::Quancurrent<double> ck(o);
  ladder_only(ck);
  ck.quiesce();
  auto blob = serialize_of(ck);  // its final 8 bytes are tail_count = 0

  std::vector<double> tail;
  for (int i = 0; i < 100; ++i) tail.push_back(static_cast<double>((i * 37) % 1000));
  CHECK(!std::is_sorted(tail.begin(), tail.end()));
  const std::uint64_t count = tail.size();
  blob.resize(blob.size() - sizeof(count));
  const auto* count_bytes = reinterpret_cast<const std::byte*>(&count);
  blob.insert(blob.end(), count_bytes, count_bytes + sizeof(count));
  const auto* tail_bytes = reinterpret_cast<const std::byte*>(tail.data());
  blob.insert(blob.end(), tail_bytes, tail_bytes + tail.size() * sizeof(double));

  qc::serde::Status st = qc::serde::Status::short_buffer;
  auto back = qc::Quancurrent<double>::deserialize(blob, &st);
  CHECK(back != nullptr);
  if (back == nullptr) return;
  CHECK(st == qc::serde::Status::ok);

  qc::Quancurrent<double> fed(o);
  ladder_only(fed);
  fed.quiesce();
  fed.push_tail(tail.data(), tail.size());
  CHECK_EQ(back->size(), fed.size());
  auto q_back = back->make_querier();
  auto q_fed = fed.make_querier();
  CHECK(q_back.summary() == q_fed.summary());
  for (int i = 0; i <= 20; ++i) CHECK(q_back.quantile(i / 20.0) == q_fed.quantile(i / 20.0));

  const auto again = serialize_of(*back);
  CHECK(again == serialize_of(fed));
  std::vector<double> written(tail.size());
  std::memcpy(written.data(), again.data() + again.size() - tail.size() * sizeof(double),
              tail.size() * sizeof(double));
  std::sort(tail.begin(), tail.end());
  CHECK(written == tail);
}

QC_TEST(deserialize_rejects_truncation_at_every_prefix_length) {
  qc::Quancurrent<double> ck(small_options(64, 8));
  for (int i = 0; i < 5'000; ++i) ck.update(static_cast<double>(i));
  ck.quiesce();
  const auto blob = serialize_of(ck);
  // Every strict prefix must fail (never crash, never succeed); step a prime
  // to keep the test fast while hitting unaligned cut points.
  for (std::size_t len = 0; len < blob.size(); len += 13) {
    qc::serde::Status st = qc::serde::Status::ok;
    CHECK(qc::Quancurrent<double>::deserialize(
              std::span<const std::byte>(blob.data(), len), &st) == nullptr);
    CHECK(st != qc::serde::Status::ok);
  }

  qc::QuantilesSketch<double> sk(64);
  for (int i = 0; i < 5'000; ++i) sk.update(static_cast<double>(i));
  const auto sblob = serialize_of(sk);
  for (std::size_t len = 0; len < sblob.size(); len += 13) {
    qc::serde::Status st = qc::serde::Status::ok;
    CHECK(!qc::QuantilesSketch<double>::deserialize(
               std::span<const std::byte>(sblob.data(), len), &st)
               .has_value());
    CHECK(st != qc::serde::Status::ok);
  }
}

// ----- framed container over serde blobs (recovery/container.hpp) ------------

QC_TEST(framed_container_rejects_manifest_shard_mismatch) {
  qc::Quancurrent<double> sk(small_options(64, 8));
  for (int i = 0; i < 2000; ++i) sk.update(static_cast<double>(i));
  sk.quiesce();
  const auto blob = qc::to_bytes(sk);

  // Manifest promises three shards; only two chunks follow.  Every chunk
  // passes its own CRC and the commit record is honest about what was
  // written, so only the manifest/shard cross-check can catch it.
  qc::recovery::ContainerWriter promise(1);
  promise.add_manifest(qc::recovery::SketchKind::sharded, 3, 2 * sk.size());
  promise.add_shard(0, blob);
  promise.add_shard(1, blob);
  std::string why;
  CHECK(qc::recovery::deserialize_sharded<double>(std::move(promise).finish(), 0,
                                                  &why) == nullptr);
  CHECK(why == "shard_chunk_mismatch");

  // Shard chunks must be sequential from zero — reordered or renumbered
  // chunks reject even though each chunk is individually intact.
  qc::recovery::ContainerWriter reorder(1);
  reorder.add_manifest(qc::recovery::SketchKind::sharded, 2, 2 * sk.size());
  reorder.add_shard(1, blob);
  reorder.add_shard(0, blob);
  why.clear();
  CHECK(qc::recovery::deserialize_sharded<double>(std::move(reorder).finish(), 0,
                                                  &why) == nullptr);
  CHECK(why == "shard_chunk_mismatch");
}

QC_TEST(framed_container_reports_failing_shard_decode) {
  // A corrupt serde blob INSIDE an intact frame: the container CRC is computed
  // over the already-rotten bytes so the frame verifies, and the failure
  // surfaces from the per-shard engine decode with the shard named.
  qc::Quancurrent<double> sk(small_options(64, 8));
  for (int i = 0; i < 500; ++i) sk.update(static_cast<double>(i));
  sk.quiesce();
  auto blob = qc::to_bytes(sk);
  blob[0] ^= std::byte{0x01};  // break the serde magic

  qc::recovery::ContainerWriter w(1);
  w.add_manifest(qc::recovery::SketchKind::sharded, 1, sk.size());
  w.add_shard(0, blob);
  std::string why;
  CHECK(qc::recovery::deserialize_sharded<double>(std::move(w).finish(), 0,
                                                  &why) == nullptr);
  CHECK(why == "shard 0: bad_magic");
}

QC_TEST_MAIN()
