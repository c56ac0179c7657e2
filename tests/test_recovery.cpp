// Suite 16: the durable checkpoint/restore subsystem (include/qc/recovery/).
//
// Two halves:
//
//   * Unit tests — the CRC32C known-answer vector and the dispatched CRC
//     against the portable table, in-place shard framing against framing a
//     separate blob, encodes racing two updaters (run under TSan), container
//     grammar enforcement (torn chunks, bit flips, missing/duplicate commit
//     records, manifest mismatches), checkpoint retention + temp sweeping,
//     corrupt-latest fallback with RecoveryReport reasons, transient-I/O
//     retry/backoff, and graceful failure under a permanently failing
//     rename.  The I/O fault points compile in via this target's
//     QC_FAULT_INJECT=1 define (same ODR-safe pattern as test_fault).
//
//   * The kill -9 crash harness — fork a child that ingests a deterministic
//     stream and checkpoints each generation, SIGKILL it either after a
//     randomized delay or AT a fault-scheduled syscall (mid-write,
//     pre-rename, between rename and dir-fsync), then recover in the parent
//     and hold two invariants:
//       1. never recover a corrupt sketch (size and quantiles must match the
//          recovered generation's exact-oracle prefix), and
//       2. never lose a committed generation (the child reports each commit
//          through a pipe; the recovered generation must be >= the last
//          report that made it out).
//     The child stays single-threaded after fork (convenience update path),
//     so the harness is sanitizer-clean under ASan/UBSan and TSan.
//
// Round directories live under qc_recovery_harness/ in the working dir; a
// passing round removes its directory, a failing one leaves the surviving
// checkpoint files behind for CI to upload as artifacts.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fault/inject.hpp"
#include "qc.hpp"
#include "qc_test.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

using qc::fault::Injector;
using qc::fault::Point;
using qc::stream::Distribution;

namespace {

namespace fs = std::filesystem;
namespace rec = qc::recovery;

// Reset the process-wide injector around every test that arms it, so a
// CHECK failure cannot leak probabilities into later tests.
struct InjectorScope {
  InjectorScope() { Injector::instance().reset(); }
  ~InjectorScope() { Injector::instance().reset(); }
};

qc::Options small_options() {
  qc::Options o;
  o.k = 64;
  o.b = 8;
  o.topology = qc::numa::Topology::virtual_nodes(2, 2);
  return o;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Max rank error of `answer(phi)` against the exact oracle over a phi grid.
template <typename AnswerFn>
double max_rank_error(const qc::stream::ExactQuantiles<double>& exact,
                      AnswerFn&& answer) {
  double max_err = 0.0;
  for (int i = 1; i < 50; ++i) {
    const double phi = static_cast<double>(i) / 50.0;
    max_err = std::max(max_err, exact.rank_error(answer(phi), phi));
  }
  return max_err;
}

std::vector<std::byte> read_whole_file(const std::string& path) {
  std::vector<std::byte> bytes;
  CHECK(rec::io::read_file(path.c_str(), bytes));
  return bytes;
}

void write_whole_file(const std::string& path, std::span<const std::byte> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CHECK(f != nullptr);
  if (f != nullptr) {
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
}

// ----- container format ------------------------------------------------------

QC_TEST(recovery_crc32c_known_answer_and_chaining) {
  // The standard Castagnoli check vector, pinning polynomial + reflection.
  const char* digits = "123456789";
  CHECK_EQ(rec::crc32c(digits, 9), 0xE3069283u);
  CHECK_EQ(rec::crc32c(digits, 0), 0u);
  // Incremental chaining equals the one-shot digest.
  const std::uint32_t head = rec::crc32c(digits, 4);
  CHECK_EQ(rec::crc32c(digits + 4, 5, head), 0xE3069283u);
}

QC_TEST(recovery_crc32c_dispatch_matches_portable_table) {
  // The dispatched digest (the hardware crc32 instruction where the CPU has
  // it) must equal the byte-at-a-time table on every length class the
  // 8-byte steps split differently, at every start alignment, and chained.
  std::vector<unsigned char> buf(288'994 + 8);
  std::uint64_t x = 42;
  for (auto& c : buf) c = static_cast<unsigned char>(x = splitmix64(x));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (const std::size_t n : {4095, 4096, 4097, 288'994}) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    for (std::size_t off = 0; off < 8; ++off) {
      const unsigned char* p = buf.data() + off;
      const std::uint32_t want = rec::detail::crc32c_portable(p, n);
      CHECK_EQ(rec::crc32c(p, n), want);
      // Chained: any split point, seeded with the head's digest.
      const std::size_t cut = (n * 5 + off) / 8;
      CHECK_EQ(rec::crc32c(p + cut, n - cut, rec::crc32c(p, cut)), want);
      CHECK_EQ(rec::crc32c(p, n, 0xDEADBEEFu),
               rec::detail::crc32c_portable(p, n, 0xDEADBEEFu));
    }
  }
}

// One committed single-sketch container for the grammar tests below.
std::vector<std::byte> sample_container(std::uint64_t generation, std::uint32_t n) {
  qc::Quancurrent<double> sk(small_options());
  for (std::uint32_t i = 0; i < n; ++i) sk.update(static_cast<double>(i));
  sk.quiesce();
  return rec::encode_checkpoint(sk, generation);
}

QC_TEST(recovery_container_roundtrip_parses) {
  const auto image = sample_container(7, 3000);
  rec::Parsed parsed;
  const rec::ParseResult pr = rec::parse_container(image, parsed);
  CHECK(pr.ok());
  CHECK_EQ(parsed.generation, 7u);
  CHECK(parsed.manifest.kind == rec::SketchKind::single);
  CHECK_EQ(parsed.manifest.shard_count, 1u);
  CHECK_EQ(parsed.manifest.total_elements, 3000u);
  CHECK_EQ(parsed.shard_blobs.size(), 1u);
  // The embedded blob is a verbatim serde image.
  auto sk = qc::Quancurrent<double>::deserialize(parsed.shard_blobs[0]);
  CHECK(sk != nullptr);
  if (sk != nullptr) CHECK_EQ(sk->size(), 3000u);
}

QC_TEST(recovery_container_detects_bit_flips_at_chunk_granularity) {
  const auto image = sample_container(1, 500);
  // A flip anywhere in the file must reject it; flips inside a chunk must
  // name THAT chunk.  Chunk 0 is the manifest (its header starts right after
  // the 16-byte file header and carries a 16-byte payload); chunk 1 is the
  // sketch blob.  Offsets: 20 = manifest chunk header's stored CRC, 34 =
  // manifest payload, 66 = shard blob payload.
  const std::size_t chunk1_payload =
      rec::kFileHeaderBytes + rec::kChunkHeaderBytes + rec::kManifestPayloadBytes +
      rec::kChunkHeaderBytes + 2;
  for (const std::size_t pos : {std::size_t{20}, std::size_t{34}, chunk1_payload}) {
    auto mut = image;
    mut[pos] ^= std::byte{0x10};
    rec::Parsed parsed;
    const rec::ParseResult pr = rec::parse_container(mut, parsed);
    CHECK(pr.status == rec::Verify::bad_chunk_crc);
    CHECK_EQ(pr.chunk_index, pos < chunk1_payload ? 0u : 1u);
  }
  // Flips in the file header hit the frame checks instead.
  auto mut = image;
  mut[0] ^= std::byte{0x01};
  rec::Parsed parsed;
  CHECK(rec::parse_container(mut, parsed).status == rec::Verify::bad_magic);
  mut = image;
  mut[4] ^= std::byte{0x01};
  CHECK(rec::parse_container(mut, parsed).status == rec::Verify::bad_version);
  // Header generation is cross-checked by the commit record.
  mut = image;
  mut[8] ^= std::byte{0x01};
  CHECK(rec::parse_container(mut, parsed).status == rec::Verify::commit_mismatch);
}

QC_TEST(recovery_container_rejects_every_truncation) {
  const auto image = sample_container(2, 800);
  rec::Parsed parsed;
  CHECK(rec::parse_container(image, parsed).ok());
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    const rec::ParseResult pr =
        rec::parse_container(std::span<const std::byte>(image.data(), cut), parsed);
    CHECK(!pr.ok());
    CHECK(pr.status == rec::Verify::short_header ||
          pr.status == rec::Verify::torn_chunk ||
          pr.status == rec::Verify::bad_chunk_crc ||
          pr.status == rec::Verify::missing_commit);
  }
}

QC_TEST(recovery_container_commit_record_must_be_last_and_unique) {
  const auto image = sample_container(3, 100);
  rec::Parsed parsed;
  // Strip the commit chunk entirely: a clean EOF with no commit.
  const std::size_t commit_bytes = rec::kChunkHeaderBytes + rec::kCommitPayloadBytes;
  CHECK(rec::parse_container(
            std::span<const std::byte>(image.data(), image.size() - commit_bytes),
            parsed)
            .status == rec::Verify::missing_commit);
  // Duplicate the commit chunk: trailing data after the first commit.
  auto dup = image;
  dup.insert(dup.end(), image.end() - static_cast<std::ptrdiff_t>(commit_bytes),
             image.end());
  CHECK(rec::parse_container(dup, parsed).status == rec::Verify::trailing_data);
}

QC_TEST(recovery_container_commit_counts_chunks) {
  // Splice a shard chunk out from between manifest and commit: every
  // surviving chunk still passes its own CRC, but the commit's chunk count,
  // payload total, and CRC-sequence digest all disagree — the anti-splice
  // defense.
  qc::ShardedQuancurrent<double> sk(2, small_options());
  {
    auto u = sk.make_updater(0);
    for (int i = 0; i < 5000; ++i) u.update(static_cast<double>(i));
  }
  sk.quiesce();
  const auto image = rec::encode_checkpoint(sk, 4);
  rec::Parsed parsed;
  CHECK(rec::parse_container(image, parsed).ok());
  CHECK_EQ(parsed.shard_blobs.size(), 2u);
  // Locate shard chunk 1: it follows the manifest chunk and shard chunk 0.
  std::size_t off = rec::kFileHeaderBytes;
  for (int skip = 0; skip < 2; ++skip) {
    std::uint64_t len = 0;
    std::memcpy(&len, image.data() + off + 8, sizeof(len));
    off += rec::kChunkHeaderBytes + static_cast<std::size_t>(len);
  }
  std::uint64_t len1 = 0;
  std::memcpy(&len1, image.data() + off + 8, sizeof(len1));
  auto spliced = image;
  spliced.erase(spliced.begin() + static_cast<std::ptrdiff_t>(off),
                spliced.begin() + static_cast<std::ptrdiff_t>(
                                      off + rec::kChunkHeaderBytes +
                                      static_cast<std::size_t>(len1)));
  CHECK(rec::parse_container(spliced, parsed).status == rec::Verify::commit_mismatch);
}

QC_TEST(recovery_in_place_framing_matches_blob_framing) {
  // encode_checkpoint serializes each shard straight into the container;
  // the bytes must equal framing a separately serialized blob.
  qc::Quancurrent<double> single(small_options());
  for (int i = 0; i < 30'011; ++i) single.update(static_cast<double>((i * 31) % 997));
  single.quiesce();
  rec::ContainerWriter want_single(5);
  want_single.add_manifest(rec::SketchKind::single, 1, single.size());
  want_single.add_shard(0, qc::to_bytes(single));
  const std::vector<std::byte> want = std::move(want_single).finish();
  CHECK(rec::encode_checkpoint(single, 5) == want);

  // A size probe that comes up short (a ladder that grew past the headroom)
  // drops the half-written chunk and retries; the image is unchanged.
  struct ShortProbe {
    const qc::Quancurrent<double>& sk;
    mutable int probes = 0;
    std::uint64_t size() const { return sk.size(); }
    std::size_t serialized_size() const {
      return ++probes == 1 ? sk.serialized_size() / 2 : sk.serialized_size();
    }
    std::size_t serialize(std::span<std::byte> out) const { return sk.serialize(out); }
  };
  const ShortProbe probe{single};
  CHECK(rec::encode_checkpoint(probe, 5) == want);
  CHECK_EQ(probe.probes, 2);

  qc::ShardedQuancurrent<double> sharded(3, small_options());
  {
    auto u = sharded.make_updater(0);
    auto v = sharded.make_updater(1);
    for (int i = 0; i < 20'000; ++i) {
      u.update(static_cast<double>(i));
      v.update(static_cast<double>(-i));
    }
  }
  sharded.quiesce();
  rec::ContainerWriter want_sharded(6);
  want_sharded.add_manifest(rec::SketchKind::sharded, 3, sharded.size());
  for (std::uint32_t s = 0; s < 3; ++s) {
    want_sharded.add_shard(s, qc::to_bytes(sharded.shard(s)));
  }
  CHECK(rec::encode_checkpoint(sharded, 6) == std::move(want_sharded).finish());
}

QC_TEST(recovery_encode_under_live_ingest_parses_and_never_shrinks) {
  // Two updaters ingest while this thread loops the lock-free size probe,
  // serialize() and encode_checkpoint().  Installs land between probe and
  // image, so a probe-sized serialize() may fail cleanly and the encoder
  // leans on its headroom (its retry is forced deterministically in the
  // framing test above); every image must still parse and deserialize, and
  // successive images never shrink.
  qc::Quancurrent<double> sk(small_options());
  constexpr int kPerUpdater = 150'000;
  std::atomic<int> running{2};
  std::vector<std::thread> updaters;
  for (std::uint32_t t = 0; t < 2; ++t) {
    updaters.emplace_back([&, t] {
      auto u = sk.make_updater(t);
      std::uint64_t x = t;
      for (int i = 0; i < kPerUpdater; ++i) {
        u.update(static_cast<double>((x = splitmix64(x)) >> 11));
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::uint64_t last = 0, rounds = 0, gen = 0;
  const auto check_image = [&](std::span<const std::byte> blob) {
    auto back = qc::Quancurrent<double>::deserialize(blob);
    CHECK(back != nullptr);
    if (back == nullptr) return;
    CHECK(back->size() >= last);
    CHECK(back->size() <= 2u * kPerUpdater);
    last = back->size();
  };
  while (running.load(std::memory_order_acquire) != 0 || rounds < 20) {
    ++rounds;
    std::vector<std::byte> blob(sk.serialized_size());
    const std::size_t n = sk.serialize(blob);
    CHECK(n <= blob.size());
    if (n != 0) check_image(std::span<const std::byte>(blob.data(), n));
    const std::vector<std::byte> image = rec::encode_checkpoint(sk, ++gen);
    rec::Parsed parsed;
    CHECK(rec::parse_container(image, parsed).ok());
    CHECK_EQ(parsed.shard_blobs.size(), 1u);
    if (parsed.shard_blobs.size() != 1) continue;
    CHECK_EQ(parsed.generation, gen);
    // The manifest's size() is read before the shard is imaged.
    const std::uint64_t before = last;
    check_image(parsed.shard_blobs[0]);
    CHECK(parsed.manifest.total_elements >= before);
    CHECK(parsed.manifest.total_elements <= last);
  }
  for (auto& t : updaters) t.join();
  sk.quiesce();
  const auto final_image = rec::encode_checkpoint(sk, ++gen);
  rec::Parsed parsed;
  CHECK(rec::parse_container(final_image, parsed).ok());
  auto back = qc::Quancurrent<double>::deserialize(parsed.shard_blobs.at(0));
  CHECK(back != nullptr);
  if (back != nullptr) CHECK_EQ(back->size(), 2u * kPerUpdater);
}

// ----- checkpointer lifecycle ------------------------------------------------

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::path("qc_recovery_harness") / name).string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  const std::string path;
};

QC_TEST(recovery_checkpoint_restore_roundtrip) {
  TempDir dir("roundtrip");
  qc::Quancurrent<double> sk(small_options());
  for (int i = 0; i < 20'000; ++i) sk.update(static_cast<double>(i));
  sk.quiesce();

  rec::Checkpointer ck(sk, {.dir = dir.path, .name = "qc"});
  CHECK(ck.checkpoint());
  CHECK_EQ(ck.generation(), 1u);

  rec::RecoveryReport rep;
  auto restored = rec::recover<double>(dir.path, "qc", &rep);
  CHECK(rep.ok());
  CHECK(restored != nullptr);
  if (restored == nullptr) return;
  CHECK_EQ(rep.generation, 1u);
  CHECK_EQ(rep.skipped.size(), 0u);
  CHECK_EQ(restored->size(), sk.size());
  // Bit-exact restore: the round trip re-serializes to the same image.
  CHECK(qc::to_bytes(*restored) == qc::to_bytes(sk));
}

QC_TEST(recovery_retention_keeps_last_n_and_sweeps_temps) {
  TempDir dir("retention");
  qc::Quancurrent<double> sk(small_options());
  rec::Checkpointer ck(sk, {.dir = dir.path, .name = "qc", .keep = 3});
  for (int gen = 1; gen <= 5; ++gen) {
    sk.update(static_cast<double>(gen));
    sk.quiesce();
    CHECK(ck.checkpoint());
  }
  CHECK_EQ(ck.generation(), 5u);
  CHECK_EQ(ck.stats().pruned, 2u);
  std::size_t files = 0, temps = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= 4 && name.substr(name.size() - 4) == ".tmp") {
      ++temps;
    } else {
      ++files;
    }
  }
  CHECK_EQ(files, 3u);
  CHECK_EQ(temps, 0u);
  // A new Checkpointer over the same directory resumes the sequence.
  rec::Checkpointer resumed(sk, {.dir = dir.path, .name = "qc", .keep = 3});
  CHECK_EQ(resumed.generation(), 5u);
}

QC_TEST(recovery_corrupt_latest_falls_back_with_report) {
  TempDir dir("fallback");
  qc::Quancurrent<double> sk(small_options());
  rec::Checkpointer ck(sk, {.dir = dir.path, .name = "qc"});
  for (int gen = 1; gen <= 3; ++gen) {
    for (int i = 0; i < 1000; ++i) sk.update(static_cast<double>(gen * 1000 + i));
    sk.quiesce();
    CHECK(ck.checkpoint());
  }
  // Rot one payload byte in the newest generation.
  const auto gens = rec::detail::list_generations(dir.path, "qc");
  CHECK_EQ(gens.size(), 3u);
  auto bytes = read_whole_file(gens[0].second);
  bytes[bytes.size() / 2] ^= std::byte{0x04};
  write_whole_file(gens[0].second, bytes);

  rec::RecoveryReport rep;
  auto restored = rec::recover<double>(dir.path, "qc", &rep);
  CHECK(rep.ok());
  CHECK(restored != nullptr);
  CHECK_EQ(rep.generation, 2u);
  CHECK_EQ(rep.skipped.size(), 1u);
  if (!rep.skipped.empty()) {
    CHECK(rep.skipped[0].file == gens[0].second);
    CHECK(rep.skipped[0].reason == "bad_chunk_crc" ||
          rep.skipped[0].reason == "commit_mismatch");
  }
  if (restored != nullptr) CHECK_EQ(restored->size(), 2000u);
  // Truncate generation 2 as well (torn write): falls back to generation 1.
  auto g2 = read_whole_file(gens[1].second);
  write_whole_file(gens[1].second,
                   std::span<const std::byte>(g2.data(), g2.size() - 5));
  auto oldest = rec::recover<double>(dir.path, "qc", &rep);
  CHECK(oldest != nullptr);
  CHECK_EQ(rep.generation, 1u);
  CHECK_EQ(rep.skipped.size(), 2u);
  if (rep.skipped.size() == 2) CHECK(rep.skipped[1].reason == "torn_chunk");
  // Everything rotten: recovery reports failure rather than inventing state.
  for (const auto& entry : gens) {
    write_whole_file(entry.second, std::vector<std::byte>(8, std::byte{0xEE}));
  }
  CHECK(rec::recover<double>(dir.path, "qc", &rep) == nullptr);
  CHECK(!rep.ok());
  CHECK_EQ(rep.skipped.size(), 3u);
}

// ----- injected I/O faults ---------------------------------------------------

QC_TEST(recovery_transient_fsync_failure_retries_with_backoff) {
  InjectorScope scope;
  TempDir dir("retry");
  qc::Quancurrent<double> sk(small_options());
  for (int i = 0; i < 1000; ++i) sk.update(static_cast<double>(i));
  sk.quiesce();
  rec::Checkpointer ck(sk, {.dir = dir.path, .name = "qc", .attempts = 4});
  Injector::instance().arm_hit(Point::fsync_fail, 1);
  CHECK(ck.checkpoint());  // first attempt fails on fsync, retry commits
  CHECK_EQ(ck.stats().committed, 1u);
  CHECK_EQ(ck.stats().retries, 1u);
  CHECK_EQ(Injector::instance().counters(Point::fsync_fail).fires, 1u);
  rec::RecoveryReport rep;
  CHECK(rec::recover<double>(dir.path, "qc", &rep) != nullptr);
  CHECK_EQ(rep.generation, 1u);
}

QC_TEST(recovery_permanent_rename_failure_degrades_gracefully) {
  InjectorScope scope;
  TempDir dir("permfail");
  qc::Quancurrent<double> sk(small_options());
  for (int i = 0; i < 1000; ++i) sk.update(static_cast<double>(i));
  sk.quiesce();
  rec::Checkpointer ck(sk, {.dir = dir.path, .name = "qc", .attempts = 3});
  CHECK(ck.checkpoint());  // generation 1 commits clean

  Injector::instance().set_probability(Point::rename_fail, 1.0);
  CHECK(!ck.checkpoint());  // every attempt fails; no partial state escapes
  CHECK_EQ(ck.stats().failed, 1u);
  CHECK_EQ(ck.stats().retries, 2u);
  CHECK_EQ(ck.generation(), 1u);
  Injector::instance().set_probability(Point::rename_fail, 0.0);

  // The failed generation left no file — committed state is untouched.
  rec::RecoveryReport rep;
  auto restored = rec::recover<double>(dir.path, "qc", &rep);
  CHECK(restored != nullptr);
  CHECK_EQ(rep.generation, 1u);
  CHECK_EQ(rep.skipped.size(), 0u);
  CHECK(ck.checkpoint());  // and the checkpointer recovers on the next call
  CHECK_EQ(ck.generation(), 2u);
}

QC_TEST(recovery_read_corruption_falls_back_to_older_generation) {
  InjectorScope scope;
  TempDir dir("readrot");
  qc::Quancurrent<double> sk(small_options());
  rec::Checkpointer ck(sk, {.dir = dir.path, .name = "qc"});
  for (int gen = 1; gen <= 2; ++gen) {
    for (int i = 0; i < 500; ++i) sk.update(static_cast<double>(i));
    sk.quiesce();
    CHECK(ck.checkpoint());
  }
  // The newest image rots in transit on the first read; generation 1's read
  // (hit 2) is clean, so recovery lands there and says why.
  Injector::instance().arm_hit(Point::read_corrupt, 1);
  rec::RecoveryReport rep;
  auto restored = rec::recover<double>(dir.path, "qc", &rep);
  CHECK(restored != nullptr);
  CHECK_EQ(rep.generation, 1u);
  CHECK_EQ(rep.skipped.size(), 1u);
  if (restored != nullptr) CHECK_EQ(restored->size(), 500u);
}

QC_TEST(recovery_io_fault_chaos_never_loses_committed_state) {
  // The nightly chaos configuration for the I/O points: every syscall
  // failure mode firing probabilistically while checkpoints stream, with
  // the two harness invariants checked after every call.
  InjectorScope scope;
  TempDir dir("iochaos");
  Injector::instance().set_seed(0xC4A05ULL);
  Injector::instance().set_probability(Point::short_write, 0.10);
  Injector::instance().set_probability(Point::fsync_fail, 0.10);
  Injector::instance().set_probability(Point::rename_fail, 0.10);

  qc::Quancurrent<double> sk(small_options());
  rec::Checkpointer ck(sk, {.dir = dir.path,
                            .name = "qc",
                            .keep = 3,
                            .attempts = 8,
                            .backoff_init_us = 1,
                            .backoff_cap_us = 50});
  std::uint64_t committed = 0;       // last generation checkpoint() reported
  std::uint64_t committed_size = 0;  // sketch size at that commit
  std::uint64_t ingested = 0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 200; ++i) {
      sk.update(static_cast<double>(round * 200 + i));
    }
    ingested += 200;
    sk.quiesce();
    if (ck.checkpoint()) {
      committed = ck.generation();
      committed_size = ingested;
    }
    rec::RecoveryReport rep;
    auto restored = rec::recover<double>(dir.path, "qc", &rep);
    if (committed != 0) {
      CHECK(restored != nullptr);
      // A checkpoint the caller saw commit can never be lost; a LATER one
      // may exist (the rename landed but the dir-fsync retry path gave up),
      // holding any quiesce-aligned snapshot taken since.
      CHECK(rep.generation >= committed);
      if (restored != nullptr) {
        CHECK(restored->size() % 200u == 0u);
        CHECK(restored->size() >= committed_size);
        CHECK(restored->size() <= ingested);
      }
    }
  }
  CHECK(committed > 0);  // the fault rates above cannot starve progress
}

// ----- the kill -9 crash harness ---------------------------------------------

constexpr std::uint32_t kGenElems = 2048;  // elements per child generation
constexpr std::uint32_t kMaxGens = 40;
constexpr std::uint64_t kStreamSeed = 777;

struct CrashPlan {
  Point point = Point::kCount;  // kCount: no scheduled crash (timed kill)
  std::uint64_t hit = 0;
};

// The forked child: ingest generation after generation, checkpoint each, and
// report every committed generation through the pipe.  With a CrashPlan the
// injector SIGKILLs the child AT the armed syscall; otherwise the parent
// kills it after a randomized delay.  Single-threaded throughout (safe after
// fork under sanitizers); _exit avoids flushing inherited stdio state.
[[noreturn]] void child_ingest_loop(const std::string& dir, int report_fd,
                                    const CrashPlan& plan,
                                    const std::vector<double>& stream) {
  Injector::instance().reset();
  if (plan.point != Point::kCount) {
    Injector::instance().set_stall_handler(
        [](Point, void*) { ::raise(SIGKILL); }, nullptr);
    Injector::instance().arm_hit(plan.point, plan.hit);
  }
  qc::Quancurrent<double> sk(small_options());
  rec::Checkpointer ck(sk, {.dir = dir, .name = "qc", .keep = 3, .attempts = 2});
  for (std::uint32_t gen = 0; gen < kMaxGens; ++gen) {
    for (std::uint32_t i = 0; i < kGenElems; ++i) {
      sk.update(stream[static_cast<std::size_t>(gen) * kGenElems + i]);
    }
    sk.quiesce();
    if (ck.checkpoint()) {
      const std::uint64_t g = ck.generation();
      [[maybe_unused]] const ::ssize_t w = ::write(report_fd, &g, sizeof(g));
    }
  }
  ::_exit(0);
}

// One crash/recover round: fork, crash (timed or fault-scheduled), recover,
// assert the harness invariants.
void run_crash_round(const std::string& dir, const CrashPlan& plan,
                     std::uint32_t kill_delay_us,
                     const std::vector<double>& stream) {
  fs::create_directories(dir);
  int pipe_fds[2];
  CHECK(::pipe(pipe_fds) == 0);
  std::fflush(nullptr);  // no duplicated stdio buffers in the child
  const ::pid_t pid = ::fork();
  CHECK(pid >= 0);
  if (pid == 0) {
    ::close(pipe_fds[0]);
    child_ingest_loop(dir, pipe_fds[1], plan, stream);  // never returns
  }
  ::close(pipe_fds[1]);
  if (plan.point == Point::kCount) {
    ::usleep(kill_delay_us);
    ::kill(pid, SIGKILL);
  }
  int status = 0;
  CHECK(::waitpid(pid, &status, 0) == pid);
  if (plan.point != Point::kCount) {
    // A scheduled crash must actually have happened at the armed syscall.
    CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  }
  // Drain the child's commit reports; the last one is the floor.
  std::uint64_t committed = 0, g = 0;
  while (::read(pipe_fds[0], &g, sizeof(g)) == static_cast<::ssize_t>(sizeof(g))) {
    committed = g;
  }
  ::close(pipe_fds[0]);

  rec::RecoveryReport rep;
  auto restored = rec::recover<double>(dir, "qc", &rep);
  if (restored == nullptr) {
    // Losing everything is only legal if nothing ever committed.
    CHECK_EQ(committed, 0u);
    return;
  }
  // Invariant 1: no committed generation is ever lost.
  CHECK(rep.generation >= committed);
  CHECK(rep.generation >= 1 && rep.generation <= kMaxGens);
  // Invariant 2: the recovered sketch is exactly some committed generation's
  // prefix of the stream — a whole number of child rounds, at least as many
  // as the recovered generation number (each commit follows one ingest
  // round; a transiently failed commit can make a later generation span
  // several), with quantiles inside the sketch envelope for that prefix.
  const std::uint64_t n = restored->size();
  CHECK(n % kGenElems == 0);
  const std::uint64_t rounds = n / kGenElems;
  CHECK(rounds >= rep.generation && rounds <= kMaxGens);
  qc::stream::ExactQuantiles<double> oracle(
      std::vector<double>(stream.begin(),
                          stream.begin() + static_cast<std::ptrdiff_t>(n)));
  const double err = max_rank_error(
      oracle, [&](double phi) { return restored->quantile(phi); });
  CHECK(err <= 12.0 / 64.0);
}

QC_TEST(recovery_crash_harness_randomized_sigkill) {
  InjectorScope scope;
  const auto stream = qc::stream::make_stream(
      Distribution::kUniform, static_cast<std::uint64_t>(kMaxGens) * kGenElems,
      kStreamSeed);
  // 50 rounds, kill delays spread deterministically over 0-30ms (overridable
  // seed, same env contract as the chaos job).
  std::uint64_t seed = 0x51CC1Dull;
  if (const char* env = std::getenv("QC_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int round = 0; round < 50; ++round) {
    const std::string dir =
        (fs::path("qc_recovery_harness") / ("rand_" + std::to_string(round)))
            .string();
    fs::remove_all(dir);
    const auto delay_us =
        static_cast<std::uint32_t>(splitmix64(seed ^ static_cast<std::uint64_t>(round)) % 30'000);
    run_crash_round(dir, CrashPlan{}, delay_us, stream);
    if (qc::test::Registry::instance().failures == 0) fs::remove_all(dir);
  }
}

QC_TEST(recovery_crash_harness_fault_scheduled_sigkill) {
  InjectorScope scope;
  const auto stream = qc::stream::make_stream(
      Distribution::kUniform, static_cast<std::uint64_t>(kMaxGens) * kGenElems,
      kStreamSeed);
  // Deterministic crash points: mid-write of the 1st and 5th checkpoint,
  // just before the 2nd rename, before the 1st file fsync (temp never
  // committed), and between the 1st rename and its directory fsync (the
  // committed-but-not-yet-reported window).
  const CrashPlan plans[] = {
      {Point::short_write, 1},
      {Point::short_write, 5},
      {Point::rename_fail, 2},
      {Point::fsync_fail, 1},
      {Point::fsync_fail, 2},
  };
  int idx = 0;
  for (const CrashPlan& plan : plans) {
    const std::string dir =
        (fs::path("qc_recovery_harness") / ("plan_" + std::to_string(idx++)))
            .string();
    fs::remove_all(dir);
    run_crash_round(dir, plan, 0, stream);
    if (qc::test::Registry::instance().failures == 0) fs::remove_all(dir);
  }
}

}  // namespace

QC_TEST_MAIN()
