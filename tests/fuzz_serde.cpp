// Fuzz harness for the serde surface: deserialize() of BOTH engines must
// treat arbitrary bytes as hostile — reject cleanly (nullptr/nullopt with a
// status) or produce a sketch that is actually usable, never crash, leak, or
// over-allocate.
//
// Three build modes off one entry point:
//   * libFuzzer target `fuzz_serde` (-DQC_BUILD_FUZZERS=ON, Clang):
//     -fsanitize=fuzzer,address,undefined; CI runs it for 60 seconds per
//     push against a generated seed corpus.
//   * standalone driver `fuzz_serde_standalone` (QC_FUZZ_STANDALONE, any
//     compiler): `--write-corpus DIR` emits the seed corpus (real
//     serialize() images of both engines, several shapes each);
//     `--self-test` replays the corpus plus deterministic truncations and
//     bit flips through the harness in-process (the ctest registration);
//     any other argument is a file to replay (crash repro).
//   * Accepted inputs are exercised, not just parsed: queried, ingested
//     into, and round-tripped — a deserialize that accepts an image it
//     cannot re-serialize is a bug the harness traps on.
//
// Input guards: a crafted image can legitimately demand k up to 2^22 and an
// install queue of 2^12 — gigabyte-scale but bounded allocations the engine
// ACCEPTS by design (its own budget check only rejects disproportionate
// footprints).  Exploring those inputs teaches the fuzzer nothing per second
// of runtime, so the harness bails early on k > 2^16 or queue > 64 before
// calling deserialize.  The engine's own size caps are covered by
// deterministic tests (test_serde, test_options); the fuzzer's job is the
// decode logic under those caps.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "qc.hpp"
#include "sequential/quantiles_sketch.hpp"

namespace {

constexpr std::size_t kHeaderBytes = 12;

// Field peeks into the common layouts (offsets locked by test_serde).
std::uint32_t peek_u32(const std::uint8_t* data, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, data + off, sizeof(v));
  return v;
}

bool too_expensive(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderBytes + 4) return false;  // header rejects before allocating
  const std::uint32_t k = peek_u32(data, 12);  // same offset in both engines
  if (k > (1u << 16)) return true;
  if (size >= 29 && data[8] == 2 /* Engine::concurrent */) {
    if (peek_u32(data, 25) > 64) return true;  // install_queue
  }
  return false;
}

// A sketch the harness accepted must behave like a sketch: answer queries,
// absorb updates, and survive a serialize -> deserialize round trip.
template <typename Sketch>
void exercise(Sketch& sk) {
  if (sk.size() > 0) {
    // Values are unspecified for garbage-but-well-formed payloads (NaN items
    // break std::less's ordering with no way to see it in the image), so the
    // property here is crash-freedom of the query machinery, not ordering.
    const double lo = sk.quantile(0.0);
    (void)sk.quantile(1.0);
    (void)sk.rank(lo);
  }
  for (int i = 0; i < 16; ++i) sk.update(static_cast<double>(i));
  std::vector<std::byte> out(sk.serialized_size());
  if (sk.serialize(out) != out.size()) __builtin_trap();
}

void run_one(const std::uint8_t* data, std::size_t size) {
  if (too_expensive(data, size)) return;
  const std::span<const std::byte> in(reinterpret_cast<const std::byte*>(data), size);
  {
    qc::serde::Status st = qc::serde::Status::ok;
    auto sk = qc::Quancurrent<double>::deserialize(in, &st);
    if (sk != nullptr) {
      if (st != qc::serde::Status::ok) __builtin_trap();
      exercise(*sk);
      std::vector<std::byte> rt(sk->serialized_size());
      sk->serialize(rt);
      if (qc::Quancurrent<double>::deserialize(rt) == nullptr) __builtin_trap();
    }
  }
  {
    qc::serde::Status st = qc::serde::Status::ok;
    auto sk = qc::sequential::QuantilesSketch<double>::deserialize(in, &st);
    if (sk.has_value()) {
      if (st != qc::serde::Status::ok) __builtin_trap();
      exercise(*sk);
      std::vector<std::byte> rt(sk->serialized_size());
      sk->serialize(rt);
      if (!qc::sequential::QuantilesSketch<double>::deserialize(rt).has_value()) {
        __builtin_trap();
      }
    }
  }
  // Framed checkpoint container (recovery-layer sharded serde).  The CRC
  // framing rejects nearly all mutations before any engine decode runs;
  // whatever parses carries per-shard serde blobs, which get the same expense
  // guard as the bare images above.
  {
    qc::recovery::Parsed parsed;
    if (qc::recovery::parse_container(in, parsed).ok() &&
        parsed.shard_blobs.size() <= 8) {
      bool costly = false;
      for (const auto blob : parsed.shard_blobs) {
        if (too_expensive(reinterpret_cast<const std::uint8_t*>(blob.data()),
                          blob.size())) {
          costly = true;
          break;
        }
      }
      if (!costly) {
        auto sh = qc::recovery::deserialize_sharded<double>(in);
        if (sh != nullptr) {
          auto q = sh->make_querier();
          if (q.size() > 0) (void)q.quantile(0.5);
          const auto rt = qc::recovery::serialize_sharded(*sh);
          if (qc::recovery::deserialize_sharded<double>(rt) == nullptr) {
            __builtin_trap();
          }
        }
        // Re-routed restore into a different width exercises the merge
        // bridge; rejection (e.g. mismatched shard k) is legal, crash is not.
        (void)qc::recovery::deserialize_sharded<double>(in, 2);
      }
    }
  }
  // Item-width probe: the same bytes read as a float sketch must fail on the
  // item-size header field, not misindex (a historic class of serde bug).
  (void)qc::Quancurrent<float>::deserialize(in);
  (void)qc::sequential::QuantilesSketch<float>::deserialize(in);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  run_one(data, size);
  return 0;
}

#if defined(QC_FUZZ_STANDALONE)

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

// Real serialize() images of both engines in several shapes — empty,
// tail-only, multi-level, large-k — so the fuzzer starts from deep inside
// the accept grammar instead of spending its budget rediscovering the magic.
std::vector<std::vector<std::uint8_t>> seed_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  const auto keep = [&corpus](std::span<const std::byte> img) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(img.data());
    corpus.emplace_back(p, p + img.size());
  };
  for (const std::uint32_t k : {4u, 64u, 512u}) {
    for (const std::uint32_t n : {0u, 7u, 3000u}) {
      qc::Options o;
      o.k = k;
      o.b = 8;
      qc::Quancurrent<double> cs(o);
      for (std::uint32_t i = 0; i < n; ++i) cs.update(static_cast<double>(i));
      cs.quiesce();
      std::vector<std::byte> img(cs.serialized_size());
      cs.serialize(img);
      keep(img);

      qc::sequential::QuantilesSketch<double> ss(k);
      for (std::uint32_t i = 0; i < n; ++i) ss.update(static_cast<double>(i));
      std::vector<std::byte> simg(ss.serialized_size());
      ss.serialize(simg);
      keep(simg);
    }
  }
  // Framed checkpoint containers (recovery/container.hpp): sharded images at
  // several widths plus a single-kind checkpoint, so the fuzzer starts with
  // valid CRC framing instead of rediscovering CRC32C one bit at a time.
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    qc::Options o;
    o.k = 64;
    o.b = 8;
    qc::ShardedQuancurrent<double> sh(shards, o);
    {
      auto u = sh.make_hash_updater();
      for (int i = 0; i < 2000; ++i) u.update(static_cast<double>(i));
    }
    sh.quiesce();
    keep(qc::recovery::serialize_sharded(sh, 9));
  }
  {
    qc::Options o;
    o.k = 64;
    o.b = 8;
    qc::Quancurrent<double> cs(o);
    for (int i = 0; i < 1000; ++i) cs.update(static_cast<double>(i));
    cs.quiesce();
    keep(qc::recovery::encode_checkpoint(cs, 5));
  }
  return corpus;
}

int write_corpus(const char* dir) {
  const auto corpus = seed_corpus();
  int written = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string path = std::string(dir) + "/seed_" + std::to_string(i) + ".bin";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "fuzz_serde: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fwrite(corpus[i].data(), 1, corpus[i].size(), f);
    std::fclose(f);
    ++written;
  }
  std::printf("fuzz_serde: wrote %d seed inputs to %s\n", written, dir);
  return 0;
}

// Replays the corpus, every truncation prefix on a stride, and a
// deterministic single-bit flip at every strided position — a few thousand
// cheap adversarial inputs proving the harness and decode paths hold without
// libFuzzer (the ctest mode, so any compiler's CI leg runs it).
int self_test() {
  const auto corpus = seed_corpus();
  std::size_t runs = 0;
  for (const auto& seed : corpus) {
    run_one(seed.data(), seed.size());
    ++runs;
    const std::size_t stride = seed.size() < 128 ? 1 : seed.size() / 97;
    for (std::size_t cut = 0; cut < seed.size(); cut += stride) {
      run_one(seed.data(), cut);
      ++runs;
    }
    std::vector<std::uint8_t> mutated = seed;
    for (std::size_t pos = 0; pos < mutated.size(); pos += stride) {
      const std::uint8_t saved = mutated[pos];
      mutated[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
      run_one(mutated.data(), mutated.size());
      mutated[pos] = saved;
      ++runs;
    }
  }
  // Targeted framed-container mutations, beyond the strided generic pass:
  // exact chunk-boundary truncations (walking the real chunk headers),
  // per-chunk CRC flips, and commit-record stripping/duplication.  Each must
  // be REJECTED by parse_container — asserted, not merely survived — and is
  // also fed through the full harness entry point.
  std::size_t framed = 0;
  for (const auto& seed : corpus) {
    if (seed.size() < 16 || peek_u32(seed.data(), 0) != qc::recovery::kContainerMagic) {
      continue;
    }
    ++framed;
    const std::span<const std::byte> img(
        reinterpret_cast<const std::byte*>(seed.data()), seed.size());
    qc::recovery::Parsed parsed;
    if (!qc::recovery::parse_container(img, parsed).ok()) __builtin_trap();
    std::vector<std::size_t> bounds;  // offset of each chunk header
    std::size_t off = qc::recovery::kFileHeaderBytes;
    while (off + qc::recovery::kChunkHeaderBytes <= seed.size()) {
      bounds.push_back(off);
      std::uint64_t len = 0;
      std::memcpy(&len, seed.data() + off + 8, sizeof(len));
      off += qc::recovery::kChunkHeaderBytes + static_cast<std::size_t>(len);
    }
    for (const std::size_t b : bounds) {
      for (const std::size_t cut : {b, b + 7, b + qc::recovery::kChunkHeaderBytes}) {
        if (cut >= seed.size()) continue;
        if (qc::recovery::parse_container(img.first(cut), parsed).ok()) {
          __builtin_trap();
        }
        run_one(seed.data(), cut);
        ++runs;
      }
      // Flip the chunk's stored CRC: bad_chunk_crc at this chunk.
      std::vector<std::uint8_t> mut = seed;
      mut[b + 4] ^= 0x01;
      if (qc::recovery::parse_container(
              std::span<const std::byte>(
                  reinterpret_cast<const std::byte*>(mut.data()), mut.size()),
              parsed)
              .ok()) {
        __builtin_trap();
      }
      run_one(mut.data(), mut.size());
      ++runs;
    }
    // Strip the commit record: a never-sealed file.
    const std::size_t commit = bounds.back();
    if (qc::recovery::parse_container(img.first(commit), parsed).status !=
        qc::recovery::Verify::missing_commit) {
      __builtin_trap();
    }
    run_one(seed.data(), commit);
    // Duplicate it: bytes after the seal are not a committed state.
    std::vector<std::uint8_t> dup = seed;
    dup.insert(dup.end(), seed.begin() + static_cast<std::ptrdiff_t>(commit),
               seed.end());
    if (qc::recovery::parse_container(
            std::span<const std::byte>(
                reinterpret_cast<const std::byte*>(dup.data()), dup.size()),
            parsed)
            .status != qc::recovery::Verify::trailing_data) {
      __builtin_trap();
    }
    run_one(dup.data(), dup.size());
    runs += 2;
  }
  if (framed == 0) __builtin_trap();  // the corpus must carry framed seeds

  std::printf("fuzz_serde: self-test ran %zu inputs clean\n", runs);
  return 0;
}

int replay_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "fuzz_serde: cannot open %s\n", path);
    return 1;
  }
  std::vector<std::uint8_t> data;
  std::uint8_t buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + got);
  }
  std::fclose(f);
  run_one(data.data(), data.size());
  std::printf("fuzz_serde: replayed %s (%zu bytes) clean\n", path, data.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--write-corpus") {
    return write_corpus(argv[2]);
  }
  if (argc >= 2 && std::string(argv[1]) == "--self-test") {
    return self_test();
  }
  if (argc >= 2) {
    int rc = 0;
    for (int i = 1; i < argc; ++i) rc |= replay_file(argv[i]);
    return rc;
  }
  std::fprintf(stderr,
               "usage: %s --write-corpus DIR | --self-test | FILE...\n", argv[0]);
  return 2;
}

#endif  // QC_FUZZ_STANDALONE
