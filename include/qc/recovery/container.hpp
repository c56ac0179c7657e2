// The checkpoint container: a CRC32C-framed, chunked file format wrapping
// the binary serde so recovery can tell a committed checkpoint from a torn one.
//
// The unframed serde blob (serde/binary.hpp) is built for trusted in-memory
// exchange: it has no integrity check, so a crash mid-write leaves a prefix
// that deserialize() may happily decode into a silently truncated sketch.
// The container closes that hole with three independent defenses:
//
//   file      := header chunk*            (all integers little-endian)
//   header    := magic:u32 "QCKP" | version:u16 | flags:u16 | generation:u64
//   chunk     := type:u32 | crc32c(payload):u32 | payload_len:u64 | payload
//   manifest  := kind:u32 (single=1 | sharded=2) | shard_count:u32
//                | total_elements:u64          (chunk 0, exactly once)
//   shard     := shard_index:u32 | serde blob (one chunk per shard, in
//                index order — the "sharded serde" the ROADMAP names)
//   commit    := generation:u64 | chunk_count:u32 | reserved:u32
//                | payload_total:u64 | crc32c(chunk crc sequence):u32
//                (the LAST chunk, exactly once, nothing after it)
//
//   1. Per-chunk CRC32C: a bit flip or partial chunk is detected at chunk
//      granularity — verification names the offending chunk instead of
//      deserializing garbage.
//   2. The commit record: written last, so its mere well-formed presence at
//      EOF proves every preceding byte hit the file; a kill -9 between the
//      first byte and the last leaves a container without a valid commit.
//      Its payload re-states the generation, re-counts the chunks, re-totals
//      their payload bytes and checksums the SEQUENCE of their CRCs, so a
//      spliced file (chunks dropped, duplicated, reordered between two valid
//      images) cannot smuggle a stale commit record past verification.
//   3. Strict EOF: bytes after the commit (e.g. a duplicated commit record)
//      reject the file — an append-after-commit is not a committed state.
//
// This header is pure in-memory encode/verify; the durable write protocol
// (temp + fsync + rename) lives in recovery/checkpoint.hpp, the syscalls and
// their fault points in recovery/io.hpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "recovery/crc32c.hpp"

namespace qc::recovery {

inline constexpr std::uint32_t kContainerMagic = 0x504B4351u;  // "QCKP"
inline constexpr std::uint16_t kContainerVersion = 1;
inline constexpr std::size_t kFileHeaderBytes = 16;
inline constexpr std::size_t kChunkHeaderBytes = 16;
inline constexpr std::size_t kManifestPayloadBytes = 16;
inline constexpr std::size_t kCommitPayloadBytes = 28;

enum class ChunkType : std::uint32_t {
  manifest = 1,
  shard = 2,
  commit = 3,
};

enum class SketchKind : std::uint32_t {
  single = 1,   // one Quancurrent (or any engine): exactly one shard chunk
  sharded = 2,  // ShardedQuancurrent: one shard chunk per facade shard
};

// Container-level verification outcome.  Everything except `ok` rejects the
// file; RecoveryReport records the name so an operator can tell a torn write
// (expected after a crash) from rot (bad_chunk_crc on an old generation).
enum class Verify : std::uint8_t {
  ok = 0,
  short_header,         // fewer bytes than the 16-byte file header
  bad_magic,            // not a checkpoint container
  bad_version,          // written by an incompatible container revision
  torn_chunk,           // a chunk header or payload runs past EOF (torn write)
  bad_chunk_crc,        // a chunk's payload fails its CRC32C (bit rot)
  unknown_chunk,        // unrecognized chunk type
  bad_manifest,         // manifest missing, duplicated, malformed, or not first
  missing_commit,       // file ends cleanly but no commit record (never sealed)
  commit_mismatch,      // commit disagrees with the chunks preceding it
  trailing_data,        // bytes after the commit record (duplicate commit etc.)
  shard_chunk_mismatch,  // shard chunks out of order / count != manifest's
};

inline const char* verify_name(Verify v) {
  switch (v) {
    case Verify::ok: return "ok";
    case Verify::short_header: return "short_header";
    case Verify::bad_magic: return "bad_magic";
    case Verify::bad_version: return "bad_version";
    case Verify::torn_chunk: return "torn_chunk";
    case Verify::bad_chunk_crc: return "bad_chunk_crc";
    case Verify::unknown_chunk: return "unknown_chunk";
    case Verify::bad_manifest: return "bad_manifest";
    case Verify::missing_commit: return "missing_commit";
    case Verify::commit_mismatch: return "commit_mismatch";
    case Verify::trailing_data: return "trailing_data";
    case Verify::shard_chunk_mismatch: return "shard_chunk_mismatch";
  }
  return "unknown";
}

struct Manifest {
  SketchKind kind = SketchKind::single;
  std::uint32_t shard_count = 0;
  std::uint64_t total_elements = 0;  // advisory (facade size at snapshot time)
};

// A fully verified container, viewing (not owning) the input bytes.
struct Parsed {
  std::uint64_t generation = 0;
  Manifest manifest;
  std::vector<std::span<const std::byte>> shard_blobs;  // serde images
};

struct ParseResult {
  Verify status = Verify::ok;
  std::size_t chunk_index = 0;  // offending chunk for chunk-level statuses
  bool ok() const { return status == Verify::ok; }
};

namespace detail {

inline void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v & 0xFFu));
  out.push_back(static_cast<std::byte>((v >> 8) & 0xFFu));
}
inline void set_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
}
inline void set_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
}
inline void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  out.resize(out.size() + 4);
  set_u32(out.data() + out.size() - 4, v);
}
inline void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  out.resize(out.size() + 8);
  set_u64(out.data() + out.size() - 8, v);
}
inline std::uint16_t get_u16(const std::byte* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}
inline std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
inline std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace detail

// Builds a container image in memory: header, then chunks in call order,
// then (finish()) the commit record.  The caller owns chunk ordering —
// manifest first, shard chunks in index order — which checkpoint encoding
// does and parse_container() enforces.  Every chunk is framed in place: its
// header is reserved, the payload is written straight into the image after
// it, and the header is patched once the CRC over that span is known.
class ContainerWriter {
 public:
  explicit ContainerWriter(std::uint64_t generation) : generation_(generation) {
    detail::put_u32(bytes_, kContainerMagic);
    detail::put_u16(bytes_, kContainerVersion);
    detail::put_u16(bytes_, 0);  // flags: reserved
    detail::put_u64(bytes_, generation);
  }

  void add_manifest(SketchKind kind, std::uint32_t shard_count,
                    std::uint64_t total_elements) {
    const std::size_t start = begin_chunk();
    detail::put_u32(bytes_, static_cast<std::uint32_t>(kind));
    detail::put_u32(bytes_, shard_count);
    detail::put_u64(bytes_, total_elements);
    end_chunk(ChunkType::manifest, start);
  }

  void add_shard(std::uint32_t shard_index, std::span<const std::byte> blob) {
    const std::size_t start = begin_chunk();
    detail::put_u32(bytes_, shard_index);
    bytes_.insert(bytes_.end(), blob.begin(), blob.end());
    end_chunk(ChunkType::shard, start);
  }

  // A shard chunk whose serde image is written in place: `emit` gets the
  // `capacity` bytes after the chunk header and shard_index and returns how
  // many it wrote, as Quancurrent::serialize does.  A return of 0 means the
  // image did not fit: the chunk is dropped again and the call returns
  // false, so the caller can retry with a fresh size.  Frames the same bytes
  // add_shard() does for the same image, without staging it elsewhere.
  template <typename Emit>
  bool emplace_shard(std::uint32_t shard_index, std::size_t capacity, Emit&& emit) {
    const std::size_t start = begin_chunk();
    detail::put_u32(bytes_, shard_index);
    const std::size_t at = bytes_.size();
    // Room for the commit chunk too, so a single-shard finish() never
    // reallocates; geometric, so many shards stay linear.
    const std::size_t need = at + capacity + kChunkHeaderBytes + kCommitPayloadBytes;
    if (need > bytes_.capacity()) bytes_.reserve(std::max(need, 2 * bytes_.capacity()));
    bytes_.resize(at + capacity);
    const std::size_t written = emit(std::span<std::byte>(bytes_.data() + at, capacity));
    if (written == 0) {
      bytes_.resize(start);
      return false;
    }
    bytes_.resize(at + written);
    end_chunk(ChunkType::shard, start);
    return true;
  }

  // Seals the container with the commit record and releases the image.
  std::vector<std::byte> finish() && {
    const std::size_t start = begin_chunk();
    detail::put_u64(bytes_, generation_);
    detail::put_u32(bytes_, chunk_count_);
    detail::put_u32(bytes_, 0);  // reserved
    detail::put_u64(bytes_, payload_total_);
    detail::put_u32(bytes_, crc32c(crc_seq_.data(), crc_seq_.size()));
    end_chunk(ChunkType::commit, start);
    return std::move(bytes_);
  }

 private:
  // Reserves a chunk header; the payload follows it directly.
  std::size_t begin_chunk() {
    const std::size_t start = bytes_.size();
    bytes_.resize(start + kChunkHeaderBytes);
    return start;
  }

  // Checksums the payload written since begin_chunk() and fills in the
  // header in front of it.
  void end_chunk(ChunkType type, std::size_t start) {
    std::byte* hdr = bytes_.data() + start;
    const std::size_t len = bytes_.size() - start - kChunkHeaderBytes;
    const std::uint32_t crc = crc32c(hdr + kChunkHeaderBytes, len);
    detail::set_u32(hdr, static_cast<std::uint32_t>(type));
    detail::set_u32(hdr + 4, crc);
    detail::set_u64(hdr + 8, len);
    if (type != ChunkType::commit) {
      detail::put_u32(crc_seq_, crc);
      payload_total_ += len;
      ++chunk_count_;
    }
  }

  std::uint64_t generation_;
  std::uint32_t chunk_count_ = 0;
  std::uint64_t payload_total_ = 0;
  std::vector<std::byte> crc_seq_;  // little-endian CRCs, in chunk order
  std::vector<std::byte> bytes_;
};

// Full verification in one pass: frame bounds, every chunk CRC, chunk
// grammar (manifest first, shards in order, commit last and alone), commit
// consistency, strict EOF.  `out` views `in` — it is only valid while the
// input bytes live, and only populated on Verify::ok.
inline ParseResult parse_container(std::span<const std::byte> in, Parsed& out) {
  out = Parsed{};
  if (in.size() < kFileHeaderBytes) return {Verify::short_header, 0};
  if (detail::get_u32(in.data()) != kContainerMagic) return {Verify::bad_magic, 0};
  if (detail::get_u16(in.data() + 4) != kContainerVersion) return {Verify::bad_version, 0};
  out.generation = detail::get_u64(in.data() + 8);

  std::size_t off = kFileHeaderBytes;
  std::size_t index = 0;
  bool have_manifest = false;
  std::uint32_t chunk_count = 0;
  std::uint64_t payload_total = 0;
  std::vector<std::byte> crc_seq;
  for (;; ++index) {
    if (off == in.size()) return {Verify::missing_commit, index};
    if (in.size() - off < kChunkHeaderBytes) return {Verify::torn_chunk, index};
    const std::byte* hdr = in.data() + off;
    const std::uint32_t type_raw = detail::get_u32(hdr);
    const std::uint32_t stored_crc = detail::get_u32(hdr + 4);
    const std::uint64_t len = detail::get_u64(hdr + 8);
    if (len > in.size() - off - kChunkHeaderBytes) return {Verify::torn_chunk, index};
    const std::byte* payload = hdr + kChunkHeaderBytes;
    if (crc32c(payload, static_cast<std::size_t>(len)) != stored_crc) {
      return {Verify::bad_chunk_crc, index};
    }
    off += kChunkHeaderBytes + static_cast<std::size_t>(len);

    switch (static_cast<ChunkType>(type_raw)) {
      case ChunkType::manifest: {
        if (have_manifest || index != 0 || len != kManifestPayloadBytes) {
          return {Verify::bad_manifest, index};
        }
        const std::uint32_t kind = detail::get_u32(payload);
        if (kind != static_cast<std::uint32_t>(SketchKind::single) &&
            kind != static_cast<std::uint32_t>(SketchKind::sharded)) {
          return {Verify::bad_manifest, index};
        }
        out.manifest.kind = static_cast<SketchKind>(kind);
        out.manifest.shard_count = detail::get_u32(payload + 4);
        out.manifest.total_elements = detail::get_u64(payload + 8);
        if (out.manifest.kind == SketchKind::single && out.manifest.shard_count != 1) {
          return {Verify::bad_manifest, index};
        }
        have_manifest = true;
        break;
      }
      case ChunkType::shard: {
        if (!have_manifest) return {Verify::bad_manifest, index};
        if (len < 4 || detail::get_u32(payload) != out.shard_blobs.size()) {
          return {Verify::shard_chunk_mismatch, index};
        }
        out.shard_blobs.emplace_back(payload + 4, static_cast<std::size_t>(len - 4));
        break;
      }
      case ChunkType::commit: {
        if (len != kCommitPayloadBytes) return {Verify::commit_mismatch, index};
        if (!have_manifest) return {Verify::bad_manifest, index};
        if (detail::get_u64(payload) != out.generation ||
            detail::get_u32(payload + 8) != chunk_count ||
            detail::get_u64(payload + 16) != payload_total ||
            detail::get_u32(payload + 24) != crc32c(crc_seq.data(), crc_seq.size())) {
          return {Verify::commit_mismatch, index};
        }
        if (off != in.size()) return {Verify::trailing_data, index};
        if (out.manifest.shard_count != out.shard_blobs.size()) {
          return {Verify::shard_chunk_mismatch, index};
        }
        return {Verify::ok, index};
      }
      default:
        return {Verify::unknown_chunk, index};
    }
    detail::put_u32(crc_seq, stored_crc);
    payload_total += len;
    ++chunk_count;
  }
}

}  // namespace qc::recovery
