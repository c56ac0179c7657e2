// Versioned binary serialization for the public sketch API.
//
// Wire format (engine-specific payload follows the common header):
//
//   offset  size  field
//   0       4     magic "QCSK" (0x4B534351 as a native u32)
//   4       2     format version (kVersion)
//   6       2     endianness tag (0x0102 stored natively; a reader on a
//                 machine of the other endianness sees 0x0201 and rejects)
//   8       1     engine id (Engine enum)
//   9       1     sizeof(item type)
//   10      2     reserved (zero)
//
// Values are stored in native byte order and the header tag makes a foreign
// reader fail fast instead of mis-decoding — the format targets shipping
// summaries between processes of one fleet (merge-at-aggregation-time, as
// Ivkin et al. deploy KLL), not archival cross-architecture storage.
//
// Writer doubles as a size counter: constructed without a buffer it performs
// no stores and just advances the cursor, so `serialized_size()` and
// `serialize()` share one payload-emission function and agree on any
// quiesced sketch.  Since a measuring writer never reads what it is handed,
// an engine may size its image from the shape alone (Quancurrent passes
// null for its ladder and tail and so sizes without taking its install
// latch); the checkpoint encoder serializes straight into the container
// with headroom for what a live sketch gains in between.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "fault/inject.hpp"

namespace qc::serde {

inline constexpr std::uint32_t kMagic = 0x4B534351u;  // "QCSK"
inline constexpr std::uint16_t kVersion = 4;  // v4: concurrent images drop
                                              // the presort + combine-depth
                                              // bytes (v3: retire-cap +
                                              // watchdog knobs; v2: IBR +
                                              // propagation knobs)
inline constexpr std::uint16_t kEndianness = 0x0102;
// What a reader on a machine of the other byte order sees in each field of a
// blob written natively here (and vice versa).
inline constexpr std::uint32_t kSwappedMagic = 0x5143534Bu;
inline constexpr std::uint16_t kSwappedEndianness = 0x0201;

enum class Engine : std::uint8_t {
  sequential = 1,  // sequential::QuantilesSketch
  concurrent = 2,  // core::Quancurrent
};

enum class Status : std::uint8_t {
  ok = 0,
  short_buffer,     // input/output buffer too small (truncation)
  bad_magic,        // not a qc sketch blob
  bad_version,      // produced by an incompatible format revision
  bad_endianness,   // produced on a machine of the other byte order
  bad_payload,      // engine/item mismatch or internally inconsistent fields
};

inline const char* status_name(Status s) {
  switch (s) {
    case Status::ok: return "ok";
    case Status::short_buffer: return "short_buffer";
    case Status::bad_magic: return "bad_magic";
    case Status::bad_version: return "bad_version";
    case Status::bad_endianness: return "bad_endianness";
    case Status::bad_payload: return "bad_payload";
  }
  return "unknown";
}

// Bounded cursor over an output span.  All puts after an overflow are no-ops
// and `ok()` turns false; `measuring()` writers never overflow and only count.
class Writer {
 public:
  Writer() = default;  // measuring mode: counts bytes, stores nothing
  explicit Writer(std::span<std::byte> out) : buf_(out.data()), cap_(out.size()) {}

  template <typename U>
    requires std::is_trivially_copyable_v<U>
  void put(const U& value) {
    put_bytes(&value, sizeof(U));
  }

  void put_bytes(const void* data, std::size_t n) {
    if (buf_ != nullptr) {
      if (!ok_ || cap_ - pos_ < n) {
        ok_ = false;
        return;
      }
      // n == 0 may come with a null `data` (an empty tail's data()).
      if (n != 0) std::memcpy(buf_ + pos_, data, n);
      // Chaos builds only: model a bit flip between serialization and
      // deserialization (bad disk, bad NIC).  Corrupts the stored copy, never
      // the caller's data; a measuring writer stores nothing to corrupt.
      QC_INJECT_CORRUPT(serde_corrupt, buf_ + pos_, n);
    }
    pos_ += n;
  }

  bool measuring() const { return buf_ == nullptr; }
  bool ok() const { return ok_; }
  std::size_t bytes() const { return pos_; }

 private:
  std::byte* buf_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Bounded cursor over an input span; every get reports whether the buffer
// still covered it, so truncated inputs fail deterministically.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> in) : buf_(in.data()), cap_(in.size()) {}

  template <typename U>
    requires std::is_trivially_copyable_v<U>
  [[nodiscard]] bool get(U& value) {
    return get_bytes(&value, sizeof(U));
  }

  [[nodiscard]] bool get_bytes(void* out, std::size_t n) {
    if (cap_ - pos_ < n) return false;
    if (n != 0) std::memcpy(out, buf_ + pos_, n);
    pos_ += n;
    return true;
  }

  std::size_t remaining() const { return cap_ - pos_; }

 private:
  const std::byte* buf_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t pos_ = 0;
};

inline void write_header(Writer& w, Engine engine, std::uint8_t item_size) {
  w.put(kMagic);
  w.put(kVersion);
  w.put(kEndianness);
  w.put(static_cast<std::uint8_t>(engine));
  w.put(item_size);
  w.put(std::uint16_t{0});  // reserved
}

// Consumes and validates the common header.  A foreign-byte-order blob is
// detected FIRST — its magic is byte-swapped too, so a magic-first check
// would misreport it as "not a sketch" and bad_endianness would be
// unreachable (a historic bug, regression-tested).  The swapped-magic probe
// recognizes foreign blobs even when only the magic survived truncation;
// after that the order is magic before version before endianness (the last
// catching a corrupted tag on an otherwise native blob).
inline Status read_header(Reader& r, Engine expected_engine, std::uint8_t item_size) {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t endianness = 0;
  std::uint8_t engine = 0;
  std::uint8_t isize = 0;
  std::uint16_t reserved = 0;
  if (!r.get(magic)) return Status::short_buffer;
  if (magic == kSwappedMagic) return Status::bad_endianness;
  if (magic != kMagic) return Status::bad_magic;
  if (!r.get(version)) return Status::short_buffer;
  if (version != kVersion) return Status::bad_version;
  if (!r.get(endianness)) return Status::short_buffer;
  if (endianness != kEndianness) return Status::bad_endianness;
  if (!r.get(engine) || !r.get(isize) || !r.get(reserved)) return Status::short_buffer;
  if (engine != static_cast<std::uint8_t>(expected_engine) || isize != item_size) {
    return Status::bad_payload;
  }
  return Status::ok;
}

inline void set_status(Status* out, Status s) {
  if (out != nullptr) *out = s;
}

}  // namespace qc::serde
