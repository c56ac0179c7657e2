// Durable checkpoint/restore for live sketches.
//
//   Checkpointer<Sketch>   periodic crash-safe snapshots of a Quancurrent or
//                          ShardedQuancurrent (any engine with the serde
//                          surface works; the sharded facade gets per-shard
//                          chunks) into <dir>/<name>.<generation>.qckp
//   recover<T>()           newest fully-verified single-sketch checkpoint
//   recover_sharded<T>()   same for the sharded facade, optionally restoring
//                          into a different shard count (re-routed via merge)
//   serialize_sharded() /
//   deserialize_sharded()  the container as an in-memory sharded serde — the
//                          ShardedQuancurrent round-trip the unframed
//                          serde never had
//
// Crash-consistency protocol (the classic one, with every step a named
// fault point — see recovery/io.hpp):
//
//   build image in memory -> write <final>.tmp (segmented) -> fsync(file)
//     -> rename(tmp, final) -> fsync(directory)
//
// A crash before the rename leaves only a .tmp (ignored and later swept); a
// crash after it leaves a complete, committed file.  The only window where a
// FINAL-named file can be incomplete is filesystem reordering the rename
// before the data blocks — which the pre-rename fsync forbids — so every
// surviving <name>.<gen>.qckp either passes full container verification or
// proves media-level corruption, and recovery falls back generation by
// generation until one verifies.  Snapshots ride the engine's ladder image,
// the one merge_into uses: one install-latch hold per shard reads the run
// pointers and pins an IBR epoch, and the runs are copied unlatched, so
// concurrent queriers stay wait-free and a snapshot holds the latch for
// O(levels), not O(k * runs).  The image is built without staging copies:
// each shard's serde image is serialized straight into the container buffer
// (ContainerWriter::emplace_shard) and checksummed there, and its size
// comes from a lock-free probe.
//
// Transient I/O errors (and injected ones) retry the whole attempt with
// bounded exponential backoff — the sleeping cousin of common/backoff.hpp's
// pause->yield spin ladder, with the same geometric-escalation-to-a-cap
// shape at syscall timescales.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/quancurrent.hpp"
#include "core/sharded.hpp"
#include "recovery/container.hpp"
#include "recovery/io.hpp"
#include "serde/binary.hpp"

namespace qc::recovery {

struct CheckpointOptions {
  std::string dir;              // checkpoint directory (created if missing)
  std::string name = "sketch";  // file stem: <name>.<generation>.qckp
  std::uint32_t keep = 3;       // committed generations retained on disk
  std::uint32_t attempts = 5;   // write attempts per checkpoint() (>= 1)
  std::uint32_t backoff_init_us = 100;     // first retry delay
  std::uint32_t backoff_cap_us = 20'000;   // retry delay ceiling
  bool fsync_directory = true;  // fsync the dir after rename (full durability)
};

struct CheckpointStats {
  std::uint64_t committed = 0;  // checkpoints durably renamed into place
  std::uint64_t failed = 0;     // checkpoint() calls that exhausted attempts
  std::uint64_t retries = 0;    // attempts retried after a transient I/O error
  std::uint64_t pruned = 0;     // expired generation files unlinked
};

// What recovery did and why: every rejected candidate with its reason
// (container Verify name, serde status, or "io_error"), newest first, plus
// the identity of the checkpoint that won.
struct RecoveryReport {
  struct Skipped {
    std::string file;
    std::string reason;
  };
  std::vector<Skipped> skipped;
  std::string recovered_file;  // empty: no recoverable checkpoint found
  std::uint64_t generation = 0;
  std::uint32_t stored_shards = 0;
  bool rerouted = false;  // shard-count change bridged via merge re-routing
  bool ok() const { return !recovered_file.empty(); }
};

// Engines whose checkpoint should be per-shard chunks (the sharded facade).
template <typename S>
concept ShardedEngine = requires(const S& s) {
  { s.num_shards() } -> std::convertible_to<std::uint32_t>;
  s.shard(std::uint32_t{0});
};

namespace detail {

// Frames one sketch's serde image as shard chunk `index`, serialized in
// place into the container (no staging blob).  The size comes from
// serialized_size(), which takes no lock and stores nothing; the image
// then takes the install latch once, to read the run pointers.  Installs
// that land in between can grow the ladder, so the chunk gets two k-item
// runs of headroom (each install adds at most one run); a ladder that
// outgrew even that makes serialize() report 0, and the chunk is retried
// with a fresh size, as qc::to_bytes does.  Engines without a k (the sequential sketches) cannot
// grow concurrently and get none.
//
// Capability note (common/annotations.hpp): serialize() takes the sketch's
// install latch internally (QC_EXCLUDES on its side), in its LadderImage, so
// the image's rules — pin only under the latch, wait on nothing of the
// sketch while pinned — are enforced where the latch lives.  This helper,
// and the Checkpointer above it, must therefore never be called with that
// latch held; the image would deadlock acquiring it.
template <typename Sketch>
void add_sketch_shard(ContainerWriter& w, std::uint32_t index, const Sketch& sk) {
  std::size_t headroom = 0;
  if constexpr (requires { sk.options().k; }) {
    headroom = 2 * static_cast<std::size_t>(sk.options().k) *
               sizeof(typename Sketch::value_type);
  }
  while (!w.emplace_shard(index, sk.serialized_size() + headroom,
                          [&](std::span<std::byte> out) { return sk.serialize(out); })) {
  }
}

inline std::string gen_filename(const std::string& name, std::uint64_t gen) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%020llu",
                static_cast<unsigned long long>(gen));
  return name + "." + digits + ".qckp";
}

// Parses "<name>.<20 digits>.qckp[.tmp]"; false when `file` is not one of
// ours (recovery shares directories with anything).
inline bool parse_gen(const std::string& file, const std::string& name,
                      std::uint64_t& gen, bool& is_tmp) {
  const std::string prefix = name + ".";
  if (file.size() < prefix.size() + 20 + 5) return false;
  if (file.compare(0, prefix.size(), prefix) != 0) return false;
  gen = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const char c = file[prefix.size() + i];
    if (c < '0' || c > '9') return false;
    gen = gen * 10 + static_cast<std::uint64_t>(c - '0');
  }
  const std::string rest = file.substr(prefix.size() + 20);
  if (rest == ".qckp") {
    is_tmp = false;
    return true;
  }
  if (rest == ".qckp.tmp") {
    is_tmp = true;
    return true;
  }
  return false;
}

// Committed checkpoints in `dir` for `name`, newest generation first.
inline std::vector<std::pair<std::uint64_t, std::string>> list_generations(
    const std::string& dir, const std::string& name) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    std::uint64_t gen = 0;
    bool is_tmp = false;
    if (parse_gen(it->path().filename().string(), name, gen, is_tmp) && !is_tmp) {
      out.emplace_back(gen, it->path().string());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace detail

// The full container image for one sketch at one generation.  Sharded
// engines get one chunk per shard (each shard serialized under its own
// latch — per-shard consistent, facade-level a momentary cut, same as any
// cross-shard query); everything else is a single-shard container.  The
// manifest goes first, so its advisory total_elements is the size() read
// before any shard is imaged.
template <typename Sketch>
std::vector<std::byte> encode_checkpoint(const Sketch& sketch,
                                         std::uint64_t generation) {
  ContainerWriter w(generation);
  if constexpr (ShardedEngine<Sketch>) {
    const std::uint32_t shards = sketch.num_shards();
    w.add_manifest(SketchKind::sharded, shards, sketch.size());
    for (std::uint32_t s = 0; s < shards; ++s) {
      detail::add_sketch_shard(w, s, sketch.shard(s));
    }
  } else {
    w.add_manifest(SketchKind::single, 1, sketch.size());
    detail::add_sketch_shard(w, 0, sketch);
  }
  return std::move(w).finish();
}

// Periodic durable snapshots of one live sketch.  Not thread-safe itself
// (one checkpointing thread), but checkpoint() runs concurrently with the
// sketch's updaters and queriers under the engine's normal contracts.
template <typename Sketch>
class Checkpointer {
 public:
  Checkpointer(const Sketch& sketch, CheckpointOptions opts)
      : sketch_(&sketch), opts_(std::move(opts)) {
    if (opts_.keep == 0) opts_.keep = 1;
    if (opts_.attempts == 0) opts_.attempts = 1;
    std::error_code ec;
    std::filesystem::create_directories(opts_.dir, ec);
    // Resume the generation sequence after a restart: newer numbers must
    // never collide with what a previous incarnation committed.
    const auto existing = detail::list_generations(opts_.dir, opts_.name);
    last_committed_ = existing.empty() ? 0 : existing.front().first;
  }

  // Snapshots the sketch and makes it durable; true when a new generation
  // committed.  False only after `attempts` tries each failed on I/O — the
  // previous generations on disk are untouched either way.
  bool checkpoint() {
    const std::uint64_t gen = last_committed_ + 1;
    std::uint32_t delay_us = opts_.backoff_init_us;
    for (std::uint32_t attempt = 0; attempt < opts_.attempts; ++attempt) {
      if (attempt != 0) {
        ++stats_.retries;
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        delay_us = std::min(delay_us * 2, opts_.backoff_cap_us);
      }
      if (try_once(gen)) {
        last_committed_ = gen;
        ++stats_.committed;
        prune();
        return true;
      }
    }
    ++stats_.failed;
    return false;
  }

  // Last generation known durably committed (0: none yet this incarnation's
  // dir).  After recover(), the RecoveryReport's generation says which of
  // these actually survived.
  std::uint64_t generation() const { return last_committed_; }
  const CheckpointStats& stats() const { return stats_; }
  const CheckpointOptions& options() const { return opts_; }

 private:
  bool try_once(std::uint64_t gen) {
    // Fresh snapshot every attempt: a retry after a failed write should ship
    // the sketch's CURRENT state, not a stale image.
    const std::vector<std::byte> image = encode_checkpoint(*sketch_, gen);
    const std::string final_path =
        (std::filesystem::path(opts_.dir) / detail::gen_filename(opts_.name, gen))
            .string();
    const std::string tmp_path = final_path + ".tmp";
    const int fd =
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return false;
    bool ok = io::write_all(fd, image.data(), image.size()) && io::fsync_file(fd);
    ok = (::close(fd) == 0) && ok;
    if (!ok || !io::rename_file(tmp_path.c_str(), final_path.c_str())) {
      ::unlink(tmp_path.c_str());
      return false;
    }
    // Publish durability: without this a power cut can forget the rename.
    // Failing here retries the whole attempt — re-writing and re-renaming
    // the same generation is idempotent.
    if (opts_.fsync_directory && !io::fsync_dir(opts_.dir.c_str())) return false;
    return true;
  }

  // Runs only after a successful commit: expire generations beyond `keep`
  // and sweep stray temp files (any .tmp present now is a dead attempt —
  // ours was either renamed or already unlinked).
  void prune() {
    namespace fs = std::filesystem;
    const auto existing = detail::list_generations(opts_.dir, opts_.name);
    for (std::size_t i = opts_.keep; i < existing.size(); ++i) {
      if (::unlink(existing[i].second.c_str()) == 0) ++stats_.pruned;
    }
    std::error_code ec;
    for (fs::directory_iterator it(opts_.dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      std::uint64_t gen = 0;
      bool is_tmp = false;
      if (detail::parse_gen(it->path().filename().string(), opts_.name, gen,
                            is_tmp) &&
          is_tmp) {
        ::unlink(it->path().string().c_str());
      }
    }
  }

  const Sketch* sketch_;
  CheckpointOptions opts_;
  CheckpointStats stats_;
  std::uint64_t last_committed_ = 0;
};

namespace detail {

// Walks committed checkpoints newest-first.  Each candidate must pass FULL
// verification — readable, every chunk CRC, commit record, and an engine
// decode that accepts every payload — before it wins; any failure records
// the file and reason and falls back to the next-older generation.
template <typename Decode>
auto recover_scan(const std::string& dir, const std::string& name,
                  RecoveryReport* report, Decode&& decode) {
  using Result = std::invoke_result_t<Decode&, const Parsed&, std::string&>;
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport{};
  for (const auto& [gen, path] : list_generations(dir, name)) {
    std::vector<std::byte> bytes;
    if (!io::read_file(path.c_str(), bytes)) {
      rep.skipped.push_back({path, "io_error"});
      continue;
    }
    Parsed parsed;
    const ParseResult pr = parse_container(bytes, parsed);
    if (!pr.ok()) {
      rep.skipped.push_back({path, verify_name(pr.status)});
      continue;
    }
    std::string why;
    Result sk = decode(parsed, why);
    if (sk == nullptr) {
      rep.skipped.push_back({path, why.empty() ? "payload_rejected" : why});
      continue;
    }
    rep.recovered_file = path;
    rep.generation = parsed.generation;
    rep.stored_shards = static_cast<std::uint32_t>(parsed.shard_blobs.size());
    return sk;
  }
  return Result{};
}

// Shard blobs -> a facade.  want_shards == 0 or == stored adopts the
// deserialized shards directly (bit-exact restore); any other width rebuilds
// at the requested count and re-routes the stored shards round-robin via
// merge_into — total weight is conserved and answers stay within the
// per-sketch rank-error envelope (merge error composes within O(1/k)).
template <typename T, typename Compare>
std::unique_ptr<core::ShardedQuancurrent<T, Compare>> decode_sharded(
    const Parsed& parsed, std::uint32_t want_shards, std::string& why,
    bool* rerouted) {
  using Sharded = core::ShardedQuancurrent<T, Compare>;
  using Shard = core::Quancurrent<T, Compare>;
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(parsed.shard_blobs.size());
  for (std::size_t s = 0; s < parsed.shard_blobs.size(); ++s) {
    serde::Status st = serde::Status::ok;
    auto sk = Shard::deserialize(parsed.shard_blobs[s], &st);
    if (sk == nullptr) {
      why = "shard " + std::to_string(s) + ": " + serde::status_name(st);
      return nullptr;
    }
    shards.push_back(std::move(sk));
  }
  const std::uint32_t stored = static_cast<std::uint32_t>(shards.size());
  if (stored == 0) {
    why = "no_shard_chunks";
    return nullptr;
  }
  if (want_shards == 0 || want_shards == stored) {
    auto out = Sharded::adopt(std::move(shards));
    if (out == nullptr) why = "adopt_failed";
    return out;
  }
  const core::Options opts = shards[0]->options();
  auto out = std::make_unique<Sharded>(want_shards, opts);
  for (std::uint32_t s = 0; s < stored; ++s) {
    if (!shards[s]->merge_into(out->shard(s % want_shards))) {
      why = "shard " + std::to_string(s) + ": merge_reroute_failed";
      return nullptr;
    }
  }
  if (rerouted != nullptr) *rerouted = true;
  return out;
}

}  // namespace detail

// Newest fully-verified single-sketch checkpoint under <dir>/<name>.*, or
// nullptr when none survives (report says what was tried and why each
// candidate lost).
template <typename T, typename Compare = std::less<T>>
std::unique_ptr<core::Quancurrent<T, Compare>> recover(
    const std::string& dir, const std::string& name,
    RecoveryReport* report = nullptr) {
  return detail::recover_scan(
      dir, name, report,
      [](const Parsed& parsed,
         std::string& why) -> std::unique_ptr<core::Quancurrent<T, Compare>> {
        if (parsed.manifest.kind != SketchKind::single) {
          why = "kind_mismatch";
          return nullptr;
        }
        serde::Status st = serde::Status::ok;
        auto sk = core::Quancurrent<T, Compare>::deserialize(parsed.shard_blobs[0], &st);
        if (sk == nullptr) why = serde::status_name(st);
        return sk;
      });
}

// Sharded restore.  `shards` == 0 restores at the stored width (bit-exact
// per shard); a different width re-routes via merge (report->rerouted).
// Accepts single-kind checkpoints too — a lone sketch can be promoted into a
// sharded serving tier.
template <typename T, typename Compare = std::less<T>>
std::unique_ptr<core::ShardedQuancurrent<T, Compare>> recover_sharded(
    const std::string& dir, const std::string& name, std::uint32_t shards = 0,
    RecoveryReport* report = nullptr) {
  bool rerouted = false;
  auto sk = detail::recover_scan(
      dir, name, report,
      [&](const Parsed& parsed, std::string& why) {
        bool rr = false;
        auto out = detail::decode_sharded<T, Compare>(parsed, shards, why, &rr);
        if (out != nullptr) rerouted = rr;
        return out;
      });
  if (sk != nullptr && report != nullptr) report->rerouted = rerouted;
  return sk;
}

// The container as an in-memory sharded serde — the ShardedQuancurrent
// round-trip the unframed serde never had.  Same bytes a checkpoint file
// holds, minus the file.
template <typename T, typename Compare>
std::vector<std::byte> serialize_sharded(
    const core::ShardedQuancurrent<T, Compare>& sketch,
    std::uint64_t generation = 0) {
  return encode_checkpoint(sketch, generation);
}

template <typename T, typename Compare = std::less<T>>
std::unique_ptr<core::ShardedQuancurrent<T, Compare>> deserialize_sharded(
    std::span<const std::byte> in, std::uint32_t shards = 0,
    std::string* why = nullptr) {
  Parsed parsed;
  const ParseResult pr = parse_container(in, parsed);
  if (!pr.ok()) {
    if (why != nullptr) *why = verify_name(pr.status);
    return nullptr;
  }
  std::string local;
  auto sk = detail::decode_sharded<T, Compare>(parsed, shards, local, nullptr);
  if (sk == nullptr && why != nullptr) *why = local;
  return sk;
}

}  // namespace qc::recovery
