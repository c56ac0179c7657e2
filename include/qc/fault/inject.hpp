// Deterministic, seed-driven fault injection for the engine's failure model.
//
// The engine's degradation guarantees (see README, "Failure model &
// degradation") are only guarantees if something exercises them.  This header
// defines NAMED INJECTION POINTS threaded through the hot paths —
// allocation failure on the cascade/tail/query/merge/deserialize paths,
// artificial stalls (a wedged latch holder, a parked querier, a preempted
// gather writer, a batch owner parked before its merge, a full install ring,
// a paused ladder-image copy or snapshot re-check), and serde byte
// corruption — plus a process-wide Injector that decides, deterministically
// from a seed and a per-point hit counter, whether each encounter fires.
//
// Build model.  Everything here compiles to NOTHING unless QC_FAULT_INJECT is
// defined: the QC_INJECT_* macros expand to `void(0)` and no Injector state
// exists, so production binaries carry zero overhead and zero new branches.
// The dedicated chaos build (-DQC_FAULT_INJECT=ON in CMake, or the per-target
// define on tests/test_fault.cpp) compiles the points in.  The engine is
// header-only, so a per-target define is ODR-safe: each binary sees one
// consistent configuration.
//
// Determinism.  A point fires on hit h iff
//     splitmix64(seed ^ point ^ h) % 1'000'000 < probability_ppm(point)
// or h equals an armed one-shot hit number.  Hit counters are per-point
// atomics, so a single-threaded run replays exactly; multi-threaded runs are
// deterministic in the aggregate (same fire COUNT distribution for a given
// interleaving) and the seed is always logged so a failure reproduces.
//
// Stalls.  Stall points call a pluggable handler (default: sleep).  Tests
// install their own handler to park a thread on a flag — that is how the
// "stalled querier keeps retired memory bounded" chaos test wedges a reader
// at a precise point with a pin held.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qc::fault {

// Every named injection point in the engine.  Keep point_name() in sync.
enum class Point : std::uint8_t {
  level_block_alloc = 0,  // alloc_block(): a LevelBlock `new` on the cascade
                          // or deserialize path fails
  tail_alloc,             // push_tail(): allocating the merge scratch or
                          // the replacement tail block fails
  merge_alloc,            // merge_into(): the run-buffer reserve fails
                          // (ladder imaged and pinned, nothing installed)
  deserialize_alloc,      // deserialize(): a payload allocation fails
  install_queue_full,     // acquire_cell(): delay a producer as if the ring
                          // were full (backpressure path)
  latch_stall,            // install(): wedge the install-latch holder (a
                          // queue drainer or push_tail) between writing its
                          // install and publishing it
  querier_stall,          // Querier::refresh(): park a reader right after its
                          // LadderImage loaded the run pointers, pin held,
                          // before the re-check and any reference
  gather_stall,           // flush_chunk(): preempt a writer between its
                          // reservation and its commit
  serde_corrupt,          // serde::Writer::put_bytes(): flip one bit in an
                          // emitted byte
  short_write,            // recovery/io.hpp write_all(): a write(2) segment
                          // tears — half lands, then the device errors
  fsync_fail,             // recovery/io.hpp fsync_file()/fsync_dir(): fsync
                          // reports failure before reaching stable storage
  rename_fail,            // recovery/io.hpp rename_file(): the atomic
                          // publish rename fails
  read_corrupt,           // recovery/io.hpp read_file(): one bit of the
                          // loaded checkpoint image rots
  ladder_image_copy,      // LadderImage::for_each_run(): act before a run is
                          // read, latch released, pin held
  querier_recheck,        // Querier::refresh(): act between the image's
                          // pointer loads and the install-seq re-check, pin
                          // held (an install here fails the attempt, and
                          // the attempt then references nothing)
  querier_ref,            // Querier::reference_levels(): act before a view
                          // takes a reference to a level block, pin held;
                          // its hit count is the number of references taken
  owner_merge,            // flush_chunk(): park a batch owner after it
                          // copied its gather buffer out and reopened the
                          // ordinal, before its chunk merge
  kCount,
};

inline constexpr std::size_t kPointCount = static_cast<std::size_t>(Point::kCount);

inline const char* point_name(Point p) {
  switch (p) {
    case Point::level_block_alloc: return "level_block_alloc";
    case Point::tail_alloc: return "tail_alloc";
    case Point::merge_alloc: return "merge_alloc";
    case Point::deserialize_alloc: return "deserialize_alloc";
    case Point::install_queue_full: return "install_queue_full";
    case Point::latch_stall: return "latch_stall";
    case Point::querier_stall: return "querier_stall";
    case Point::gather_stall: return "gather_stall";
    case Point::serde_corrupt: return "serde_corrupt";
    case Point::short_write: return "short_write";
    case Point::fsync_fail: return "fsync_fail";
    case Point::rename_fail: return "rename_fail";
    case Point::read_corrupt: return "read_corrupt";
    case Point::ladder_image_copy: return "ladder_image_copy";
    case Point::querier_recheck: return "querier_recheck";
    case Point::querier_ref: return "querier_ref";
    case Point::owner_merge: return "owner_merge";
    case Point::kCount: break;
  }
  return "unknown";
}

}  // namespace qc::fault

#if defined(QC_FAULT_INJECT)

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

namespace qc::fault {

struct PointCounters {
  std::uint64_t hits = 0;   // times the code path reached the point
  std::uint64_t fires = 0;  // times the point actually injected
};

class Injector {
 public:
  // One process-wide instance: injection describes the environment (a failing
  // allocator, a preempting scheduler), which is per-process, not per-sketch.
  static Injector& instance() {
    static Injector inj;
    return inj;
  }

  // ----- configuration (tests call these before spawning threads) ----------

  void set_seed(std::uint64_t seed) { seed_.store(seed, std::memory_order_relaxed); }
  std::uint64_t seed() const { return seed_.load(std::memory_order_relaxed); }

  // Probability per encounter, parts-per-million.  0 disables the point.
  void set_probability(Point p, double prob) {
    const double clamped = prob < 0.0 ? 0.0 : (prob > 1.0 ? 1.0 : prob);
    state(p).prob_ppm.store(static_cast<std::uint32_t>(clamped * 1e6),
                            std::memory_order_relaxed);
  }

  // Deterministic schedule: fire exactly on the nth encounter (1-based);
  // 0 disarms.  Composes with (and is checked before) the probability.
  void arm_hit(Point p, std::uint64_t nth) {
    state(p).one_shot.store(nth, std::memory_order_relaxed);
  }

  // Stall behavior: a pluggable handler lets tests park a thread on a flag at
  // the exact injection point.  The default handler sleeps stall_us.
  using StallHandler = void (*)(Point, void*);
  void set_stall_handler(StallHandler fn, void* ctx) {
    stall_ctx_.store(ctx, std::memory_order_relaxed);
    stall_fn_.store(fn, std::memory_order_release);
  }
  void set_stall_us(std::uint32_t us) { stall_us_.store(us, std::memory_order_relaxed); }

  // Zero every counter and disable every point; keeps the seed.
  void reset() {
    for (auto& s : states_) {
      s.hits.store(0, std::memory_order_relaxed);
      s.fires.store(0, std::memory_order_relaxed);
      s.prob_ppm.store(0, std::memory_order_relaxed);
      s.one_shot.store(0, std::memory_order_relaxed);
    }
    stall_fn_.store(nullptr, std::memory_order_relaxed);
    stall_ctx_.store(nullptr, std::memory_order_relaxed);
  }

  // ----- the three injection primitives ------------------------------------

  // Counts the encounter and decides whether it fires.
  bool should_fire(Point p) {
    PointState& s = state(p);
    const std::uint64_t hit = s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t shot = s.one_shot.load(std::memory_order_relaxed);
    bool fire = shot != 0 && shot == hit;
    if (!fire) {
      const std::uint32_t ppm = s.prob_ppm.load(std::memory_order_relaxed);
      if (ppm != 0) {
        const std::uint64_t seed = seed_.load(std::memory_order_relaxed);
        const std::uint64_t roll =
            splitmix64(seed ^ (static_cast<std::uint64_t>(p) << 56) ^ hit) % 1'000'000u;
        fire = roll < ppm;
      }
    }
    if (fire) s.fires.fetch_add(1, std::memory_order_relaxed);
    return fire;
  }

  // Stall point: runs the handler (or sleeps) when the point fires.
  void stall(Point p) {
    if (!should_fire(p)) return;
    const StallHandler fn = stall_fn_.load(std::memory_order_acquire);
    if (fn != nullptr) {
      fn(p, stall_ctx_.load(std::memory_order_relaxed));
    } else {
      std::this_thread::sleep_for(
          std::chrono::microseconds(stall_us_.load(std::memory_order_relaxed)));
    }
  }

  // I/O failure point: decides whether a filesystem operation fails.  A fired
  // point first runs the stall handler when one is installed — the kill -9
  // crash harness installs `raise(SIGKILL)` there, so the process dies AT the
  // exact syscall (mid-write, pre-rename, between rename and dir-fsync) — and
  // then reports `true`: a transient I/O error for the caller's retry/backoff
  // path.  Unlike stall(), a fired fail point never sleeps by default; the
  // failure IS the injection.
  bool fail_point(Point p) {
    if (!should_fire(p)) return false;
    const StallHandler fn = stall_fn_.load(std::memory_order_acquire);
    if (fn != nullptr) fn(p, stall_ctx_.load(std::memory_order_relaxed));
    return true;
  }

  // Corruption point: flips one deterministically chosen bit in [data, data+n).
  void corrupt(Point p, void* data, std::size_t n) {
    if (n == 0 || !should_fire(p)) return;
    PointState& s = state(p);
    const std::uint64_t fire_no = s.fires.load(std::memory_order_relaxed);
    const std::uint64_t r =
        splitmix64(seed_.load(std::memory_order_relaxed) ^ 0xC0DEC0DEull ^ fire_no);
    auto* bytes = static_cast<unsigned char*>(data);
    bytes[r % n] ^= static_cast<unsigned char>(1u << ((r >> 32) % 8));
  }

  // ----- observability ------------------------------------------------------

  PointCounters counters(Point p) const {
    const PointState& s = states_[static_cast<std::size_t>(p)];
    return {s.hits.load(std::memory_order_relaxed), s.fires.load(std::memory_order_relaxed)};
  }

  std::uint64_t total_fires() const {
    std::uint64_t total = 0;
    for (const auto& s : states_) total += s.fires.load(std::memory_order_relaxed);
    return total;
  }

  // One line per point that was ever reached; chaos runs print this so a
  // failing seed's injection profile lands in the log next to the seed.
  void report(std::FILE* out) const {
    std::fprintf(out, "qc::fault: seed=%llu\n",
                 static_cast<unsigned long long>(seed()));
    for (std::size_t i = 0; i < kPointCount; ++i) {
      const auto c = counters(static_cast<Point>(i));
      if (c.hits == 0) continue;
      std::fprintf(out, "qc::fault:   %-20s hits=%llu fires=%llu\n",
                   point_name(static_cast<Point>(i)),
                   static_cast<unsigned long long>(c.hits),
                   static_cast<unsigned long long>(c.fires));
    }
  }

 private:
  struct PointState {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
    std::atomic<std::uint32_t> prob_ppm{0};
    std::atomic<std::uint64_t> one_shot{0};
  };

  Injector() {
    // CI chaos runs randomize the seed through the environment and log it;
    // programmatic set_seed() overrides.
    if (const char* env = std::getenv("QC_FAULT_SEED")) {
      seed_.store(std::strtoull(env, nullptr, 10), std::memory_order_relaxed);
    }
  }

  static std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  PointState& state(Point p) { return states_[static_cast<std::size_t>(p)]; }

  std::array<PointState, kPointCount> states_{};
  std::atomic<std::uint64_t> seed_{0x5eedfa17ull};
  std::atomic<StallHandler> stall_fn_{nullptr};
  std::atomic<void*> stall_ctx_{nullptr};
  std::atomic<std::uint32_t> stall_us_{1000};
};

}  // namespace qc::fault

// Fired OOM points throw bad_alloc — indistinguishable from the real
// allocator failing at that site, which is the property the exception-safety
// tests rely on.
#define QC_INJECT_OOM(point)                                                  \
  do {                                                                        \
    if (::qc::fault::Injector::instance().should_fire(::qc::fault::Point::point)) \
      throw std::bad_alloc{};                                                 \
  } while (0)
#define QC_INJECT_STALL(point) \
  ::qc::fault::Injector::instance().stall(::qc::fault::Point::point)
#define QC_INJECT_CORRUPT(point, data, n) \
  ::qc::fault::Injector::instance().corrupt(::qc::fault::Point::point, (data), (n))
// Evaluates to true when the I/O operation at this point should fail (and, in
// the crash harness, may not return at all — the handler SIGKILLs here).
#define QC_INJECT_IO_FAIL(point) \
  ::qc::fault::Injector::instance().fail_point(::qc::fault::Point::point)

#else  // !QC_FAULT_INJECT

#define QC_INJECT_OOM(point) static_cast<void>(0)
#define QC_INJECT_STALL(point) static_cast<void>(0)
#define QC_INJECT_CORRUPT(point, data, n) static_cast<void>(0)
#define QC_INJECT_IO_FAIL(point) false

#endif  // QC_FAULT_INJECT
