// Construction-time configuration for core::Quancurrent.
#pragma once

#include <cstdint>
#include <cstdio>
#include <type_traits>
#include <vector>

#include "numa/topology.hpp"

namespace qc::core {

struct Options {
  // Upper bounds on the size-driving fields.  Every one of these multiplies
  // into a preallocation (levels grid, gather buffers, install-queue cells),
  // and deserialize accepts only options normalize() leaves untouched, so
  // the caps both keep the arithmetic inside 32 bits (an unclamped 2k or
  // power-of-two rounding used to overflow) and deny crafted serde images
  // unbounded allocations.
  static constexpr std::uint32_t kMaxK = 1u << 22;           // k-item level blocks
  static constexpr std::uint32_t kMaxRho = 64;               // buffers per node
  static constexpr std::uint32_t kMaxNodes = 64;             // NUMA nodes
  static constexpr std::uint32_t kMaxInstallQueue = 1u << 12;  // 2k-item cells
  static constexpr std::uint32_t kMaxIbrFreq = 1u << 20;       // IBR cadence cap
  static constexpr std::uint32_t kMinRetireCap = 64;  // smallest nonzero retire cap

  std::uint32_t k = 4096;  // summary size: each level array holds k items
  std::uint32_t b = 16;    // per-thread local buffer (elements moved per F&A)
  std::uint32_t rho = 2;   // Gather&Sort buffers per NUMA node

  // Capacity (in 2k batches) of the bounded MPSC install hand-off queue; a
  // power of two, at least 8.  0 = auto (8).  Producers that find the queue
  // full wait for the drainer — the queue bounds the ingest-to-query
  // relaxation by install_queue * 2k elements.
  std::uint32_t install_queue = 0;

  // Interval-based reclamation cadence for the elastic level blocks.  The
  // ladder's k-item arrays are allocated on demand (not preallocated) and a
  // rewritten slot's displaced block is RETIRED, not freed: it stays readable
  // until no in-flight query snapshot can still load it and no query view
  // references it.  Two knobs
  // govern the bookkeeping, both counted at the install latch holder:
  //
  //   * ibr_epoch_freq — advance the global reclamation epoch once every this
  //     many block allocations.  Coarser epochs (larger values) mean cheaper
  //     bookkeeping but blocks stay unreclaimable longer, raising the peak
  //     retire-list size (ibr_stats().peak_unreclaimed).
  //   * ibr_recl_freq — run a reclamation scan (compare every retired block's
  //     retire epoch against all announced reader epochs, free the safe ones
  //     no view references) once every this many retirements.  Smaller values bound the live
  //     block count tighter at the cost of more scans (ibr_stats().scans).
  //
  // Clamped to [1, kMaxIbrFreq]: 0 would never advance/scan (an unbounded
  // retire list), and values past the cap are indistinguishable from "never"
  // at any realistic stream length.  The abl_reclamation bench sweeps both.
  std::uint32_t ibr_epoch_freq = 16;
  std::uint32_t ibr_recl_freq = 64;

  // Bounded-memory response to stalled readers.  IBR's conservative free
  // rule means one parked querier handle (announced epoch never cleared)
  // pins every later retirement on the retire list indefinitely.  When the
  // list would exceed this many blocks, the latch holder first forces an
  // off-cadence scan (ibr_stats().forced_scans); if the scan cannot free
  // below the cap — a reader really is stalled — the sketch enters DEGRADED
  // mode (ibr_stats().degraded): ingest throttles at the install latch until
  // a scan succeeds, so retired memory stays <= cap * k * sizeof(T) instead
  // of growing without bound.  Retired blocks that only idle query views
  // still reference (ibr_stats().held_blocks) are not counted: they are
  // bounded per querier, and a view that is never refreshed must not stall
  // ingest.  Queries are unaffected (they never take the latch).  0
  // disables the cap (unbounded retire list); nonzero values
  // are clamped to >= 64 so the cap can never sit below one cascade's
  // worst-case retirement burst.
  std::uint32_t ibr_retire_cap = 4096;

  // Install-latch watchdog threshold, nanoseconds.  Every latch hold is
  // timed (stats().latch_holds / latch_max_hold_ns, always collected); a
  // hold longer than this bumps stats().latch_watchdog_trips, so a wedged
  // or preempted latch holder is observable from any thread without a
  // debugger.  0 disables the trip counter (holds are still timed).
  std::uint64_t latch_watchdog_ns = 100'000'000;  // 100ms

  // Ablation control arm (§5.5, abl_propagation): serialize every owner duty
  // — Gather&Sort batch formation, install enqueue, and the propagation drain
  // — behind one global lock, re-creating FCDS's single-propagation-thread
  // bottleneck inside Quancurrent.  Updaters still fill local and gather
  // buffers concurrently (as FCDS workers do); only the batch-update +
  // propagation stage is serialized.  Queriers are unaffected and stay
  // wait-free.  Single-threaded ingestion is bit-identical to the default
  // path (tested); leave this off outside the ablation.
  bool serialize_propagation = false;

  bool collect_stats = false;
  std::uint64_t seed = 0x5eed5eed5eed5eedULL;
  numa::Topology topology = numa::Topology::single_node();

  // One field rewrite normalize() performed (or validate() predicts), with
  // the rule that forced it — so misconfigurations are reported instead of
  // silently absorbed.  Quancurrent's constructor prints these once when
  // collect_stats is set.
  struct Adjustment {
    const char* field;
    std::uint64_t from;
    std::uint64_t to;
    const char* rule;
  };

  // Clamps fields into the ranges the engine supports and returns the list
  // of rewrites applied: k >= 2, rho >= 1, b adjusted down to the nearest
  // divisor of the 2k batch size so that F&A reservations always tile the
  // gather buffer exactly, both IBR cadences in [1, kMaxIbrFreq], and
  // install_queue rounded up to a power of two of at least 8.
  // Normalizing already-normalized options applies (and returns) nothing.
  std::vector<Adjustment> normalize() {
    std::vector<Adjustment> log;
    const auto adjust = [&log](const char* field, auto& value,
                               std::uint64_t to, const char* rule) {
      if (static_cast<std::uint64_t>(value) == to) return;
      log.push_back({field, static_cast<std::uint64_t>(value), to, rule});
      value = static_cast<std::remove_reference_t<decltype(value)>>(to);
    };
    if (k < 2) adjust("k", k, 2, "k >= 2 (a level must hold at least 2 items)");
    if (k > kMaxK) {
      adjust("k", k, kMaxK, "k <= 2^22 (bounds the preallocated levels grid)");
    }
    if (rho == 0) adjust("rho", rho, 1, "rho >= 1 (at least one gather buffer per node)");
    if (rho > kMaxRho) {
      adjust("rho", rho, kMaxRho, "rho <= 64 (bounds per-node gather memory)");
    }
    if (topology.nodes > kMaxNodes) {
      adjust("topology.nodes", topology.nodes, kMaxNodes,
             "nodes <= 64 (bounds the per-node buffer preallocation)");
    }
    if (b == 0) adjust("b", b, 1, "b >= 1 (flush granularity)");
    const std::uint32_t cap = 2 * k;
    if (b > cap) adjust("b", b, cap, "b <= 2k (a flush fits one gather batch)");
    if (cap % b != 0) {
      std::uint32_t divisor = b;
      while (cap % divisor != 0) --divisor;
      adjust("b", b, divisor, "b must divide 2k (flushes tile the gather buffer)");
    }
    if (ibr_epoch_freq == 0) {
      adjust("ibr_epoch_freq", ibr_epoch_freq, 1,
             "ibr_epoch_freq >= 1 (0 would never advance the epoch)");
    }
    if (ibr_epoch_freq > kMaxIbrFreq) {
      adjust("ibr_epoch_freq", ibr_epoch_freq, kMaxIbrFreq,
             "ibr_epoch_freq <= 2^20 (coarser epochs never reclaim)");
    }
    if (ibr_recl_freq == 0) {
      adjust("ibr_recl_freq", ibr_recl_freq, 1,
             "ibr_recl_freq >= 1 (0 would never scan the retire list)");
    }
    if (ibr_recl_freq > kMaxIbrFreq) {
      adjust("ibr_recl_freq", ibr_recl_freq, kMaxIbrFreq,
             "ibr_recl_freq <= 2^20 (rarer scans never reclaim)");
    }
    if (ibr_retire_cap != 0 && ibr_retire_cap < kMinRetireCap) {
      adjust("ibr_retire_cap", ibr_retire_cap, kMinRetireCap,
             "ibr_retire_cap >= 64 (must cover one cascade's retirement burst)");
    }
    if (install_queue > kMaxInstallQueue) {
      // Also keeps the power-of-two rounding below from overflowing (an
      // uncapped 2^31+ value used to spin the doubling loop forever).
      adjust("install_queue", install_queue, kMaxInstallQueue,
             "install_queue <= 4096 (bounds the hand-off ring's memory)");
    }
    std::uint32_t cap2 = 8;
    while (cap2 < install_queue) cap2 *= 2;
    if (install_queue != cap2) {
      // 0 is the documented "auto" request, not a misconfiguration: size it
      // silently.  Only explicit values that had to be rounded are reported.
      if (install_queue == 0) {
        install_queue = cap2;
      } else {
        adjust("install_queue", install_queue, cap2,
               "install_queue rounded up (power of two, at least 8)");
      }
    }
    return log;
  }

  // The adjustments normalize() WOULD apply, without mutating the options —
  // callers can surface (or reject) misconfigurations before construction.
  std::vector<Adjustment> validate() const {
    Options copy = *this;
    return copy.normalize();
  }

  // Prints one line per adjustment to stderr; the sketch constructors call
  // this once under collect_stats so clamped configuration is never silent.
  static void report(const std::vector<Adjustment>& adjustments) {
    for (const auto& a : adjustments) {
      std::fprintf(stderr, "qc::Options: %s adjusted %llu -> %llu (%s)\n", a.field,
                   static_cast<unsigned long long>(a.from),
                   static_cast<unsigned long long>(a.to), a.rule);
    }
  }
};

}  // namespace qc::core
