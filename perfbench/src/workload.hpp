// The benchmark's workload engine: seeded inputs, the ingest ledger, and
// phases of updater / querier / snapshot threads driving the public API of
// qc::core::Quancurrent, serde and recovery.
//
// Every call into the library that a layer metric needs is wrapped in a
// SpanGuard; with tracing off the guard is a null pointer check.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdio>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/options.hpp"
#include "core/quancurrent.hpp"
#include "openloop.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/container.hpp"
#include "trace.hpp"

namespace perfbench {

using Sketch = qc::core::Quancurrent<double>;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// CPU time consumed by the calling thread.  With paravirtualized steal
// accounting, time the host ran another guest is not counted.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Resident-set high-water mark (VmHWM) in MB.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

// Restarts the high-water mark at the current RSS (Linux >= 4.0); false when
// the kernel does not allow it.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Sleeps until `due_ns`.  The generator never spins: on a shared or
// virtualized host, busy-waiting threads get preempted for whole scheduler
// slices, which shows up as multi-millisecond lag.
inline void wait_until(std::uint64_t due_ns) {
  for (std::uint64_t now = now_ns(); now < due_ns; now = now_ns()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

// Records a span around a scope when `trace` is non-null.
class SpanGuard {
 public:
  SpanGuard(ThreadTrace* trace, const char* name)
      : trace_(trace), idx_(trace != nullptr ? trace->open(name, now_ns()) : -1) {}
  ~SpanGuard() {
    if (trace_ != nullptr) trace_->close(idx_, now_ns());
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  std::int32_t index() const { return idx_; }

 private:
  ThreadTrace* trace_;
  std::int32_t idx_;
};

// Elements handed to update(), per updater slot: `begun` is raised before a
// call and `done` after it returns, so begun bounds what any reader can see
// and done is what was surely handed over before the reader started.
struct alignas(64) SlotCounter {
  std::atomic<std::uint64_t> begun{0};
  std::atomic<std::uint64_t> done{0};
};

class Ledger {
 public:
  Ledger(std::uint64_t base, std::size_t slots) : base_(base), slots_(slots) {}
  std::uint64_t before() const {
    std::uint64_t n = base_;
    for (const auto& s : slots_) n += s.done.load(std::memory_order_acquire);
    return n;
  }
  std::uint64_t after() const {
    std::uint64_t n = base_;
    for (const auto& s : slots_) n += s.begun.load(std::memory_order_acquire);
    return n;
  }
  SlotCounter& slot(std::size_t i) { return slots_[i]; }

 private:
  std::uint64_t base_;
  std::vector<SlotCounter> slots_;
};

// All inputs of one run, generated from the seed before the engine sees any.
struct Inputs {
  static constexpr std::size_t kPrefill = 20'000'000;
  static constexpr std::size_t kPool = std::size_t{1} << 18;  // per updater
  static constexpr std::size_t kMaxUpdaters = 4;
  static constexpr std::size_t kMaxQueriers = 2;

  std::vector<double> prefill;
  std::vector<std::vector<double>> pools;       // one per updater slot
  std::vector<std::vector<double>> query_phi;   // one per querier
  std::vector<std::vector<double>> query_value; // one per querier

  void generate(std::uint64_t seed, std::size_t queries_per_querier) {
    const auto fill = [](std::vector<double>& v, std::size_t n, std::uint64_t s) {
      qc::Xoshiro256 rng(s);
      v.resize(n);
      for (double& x : v) x = rng.next_double();
    };
    std::uint64_t stream = seed * 0x9e3779b97f4a7c15ULL;
    fill(prefill, kPrefill, ++stream);
    pools.resize(kMaxUpdaters);
    for (auto& p : pools) fill(p, kPool, ++stream);
    query_phi.resize(kMaxQueriers);
    query_value.resize(kMaxQueriers);
    for (std::size_t q = 0; q < kMaxQueriers; ++q) {
      fill(query_phi[q], queries_per_querier, ++stream);
      fill(query_value[q], queries_per_querier, ++stream);
    }
  }
};

// One phase: threads of each kind run for `seconds` against the sketch.
struct PhaseSpec {
  std::uint32_t closed_updaters = 0;  // closed loop, back-to-back chunks
  std::uint32_t open_updaters = 0;    // open loop at open_rate elements/s each
  double open_rate = 0;
  std::uint32_t queriers = 0;  // open loop at query_rate queries/s each
  double query_rate = 0;
  double snapshot_rate = 0;  // snapshot rounds/s by one thread; 0 = none
  double seconds = 0;
};

struct PhaseResult {
  double wall_s = 0;
  std::uint64_t window_elements = 0;  // accepted by update() inside the window
  std::vector<double> window_rates;   // M elements accepted in each 1 s window
  std::vector<double> window_peak_mb;  // RSS high-water mark of each 1 s window
  std::uint64_t elements = 0;         // accepted in the phase, all told
  std::vector<std::uint64_t> consumed;  // per updater slot
  std::uint64_t update_calls = 0;
  std::uint64_t t0 = 0;  // phase start; samples are stamped with due times
  std::vector<Sample> lag_ns;
  std::vector<Sample> query_ns;       // virtual due-to-return latency
  std::vector<Sample> query_wall_ns;  // wall-clock due-to-return latency
  std::vector<Sample> stale;
  std::vector<Sample> snapshot_ns;       // virtual
  std::vector<Sample> snapshot_wall_ns;  // wall clock
  std::uint64_t sampled_update_elems = 0;  // elements in traced update() calls
  std::vector<std::uint64_t> image_bytes;
  std::vector<std::uint64_t> rebuild_items;  // summary().size() per rebuild
  std::uint64_t queries = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t failed = 0;
  qc::core::Stats stats_begin, stats_end;
  qc::core::IbrStats ibr_begin, ibr_end;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
};

inline constexpr std::size_t kChunk = 1024;     // elements per closed-loop update() call
// Open-loop updaters hand over smaller chunks, so that what a query counts as
// handed over (whole chunks) moves in fine steps.
inline constexpr std::size_t kOpenChunk = 256;
inline constexpr std::uint32_t kUpdateSampling = 8;  // span 1 in N update calls
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

// Runs one phase.  Updater slots are numbered closed first, then open; each
// slot cycles its own pool.  `trace` enables spans (and assumes the sketch
// was built with collect_stats).
inline PhaseResult run_phase(Sketch& sk, const Inputs& in, const PhaseSpec& spec,
                             bool trace, std::uint64_t* generation) {
  PhaseResult res;
  const std::uint32_t updaters = spec.closed_updaters + spec.open_updaters;
  const std::uint32_t threads =
      updaters + spec.queriers + (spec.snapshot_rate > 0 ? 1 : 0);
  const qc::core::Options& o = sk.options();
  const std::uint64_t r = relaxation_bound(updaters, o.b, o.topology.nodes, o.rho, o.k,
                                           o.install_queue);
  Ledger ledger(sk.size(), updaters);
  for (std::uint32_t t = 0; t < threads; ++t) {
    res.traces.push_back(trace ? std::make_unique<ThreadTrace>(t, kTraceCapacity) : nullptr);
  }
  const std::size_t max_queries = in.query_phi.empty() ? 0 : in.query_phi[0].size();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> update_calls{0};
  std::atomic<std::uint32_t> ready{0};
  std::atomic<std::uint64_t> t0_shared{0};
  std::vector<std::vector<Sample>> lag(spec.open_updaters);
  std::vector<std::vector<Sample>> qlat(spec.queriers), qwall(spec.queriers),
      qstale(spec.queriers);
  std::atomic<std::uint64_t> sampled_elems{0};
  std::vector<std::vector<std::uint64_t>> qitems(spec.queriers);

  const auto start_gate = [&] {
    ready.fetch_add(1, std::memory_order_acq_rel);
    std::uint64_t t0 = 0;
    while ((t0 = t0_shared.load(std::memory_order_acquire)) == 0) std::this_thread::yield();
    return t0;
  };

  const auto update_chunk = [&](Sketch::Updater& u, std::uint32_t slot, std::size_t chunk,
                                std::size_t& pos, std::uint64_t& calls, ThreadTrace* tr) {
    SlotCounter& c = ledger.slot(slot);
    const auto& pool = in.pools[slot];
    c.begun.store(c.begun.load(std::memory_order_relaxed) + chunk, std::memory_order_release);
    {
      const bool sampled = tr != nullptr && calls % kUpdateSampling == 0;
      SpanGuard g(sampled ? tr : nullptr, "core.update");
      u.update(std::span<const double>(pool.data() + pos, chunk));
      if (sampled) sampled_elems.fetch_add(chunk, std::memory_order_relaxed);
    }
    c.done.store(c.done.load(std::memory_order_relaxed) + chunk, std::memory_order_release);
    pos = (pos + chunk) % pool.size();
    ++calls;
  };

  std::vector<std::thread> pool_threads;
  std::uint64_t t_end = 0;
  const auto end_ns = [&](std::uint64_t t0) {
    return t0 + static_cast<std::uint64_t>(spec.seconds * 1e9);
  };

  for (std::uint32_t s = 0; s < updaters; ++s) {
    pool_threads.emplace_back([&, s] {
      ThreadTrace* tr = res.traces[s].get();
      std::uint64_t calls = 0;
      std::size_t pos = 0;
      {
        auto u = sk.make_updater(s);
        const std::uint64_t t0 = start_gate();
        const std::uint64_t wall0 = now_ns();
        if (s < spec.closed_updaters) {
          while (!stop.load(std::memory_order_acquire)) {
            update_chunk(u, s, kChunk, pos, calls, tr);
          }
        } else {
          const double per_second = spec.open_rate / static_cast<double>(kOpenChunk);
          OpenLoop sched(t0, per_second, /*latency=*/false);
          sched.lag_ns.reserve(static_cast<std::size_t>(per_second * spec.seconds) + 1);
          const std::uint64_t te = end_ns(t0);
          for (std::uint64_t i = 0;; ++i) {
            const std::uint64_t due = sched.due(i);
            if (due >= te) break;
            wait_until(due);
            const std::uint64_t start = now_ns();
            update_chunk(u, s, kOpenChunk, pos, calls, tr);
            sched.record(i, start, now_ns(), 0);
          }
          lag[s - spec.closed_updaters] = std::move(sched.lag_ns);
        }
        if (tr != nullptr) tr->set_wall(wall0, now_ns());
      }  // the updater drains its local buffer into the tail here
      update_calls.fetch_add(calls, std::memory_order_relaxed);
    });
  }

  for (std::uint32_t q = 0; q < spec.queriers; ++q) {
    pool_threads.emplace_back([&, q] {
      ThreadTrace* tr = res.traces[updaters + q].get();
      auto qr = sk.make_querier();
      const auto& phis = in.query_phi[q];
      const auto& vals = in.query_value[q];
      qlat[q].reserve(max_queries);
      qstale[q].reserve(max_queries);
      const std::uint64_t t0 = start_gate();
      const std::uint64_t wall0 = now_ns();
      // Queriers are staggered evenly inside one period.
      OpenLoop sched(t0 + static_cast<std::uint64_t>(1e9 / spec.query_rate *
                                                     q / spec.queriers),
                     spec.query_rate);
      const std::uint64_t te = end_ns(t0);
      std::uint64_t prev_size = 0;
      for (std::uint64_t i = 0; i < max_queries; ++i) {
        const std::uint64_t due = sched.due(i);
        if (due >= te) break;
        wait_until(due);
        const std::uint64_t start = now_ns();
        const std::uint64_t cpu0 = thread_cpu_ns();
        const std::uint64_t before = ledger.before();
        double quant = 0;
        std::uint64_t rank = 0;
        bool rebuilt = false;
        {
          SpanGuard root(tr, "query");
          const std::uint64_t v0 = qr.version();
          std::int32_t refresh_span = -1;
          {
            SpanGuard g(tr, "core.refresh");
            refresh_span = g.index();
            qr.refresh();
          }
          rebuilt = qr.version() != v0;
          // Tag the refresh span by outcome: rebuilt summary or O(1) no-op.
          if (tr != nullptr) {
            tr->rename(refresh_span, rebuilt ? "core.refresh.rebuild" : "core.refresh.fast");
          }
          {
            SpanGuard g(tr, "core.answer.quantile");
            quant = qr.quantile(phis[i]);
          }
          {
            SpanGuard g(tr, "core.answer.rank");
            rank = qr.rank(vals[i]);
          }
        }
        const std::uint64_t end = now_ns();
        const std::uint64_t cpu1 = thread_cpu_ns();
        const std::uint64_t size = qr.size();
        const std::uint64_t after = ledger.after();
        sched.record(i, start, end, cpu1 - cpu0);
        qstale[q].push_back({due, before > size ? before - size : 0});
        if (rebuilt && tr != nullptr) qitems[q].push_back(qr.summary().size());
        const bool ok = within_relaxation({before, size, after}, r) && size >= prev_size &&
                        quant >= 0.0 && quant < 1.0 && rank <= size;
        if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
        prev_size = size;
      }
      qlat[q] = std::move(sched.latency_ns);
      qwall[q] = std::move(sched.wall_latency_ns);
      if (tr != nullptr) tr->set_wall(wall0, now_ns());
    });
  }

  std::vector<Sample> snap_ns, snap_wall;
  std::vector<std::uint64_t> snap_bytes;
  std::uint64_t snaps = 0;
  if (spec.snapshot_rate > 0) {
    pool_threads.emplace_back([&] {
      ThreadTrace* tr = res.traces[updaters + spec.queriers].get();
      const std::uint64_t t0 = start_gate();
      const std::uint64_t wall0 = now_ns();
      OpenLoop sched(t0, spec.snapshot_rate);
      const std::uint64_t te = end_ns(t0);
      std::vector<Observation> images;
      auto agg = std::make_unique<Sketch>(qc::core::Options{});
      for (std::uint64_t i = 0;; ++i) {
        const std::uint64_t due = sched.due(i);
        if (due >= te) break;
        wait_until(due);
        const std::uint64_t start = now_ns();
        const std::uint64_t cpu0 = thread_cpu_ns();
        const std::uint64_t before = ledger.before();
        std::vector<std::byte> image;
        bool merged = false;
        {
          SpanGuard root(tr, "snapshot.round");
          {
            SpanGuard g(tr, "recovery.encode_checkpoint");
            image = qc::recovery::encode_checkpoint(sk, ++*generation);
          }
          {
            SpanGuard g(tr, "core.merge_into");
            merged = sk.merge_into(*agg);
          }
        }
        const std::uint64_t end = now_ns();
        const std::uint64_t cpu1 = thread_cpu_ns();
        const std::uint64_t after = ledger.after();
        sched.record(i, start, end, cpu1 - cpu0);
        snap_bytes.push_back(image.size());
        // Verification, outside the timed round: the image must parse and
        // deserialize, and both the image and the aggregate must be a
        // relaxed, monotone view of what was ingested.
        bool ok = merged && within_relaxation({before, agg->size(), after}, r);
        qc::recovery::Parsed parsed;
        if (qc::recovery::parse_container(image, parsed).ok() &&
            parsed.shard_blobs.size() == 1) {
          std::unique_ptr<Sketch> back;
          {
            SpanGuard g(tr, "serde.deserialize");
            back = Sketch::deserialize(parsed.shard_blobs[0]);
          }
          if (back != nullptr) {
            images.push_back({before, back->size(), after});
          } else {
            ok = false;
          }
        } else {
          ok = false;
        }
        if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
        agg = std::make_unique<Sketch>(qc::core::Options{});
      }
      failed.fetch_add(count_violations(images, r, /*monotone=*/true),
                       std::memory_order_relaxed);
      snaps = sched.latency_ns.size();
      snap_ns = std::move(sched.latency_ns);
      snap_wall = std::move(sched.wall_latency_ns);
      if (tr != nullptr) tr->set_wall(wall0, now_ns());
    });
  }

  while (ready.load(std::memory_order_acquire) != threads) std::this_thread::yield();
  res.stats_begin = sk.stats();
  res.ibr_begin = sk.ibr_stats();
  const std::uint64_t done0 = ledger.before();
  const std::uint64_t t0 = now_ns();
  t_end = end_ns(t0);
  t0_shared.store(t0, std::memory_order_release);
  // Ingest rate and peak RSS per one-second window, so that a brief stall
  // or a transient allocation burst moves one window, not the run.
  const bool peaks = reset_peak_rss();
  std::uint64_t done_prev = done0;
  for (std::uint64_t w = 1; t0 + w * 1'000'000'000ULL <= t_end; ++w) {
    wait_until(t0 + w * 1'000'000'000ULL);
    const std::uint64_t done_now = ledger.before();
    res.window_rates.push_back(static_cast<double>(done_now - done_prev) * 1e-6);
    done_prev = done_now;
    if (peaks) {
      res.window_peak_mb.push_back(peak_rss_mb());
      reset_peak_rss();
    }
  }
  wait_until(t_end);
  const std::uint64_t done1 = ledger.before();
  const std::uint64_t t1 = now_ns();
  stop.store(true, std::memory_order_release);
  for (auto& t : pool_threads) t.join();
  res.stats_end = sk.stats();
  res.ibr_end = sk.ibr_stats();

  res.t0 = t0;
  res.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  res.window_elements = done1 - done0;
  res.elements = ledger.before() - done0;
  for (std::uint32_t s = 0; s < updaters; ++s) {
    res.consumed.push_back(ledger.slot(s).done.load(std::memory_order_acquire));
  }
  res.update_calls = update_calls.load(std::memory_order_relaxed);
  for (auto& v : lag) res.lag_ns.insert(res.lag_ns.end(), v.begin(), v.end());
  for (std::uint32_t q = 0; q < spec.queriers; ++q) {
    res.query_ns.insert(res.query_ns.end(), qlat[q].begin(), qlat[q].end());
    res.query_wall_ns.insert(res.query_wall_ns.end(), qwall[q].begin(), qwall[q].end());
    res.stale.insert(res.stale.end(), qstale[q].begin(), qstale[q].end());
    res.rebuild_items.insert(res.rebuild_items.end(), qitems[q].begin(), qitems[q].end());
  }
  res.queries = res.query_ns.size();
  res.snapshot_ns = std::move(snap_ns);
  res.snapshot_wall_ns = std::move(snap_wall);
  res.sampled_update_elems = sampled_elems.load(std::memory_order_relaxed);
  res.image_bytes = std::move(snap_bytes);
  res.snapshots = snaps;
  res.failed = failed.load(std::memory_order_relaxed);
  return res;
}

}  // namespace perfbench
