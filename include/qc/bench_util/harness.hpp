// Shared measurement scaffolding for the figure benches: run averaging,
// thread sweeps, phi grids, throughput conversion, latency percentiles, and
// the JSON series emitter CI tracks perf trajectories with.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/timer.hpp"

namespace qc {

// Operations per second for `ops` operations completed in `seconds`.
inline double throughput(std::uint64_t ops, double seconds) {
  return seconds <= 0.0 ? 0.0 : static_cast<double>(ops) / seconds;
}

namespace bench {

// Averages `fn()` (returning a double metric) over `runs` repetitions.
template <typename Fn>
double average_runs(std::uint32_t runs, Fn&& fn) {
  if (runs == 0) runs = 1;
  double sum = 0.0;
  for (std::uint32_t r = 0; r < runs; ++r) sum += fn();
  return sum / static_cast<double>(runs);
}

// Powers of two up to max_threads, plus max_threads itself if not a power of
// two: 1, 2, 4, ..., max.
inline std::vector<std::uint32_t> thread_sweep(std::uint32_t max_threads) {
  if (max_threads == 0) max_threads = 1;
  std::vector<std::uint32_t> sweep;
  for (std::uint32_t t = 1; t <= max_threads; t *= 2) sweep.push_back(t);
  if (sweep.back() != max_threads) sweep.push_back(max_threads);
  return sweep;
}

// `points` quantile fractions spread evenly over (0, 1).
inline std::vector<double> phi_grid(std::uint32_t points) {
  std::vector<double> grid;
  grid.reserve(points);
  for (std::uint32_t i = 0; i < points; ++i) {
    grid.push_back((static_cast<double>(i) + 0.5) / static_cast<double>(points));
  }
  return grid;
}

// Splits [0, n) into `parts` contiguous half-open ranges of near-equal size.
inline std::vector<std::pair<std::uint64_t, std::uint64_t>> split_ranges(
    std::uint64_t n, std::uint32_t parts) {
  if (parts == 0) parts = 1;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  ranges.reserve(parts);
  std::uint64_t begin = 0;
  for (std::uint32_t p = 0; p < parts; ++p) {
    const std::uint64_t end = begin + n / parts + (p < n % parts ? 1 : 0);
    ranges.emplace_back(begin, end);
    begin = end;
  }
  return ranges;
}

// Runs fn(thread_index) on `threads` std::threads; returns wall seconds of
// the working phase.  Threads rendezvous on a start barrier before the clock
// starts, so thread-creation cost is excluded (steady-state throughput, as
// the paper measures).
template <typename Fn>
double timed_parallel(std::uint32_t threads, Fn&& fn) {
  if (threads == 0) threads = 1;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  for (std::uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(t);
    });
  }
  while (ready.load(std::memory_order_acquire) != threads) std::this_thread::yield();
  Timer timer;
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return timer.seconds();
}

// The q-th percentile (q in [0, 1]) of an unsorted sample set, by partial
// selection; reorders `samples`.  Returns 0 for an empty set.
inline double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::size_t idx = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1) + 0.5));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx), samples.end());
  return samples[idx];
}

// Concurrent-query measurements reported by the query/mixed workloads:
// throughput plus snapshot-refresh latency percentiles and the sketch's
// hole/retry counters over the measured interval.
struct QueryLoadStats {
  double queries_per_sec = 0.0;
  double refresh_p50_us = 0.0;
  double refresh_p99_us = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t holes = 0;
  std::uint64_t query_retries = 0;
};

// Directory benches drop BENCH_*.json files into; "" (unset) disables JSON
// output.  Set by bench/run_all.sh and CI via QC_BENCH_JSON.
inline std::string json_out_dir() { return env::get_str("QC_BENCH_JSON", ""); }

// Accumulates a (threads -> value) series plus optional named counters and
// writes them as a small JSON document — the machine-readable perf trajectory
// CI uploads as an artifact.  Counters carry run diagnostics alongside the
// headline metric (e.g. fig06a's ingest contention counters: gather_waits,
// latch_spins, installs, ...), so a trajectory diff can say *why*
// throughput moved.
class JsonSeries {
 public:
  JsonSeries(std::string bench, std::string scale, std::string metric)
      : bench_(std::move(bench)), scale_(std::move(scale)), metric_(std::move(metric)) {}

  void add(std::uint32_t threads, double value) { points_.emplace_back(threads, value); }

  void counter(std::string name, double value) {
    counters_.emplace_back(std::move(name), value);
  }

  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": \"%s\",\n  \"metric\": \"%s\",\n",
                 bench_.c_str(), scale_.c_str(), metric_.c_str());
    std::fprintf(f, "  \"points\": [");
    for (std::size_t i = 0; i < points_.size(); ++i) {
      std::fprintf(f, "%s\n    {\"threads\": %u, \"value\": %.17g}", i == 0 ? "" : ",",
                   points_[i].first, points_[i].second);
    }
    std::fprintf(f, "\n  ]");
    if (!counters_.empty()) {
      std::fprintf(f, ",\n  \"counters\": {");
      for (std::size_t i = 0; i < counters_.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": %.17g", i == 0 ? "" : ",",
                     counters_[i].first.c_str(), counters_[i].second);
      }
      std::fprintf(f, "\n  }");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_;
  std::string scale_;
  std::string metric_;
  std::vector<std::pair<std::uint32_t, double>> points_;
  std::vector<std::pair<std::string, double>> counters_;
};

// Flat (name -> value) JSON emitter for benches whose results are keyed by
// configuration rather than thread count (e.g. micro_primitives' gather-path
// sweep over (k, b)).
class JsonKv {
 public:
  JsonKv(std::string bench, std::string scale)
      : bench_(std::move(bench)), scale_(std::move(scale)) {}

  void add(std::string name, double value) {
    values_.emplace_back(std::move(name), value);
  }

  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": \"%s\",\n  \"values\": {",
                 bench_.c_str(), scale_.c_str());
    for (std::size_t i = 0; i < values_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %.17g", i == 0 ? "" : ",",
                   values_[i].first.c_str(), values_[i].second);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_;
  std::string scale_;
  std::vector<std::pair<std::string, double>> values_;
};

}  // namespace bench
}  // namespace qc
