// Open-loop schedule accounting.
//
// An open-loop generator issues request i at its due time t0 + i * period
// whether or not earlier requests finished.  Latency is measured from the due
// time, not from when the request actually started, so a stall is charged to
// every request that queued behind it (no coordinated omission), and the
// generator's own lateness (start - due) is recorded separately as lag.
//
// Latency is kept on two clocks.  Wall latency is return - due.  Virtual
// latency replays the same schedule through a single-server queue whose
// service times are the requests' thread CPU times: request i starts at
// max(due_i, finish_{i-1}) and finishes cpu_i later.  It keeps the queueing
// an open loop must charge, but not the time the host or the scheduler took
// the CPU away from a running or waking thread, which on a shared host
// varies far more from run to run than anything the engine does.
#pragma once

#include <cstdint>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class OpenLoop {
 public:
  // `latency` = false keeps only the lag (generators whose requests have no
  // latency metric), which keeps the benchmark's own memory out of the
  // engine's peak-RSS figure.
  OpenLoop(std::uint64_t t0_ns, double per_second, bool latency = true)
      : t0_(t0_ns), period_ns_(1e9 / per_second), latency_(latency) {}

  std::uint64_t due(std::uint64_t i) const {
    return t0_ + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns_);
  }

  // Records request i that started at `start_ns`, returned at `end_ns` and
  // ran for `cpu_ns` of its thread's CPU time.
  void record(std::uint64_t i, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t cpu_ns) {
    const std::uint64_t d = due(i);
    lag_ns.push_back({d, start_ns > d ? start_ns - d : 0});
    if (!latency_) return;
    wall_latency_ns.push_back({d, end_ns > d ? end_ns - d : 0});
    const std::uint64_t vstart = virtual_free_ > d ? virtual_free_ : d;
    virtual_free_ = vstart + cpu_ns;
    latency_ns.push_back({d, virtual_free_ - d});
  }

  std::vector<Sample> lag_ns;           // start - due, wall clock
  std::vector<Sample> wall_latency_ns;  // return - due, wall clock
  std::vector<Sample> latency_ns;       // return - due, virtual (see above)

 private:
  std::uint64_t t0_;
  double period_ns_;
  bool latency_;
  std::uint64_t virtual_free_ = 0;  // when the virtual server next idles
};

}  // namespace perfbench
