// Tests for the benchmark's own code: the percentile rule, span self time,
// the relaxation check, open-loop accounting and the rank oracle.
//
//   qcbench_selftest        (or: python3 perfbench/run.py --self-test)
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "openloop.hpp"
#include "oracle.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ++failures;                                                        \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
    }                                                                    \
  } while (0)

using namespace perfbench;

void percentile_rule() {
  // Nearest rank: p50 of 1..10 is the 5th value, p99 of 1..1000 the 990th.
  std::vector<int> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  EXPECT(percentile(v, 0.5) == 5);
  EXPECT(percentile(v, 1.0) == 10);
  std::vector<int> w;
  for (int i = 1; i <= 1000; ++i) w.push_back(i);
  EXPECT(percentile(w, 0.99) == 990);
  // Ten samples must lie beyond a reported tail percentile.
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(percentile_supported(1000, 0.99));
  EXPECT(!percentile_supported(999, 0.99));
  EXPECT(percentile_supported(100, 0.90));
  EXPECT(!percentile_supported(99, 0.90));
  EXPECT(percentile_supported(1, 0.5));
  EXPECT(!percentile_supported(0, 0.5));
  std::vector<int> empty;
  EXPECT(percentile(empty, 0.5) == 0);
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void windowed_tail() {
  // 10 s at 200 samples/s: p99 needs 1000 samples, so 5 s windows (2 of them).
  std::vector<Sample> s;
  const std::uint64_t t0 = 1'000'000'000ULL;
  for (std::uint64_t i = 0; i < 2000; ++i) s.push_back({t0 + i * 5'000'000, i % 1000});
  Windowed w = windowed_percentile(s, t0, 10, 0.99);
  EXPECT(w.window_s == 5);
  EXPECT(w.windows == 2);
  EXPECT(w.value == 989.0);  // both windows hold 0..999 once
  // For p90 at 200 samples/s one-second windows suffice, and a stall
  // confined to the first of the 10 windows does not move their median.
  for (std::uint64_t i = 0; i < 200; ++i) s[i].value = 1'000'000;
  w = windowed_percentile(s, t0, 10, 0.90);
  EXPECT(w.window_s == 1);
  EXPECT(w.windows == 10);
  EXPECT(w.value < 1000.0);
  // Too few samples for any window: pooled.
  std::vector<Sample> few(50, Sample{t0, 7});
  w = windowed_percentile(few, t0, 10, 0.99);
  EXPECT(w.window_s == 0);
  EXPECT(w.value == 7.0);
}

void self_time_nested() {
  // root [0,100) > a [10,40) > a1 [20,30);  root > b [50,90).
  std::vector<Span> s = {
      {"root", 0, 100, -1, 0}, {"a", 10, 40, 0, 0}, {"a1", 20, 30, 1, 0}, {"b", 50, 90, 0, 0}};
  const auto self = self_times(s);
  EXPECT(self[0] == 30);  // 100 - 30 - 40
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 40);
  const ThreadTrace t = ThreadTrace::from_spans(s, 0, 200);
  EXPECT(unspanned(t) == 100);
  EXPECT(accounting_error(t) == 0.0);
}

void self_time_overlapping() {
  // Children overlap each other and one sticks out of its parent: the
  // covered part is their union clipped to the parent, [10,60) = 50.
  std::vector<Span> s = {
      {"root", 0, 60, -1, 0}, {"x", 10, 40, 0, 0}, {"y", 30, 70, 0, 0}};
  const auto self = self_times(s);
  EXPECT(self[0] == 10);
  EXPECT(self[1] == 30);
  EXPECT(self[2] == 40);
  // Overlap double-counts 10 (x and y share [30,40)) and y's 10 outside the
  // root is counted in its self time but the root covers only [0,60):
  // sum(self) + unspanned = 80 + 40 = 120 against a wall of 100.
  const ThreadTrace t = ThreadTrace::from_spans(s, 0, 100);
  EXPECT(unspanned(t) == 40);
  EXPECT(accounting_error(t) > 0.19 && accounting_error(t) < 0.21);
  // Overlapping roots are merged for the unspanned time.
  std::vector<Span> roots = {{"p", 0, 50, -1, 0}, {"q", 25, 75, -1, 0}};
  EXPECT(unspanned(ThreadTrace::from_spans(roots, 0, 100)) == 25);
}

void trace_recording() {
  ThreadTrace t(3, 2);
  const auto a = t.open("a", 0);
  const auto b = t.open("b", 1);
  const auto c = t.open("c", 2);  // capacity 2: dropped
  EXPECT(c == -1);
  t.close(c, 3);
  t.close(b, 4);
  t.close(a, 5);
  EXPECT(t.dropped() == 1);
  EXPECT(t.spans().size() == 2);
  EXPECT(t.spans()[1].parent == 0);
  EXPECT(t.spans()[1].thread == 3);
  t.rename(b, "b2");
  EXPECT(std::string(t.spans()[1].name) == "b2");
}

void relaxation_check() {
  const std::uint64_t r = relaxation_bound(2, 16, 1, 2, 4096, 8);
  EXPECT(r == 2 * 16 + 2 * 8192 + 8 * 8192);
  // A synthetic history: in bounds, at both edges, too stale, from the
  // future, and a shrinking size.
  const std::vector<Observation> h = {
      {100000, 90000, 100500},   // ok
      {200000, 200000 - r, 200000},  // ok: exactly r stale, size == after
      {300000, 300000 - r - 1, 300000},  // too stale
      {400000, 400001, 400000},  // sees more than was ever handed over
      {500000, 450000, 500000},  // ok
  };
  EXPECT(count_violations(h, r, /*monotone=*/false) == 2);
  std::vector<Observation> shrink = {{10, 10, 10}, {20, 20, 20}, {20, 19, 20}};
  EXPECT(count_violations(shrink, 0, false) == 1);  // 19 < 20 - 0
  EXPECT(count_violations(shrink, 5, false) == 0);
  EXPECT(count_violations(shrink, 5, /*monotone=*/true) == 1);
  EXPECT(within_relaxation({5, 0, 5}, 10));  // floor clamps at zero
  // The rank bound for k=4096 at 198 probes and delta=1e-9 is about 6.2/k.
  const double eps = rank_error_bound(4096, 198, 1e-9);
  EXPECT(eps * 4096 > 6.0 && eps * 4096 < 6.4);
}

void open_loop_accounting() {
  // 1000 requests/s from t0 = 1'000'000: request i is due at t0 + i ms.
  OpenLoop ol(1'000'000, 1000.0);
  EXPECT(ol.due(0) == 1'000'000);
  EXPECT(ol.due(3) == 4'000'000);
  // Request 0 starts on time and runs 3.5 ms on the CPU; requests 1..3 queue
  // behind it and are charged from their due times, not their start times.
  ol.record(0, 1'000'000, 4'500'000, 3'500'000);
  ol.record(1, 4'500'000, 4'600'000, 100'000);
  ol.record(2, 4'600'000, 4'700'000, 100'000);
  ol.record(3, 4'700'000, 4'800'000, 100'000);
  ol.record(4, 5'000'000, 5'100'000, 100'000);  // back on schedule
  EXPECT(ol.wall_latency_ns[0].value == 3'500'000);
  EXPECT(ol.wall_latency_ns[1].value == 2'600'000);
  EXPECT(ol.wall_latency_ns[3].value == 800'000);
  EXPECT(ol.wall_latency_ns[4].value == 100'000);
  // With no time lost to the host, the virtual queue replays the wall clock.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT(ol.latency_ns[i].value == ol.wall_latency_ns[i].value);
  }
  EXPECT(ol.lag_ns[0].value == 0);
  EXPECT(ol.lag_ns[1].value == 2'500'000);
  EXPECT(ol.lag_ns[2].value == 1'600'000);
  EXPECT(ol.lag_ns[4].value == 0);
  // A request that starts early is not credited negative lag.
  ol.record(5, 5'900'000, 6'000'000, 100'000);
  EXPECT(ol.lag_ns[5].value == 0);
  // Request 6 wakes 2 ms late and is descheduled mid-call: 3 ms of wall
  // time, 0.2 ms of CPU.  Its virtual latency is its CPU time alone, and
  // request 7, due 1 ms later, does not queue behind it.
  ol.record(6, 9'000'000, 10'000'000, 200'000);
  ol.record(7, 10'000'000, 10'100'000, 100'000);
  EXPECT(ol.wall_latency_ns[6].value == 3'000'000);
  EXPECT(ol.lag_ns[6].value == 2'000'000);
  EXPECT(ol.latency_ns[6].value == 200'000);
  EXPECT(ol.latency_ns[7].value == 100'000);
  // CPU work that overruns the period does queue in virtual time: requests
  // due at 9 and 10 ms needing 1.5 ms each finish at 10.5 and 12 ms.
  OpenLoop q(1'000'000, 1000.0);
  q.record(8, 9'000'000, 9'000'000, 1'500'000);
  q.record(9, 9'000'000, 9'000'000, 1'500'000);
  EXPECT(q.latency_ns[0].value == 1'500'000);
  EXPECT(q.latency_ns[1].value == 2'000'000);
}

void rank_oracle() {
  const std::vector<double> pre = {0.5, 0.1, 0.9, 0.3};
  const std::vector<double> pool = {0.2, 0.4, 0.6};
  RankOracle o;
  o.add(pre, 1);
  o.add_cycled(pool, 7);  // pool twice, then 0.2
  EXPECT(o.total() == 11);
  // Stream: 0.5 0.1 0.9 0.3 | 0.2 0.4 0.6 0.2 0.4 0.6 | 0.2
  const auto r = o.ranks({0.4, 0.0, 1.0, 0.2, 0.4});
  EXPECT(r[0] == 5);  // 0.1 0.3 0.2 0.2 0.2
  EXPECT(r[1] == 0);
  EXPECT(r[2] == 11);
  EXPECT(r[3] == 1);
  EXPECT(r[4] == 5);
}

}  // namespace

int main() {
  percentile_rule();
  windowed_tail();
  self_time_nested();
  self_time_overlapping();
  trace_recording();
  relaxation_check();
  open_loop_accounting();
  rank_oracle();
  if (failures != 0) {
    std::printf("qcbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("qcbench_selftest: all passed\n");
  return 0;
}
