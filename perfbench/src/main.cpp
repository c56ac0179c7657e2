// qcbench — the repository benchmark.
//
//   qcbench --workload <ingest|fresh_query|snapshot> --seed <n> --seconds <s>
//           --trace <0|1> [--commit <sha>] [--results <file>]
//
// Each run: generate every input from the seed; set up (construct, prefill
// 20M uniform doubles through one updater, quiesce) several times and keep
// the last sketch; run the workload's main phase for --seconds; then run a
// 10 s mixed probe phase, on a second sketch set up the same way, that
// supplies the end-to-end metrics the main phase does not exercise.  After
// each phase, quiesce and check the sketch against an exact oracle.
// Latencies are reported on the virtual clock of openloop.hpp.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs the same workload
// twice, untraced and then traced (collect_stats on, spans around every
// public call), and prints the per-layer metrics plus the tracing overhead.
// The last line of stdout is the JSON result; every check that fails is
// counted in "failed" and makes "correct" false (exit code 1).
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "oracle.hpp"
#include "sequential/quantiles_sketch.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr double kProbeSeconds = 10;
constexpr double kAccountingTolerance = 1e-3;  // per-thread span accounting
constexpr double kRankDelta = 1e-9;            // rank-check failure probability

struct Cli {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string commit = "unknown";
  std::string results;
};

bool parse_cli(int argc, char** argv, Cli& cli) {
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      cli.workload = val;
      have_w = true;
    } else if (key == "--seed") {
      cli.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      cli.seconds = std::strtod(val.c_str(), &end);
      have_s = end != val.c_str() && *end == '\0' && cli.seconds > 0 && cli.seconds <= 120;
    } else if (key == "--trace") {
      cli.trace = val == "1";
      have_t = val == "0" || val == "1";
    } else if (key == "--commit") {
      cli.commit = val;
    } else if (key == "--results") {
      cli.results = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_w && have_seed && have_s && have_t &&
         (cli.workload == "ingest" || cli.workload == "fresh_query" ||
          cli.workload == "snapshot");
}

// The main phase of each workload (see BENCHMARK.json for why each exists).
PhaseSpec main_phase(const std::string& workload, double seconds) {
  PhaseSpec p;
  p.seconds = seconds;
  if (workload == "ingest") {
    p.closed_updaters = 3;
  } else if (workload == "fresh_query") {
    p.open_updaters = 2;
    p.open_rate = 4e6;  // 8M elements/s in total
    p.queriers = 2;
    // 500 queries/s in total.  At 500/s per querier a ~1.3 ms rebuild keeps
    // each querier ~70% busy, and its p99 becomes queueing noise.
    p.query_rate = 250;
  } else {
    p.closed_updaters = 2;
    p.snapshot_rate = 50;
  }
  return p;
}

// The probe phase every workload ends with: a small fixed mix of open-loop
// ingest, queries and snapshot rounds, so that each run reports every
// end-to-end metric.  A workload's own main phase takes precedence.
PhaseSpec probe_phase() {
  PhaseSpec p;
  p.seconds = kProbeSeconds;
  p.open_updaters = 1;
  p.open_rate = 8e6;
  p.queriers = 2;
  p.query_rate = 250;
  p.snapshot_rate = 50;
  return p;
}

std::uint32_t threads_of(const PhaseSpec& p) {
  return p.closed_updaters + p.open_updaters + p.queriers + (p.snapshot_rate > 0 ? 1 : 0);
}

double rss_mb() {
  std::ifstream f("/proc/self/statm");
  long pages_total = 0, pages_rss = 0;
  f >> pages_total >> pages_rss;
  return static_cast<double>(pages_rss) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Share of all CPU time the hypervisor gave to someone else (the "steal"
// column of /proc/stat) between two readings; it explains noisy runs.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? 100.0 * static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count and source, printed for the reader
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// A phase's percentile with its sample-count note; warns when the rule is not met.
double pct(const PhaseResult& ph, const std::vector<Sample>& v, double seconds, double p,
           std::string& note, const char* src) {
  const Windowed w = windowed_percentile(v, ph.t0, static_cast<std::uint64_t>(seconds), p);
  note = "n=" + std::to_string(w.n) + " src=" + src;
  if (w.window_s != 0) {
    note += " median of " + std::to_string(w.windows) + " windows of " +
            std::to_string(w.window_s) + "s";
  } else if (!percentile_supported(w.n, p)) {
    note += " WARNING: fewer than 10 samples beyond";
  }
  return w.value;
}

struct SetupResult {
  std::unique_ptr<Sketch> sketch;
  double seconds = 0;
};

// Input generation, construction, prefill through one updater, quiesce.
SetupResult setup(Inputs& in, std::uint64_t seed, std::size_t queries, bool stats,
                  ThreadTrace* tr) {
  SetupResult s;
  const std::uint64_t t0 = now_ns();
  SpanGuard root(tr, "setup");
  in.generate(seed, queries);
  qc::core::Options opts;
  opts.collect_stats = stats;
  s.sketch = std::make_unique<Sketch>(opts);
  {
    auto u = s.sketch->make_updater(0);
    std::uint64_t calls = 0;
    for (std::size_t off = 0; off < in.prefill.size(); off += kChunk, ++calls) {
      const std::size_t n = std::min(kChunk, in.prefill.size() - off);
      SpanGuard g(calls % kUpdateSampling == 0 ? tr : nullptr, "core.update");
      u.update(std::span<const double>(in.prefill.data() + off, n));
    }
  }
  {
    SpanGuard g(tr, "core.quiesce");
    s.sketch->quiesce();
  }
  s.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

struct PassResult {
  double main_seconds = 0;
  double probe_seconds = 0;
  double setup_s = 0;
  double mem_peak_mb = 0;
  PhaseResult main;
  PhaseResult probe;
  std::uint64_t checks = 0;  // post-run check operations
  std::uint64_t failed = 0;  // violations across phases and post-run checks
  double max_rank_err_k = 0; // largest normalized rank error, in units of 1/k
  double steal_pct = 0;      // host steal during the pass
  double rank_bound_k = 0;
  std::unique_ptr<ThreadTrace> main_trace;
  std::map<std::string, double> reference;  // single-thread reference rates
};

// Quiesces and checks that size() is exactly everything ingested.
void check_exact_size(Sketch& sk, std::uint64_t expect, ThreadTrace* tr, PassResult& pass) {
  {
    SpanGuard g(tr, "core.quiesce");
    sk.quiesce();
  }
  ++pass.checks;
  if (sk.size() != expect) {
    ++pass.failed;
    std::printf("CHECK FAILED: size() = %llu after quiesce, expected %llu\n",
                static_cast<unsigned long long>(sk.size()),
                static_cast<unsigned long long>(expect));
  }
}

// Post-quiesce rank error over a phi grid and a value grid, against the oracle.
void check_ranks(Sketch& sk, const RankOracle& oracle, PassResult& pass) {
  auto q = sk.make_querier();
  const std::uint64_t n = q.size();
  std::vector<double> probes;
  std::vector<double> phis;
  for (int j = 1; j < 100; ++j) {
    phis.push_back(j / 100.0);
    probes.push_back(q.quantile(j / 100.0));
  }
  for (int j = 1; j < 100; ++j) probes.push_back(j / 100.0);
  const std::vector<std::uint64_t> exact = oracle.ranks(probes);
  const std::uint32_t k = sk.options().k;
  const double eps = rank_error_bound(k, probes.size(), kRankDelta);
  pass.rank_bound_k = eps * k;
  if (oracle.total() != n) {
    ++pass.failed;
    std::printf("CHECK FAILED: oracle holds %llu elements, sketch %llu\n",
                static_cast<unsigned long long>(oracle.total()),
                static_cast<unsigned long long>(n));
  }
  const double dn = static_cast<double>(n);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    double err = 0;
    if (i < phis.size()) {
      err = std::abs(static_cast<double>(exact[i]) / dn - phis[i]);
    } else {
      err = std::abs(static_cast<double>(q.rank(probes[i])) - static_cast<double>(exact[i])) / dn;
    }
    pass.max_rank_err_k = std::max(pass.max_rank_err_k, err * k);
    ++pass.checks;
    if (err > eps) {
      ++pass.failed;
      std::printf("CHECK FAILED: rank error %.3g/k at probe %zu exceeds %.3g/k\n", err * k, i,
                  eps * k);
    }
  }
}

// Single-thread and two-thread reference ingest rates on the prefill input.
void reference_rates(const Inputs& in, PassResult& pass) {
  const std::span<const double> data(in.prefill);
  {
    qc::sequential::QuantilesSketch<double> seq(qc::core::Options{}.k);
    const std::uint64_t t0 = now_ns();
    for (const double v : data) seq.update(v);
    pass.reference["sequential.update_mops"] =
        static_cast<double>(data.size()) / static_cast<double>(now_ns() - t0) * 1e3;
  }
  for (const std::uint32_t threads : {1u, 2u}) {
    Sketch sk{qc::core::Options{}};
    const std::size_t share = data.size() / threads;
    std::vector<std::thread> ts;
    const std::uint64_t t0 = now_ns();
    for (std::uint32_t t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        auto u = sk.make_updater(t);
        for (std::size_t off = t * share; off < (t + 1) * share; off += kChunk) {
          u.update(data.subspan(off, std::min(kChunk, (t + 1) * share - off)));
        }
      });
    }
    for (auto& t : ts) t.join();
    const double mops = static_cast<double>(share * threads) /
                        static_cast<double>(now_ns() - t0) * 1e3;
    pass.reference[threads == 1 ? "core.update_mops_1t" : "core.update_mops_2t"] = mops;
  }
}

// Runs one phase on a set-up sketch, then checks it: exact size after
// quiesce, and rank error against the oracle of everything it ingested.
PhaseResult run_checked(Sketch& sk, const Inputs& in, const PhaseSpec& spec, bool trace,
                        std::uint64_t* generation, ThreadTrace* tr, PassResult& pass) {
  const std::uint64_t base = sk.size();
  PhaseResult ph = run_phase(sk, in, spec, trace, generation);
  check_exact_size(sk, base + ph.elements, tr, pass);
  RankOracle oracle;
  oracle.add(in.prefill, 1);
  for (std::size_t slot = 0; slot < ph.consumed.size(); ++slot) {
    oracle.add_cycled(in.pools[slot], ph.consumed[slot]);
  }
  check_ranks(sk, oracle, pass);
  pass.failed += ph.failed;
  return ph;
}

PassResult run_pass(const Cli& cli, Inputs& in, bool trace, int setups, double baseline_mb) {
  PassResult pass;
  const std::uint64_t wall0 = now_ns();
  const CpuTicks ticks0 = cpu_ticks();
  if (trace) pass.main_trace = std::make_unique<ThreadTrace>(1000, kTraceCapacity);
  ThreadTrace* tr = pass.main_trace.get();
  const PhaseSpec mainp = main_phase(cli.workload, cli.seconds);
  const PhaseSpec probep = probe_phase();
  const std::size_t queries =
      static_cast<std::size_t>(std::max(mainp.seconds, probep.seconds) *
                               std::max(mainp.query_rate, probep.query_rate) * 1.1) + 16;

  std::vector<double> setup_times;
  SetupResult s;
  for (int i = 0; i < setups; ++i) {
    s = SetupResult{};  // release the previous sketch before building the next
    s = setup(in, cli.seed, queries, trace, tr);
    setup_times.push_back(s.seconds);
  }
  pass.setup_s = median(setup_times);
  std::uint64_t generation = 0;
  pass.main_seconds = mainp.seconds;
  pass.probe_seconds = probep.seconds;
  pass.main = run_checked(*s.sketch, in, mainp, trace, &generation, tr, pass);
  // Median of the main phase's per-second peaks; the whole-pass peak when
  // the kernel cannot reset the high-water mark.
  pass.mem_peak_mb = (pass.main.window_peak_mb.empty() ? peak_rss_mb()
                                                   : median(pass.main.window_peak_mb)) -
                   baseline_mb;
  // The probe runs on a sketch of its own, set up like the first, so its
  // numbers do not depend on how much the main phase ingested.
  s = SetupResult{};
  s = setup(in, cli.seed, queries, trace, tr);
  pass.probe = run_checked(*s.sketch, in, probep, trace, &generation, tr, pass);
  pass.steal_pct = steal_pct(ticks0, cpu_ticks());
  if (tr != nullptr) tr->set_wall(wall0, now_ns());
  if (trace) reference_rates(in, pass);
  return pass;
}

// Medians pool the whole phase; tail percentiles are windowed (stats.hpp).
void add_timing(std::vector<Metric>& out, const char* name, const char* unit, double scale,
                const PhaseResult& ph, const std::vector<Sample>& samples, double seconds,
                double p, const char* src) {
  Metric m{name, 0, unit, ""};
  m.value = pct(ph, samples, p > 0.5 ? seconds : 0, p, m.note, src) * scale;
  out.push_back(m);
}

// Which phase supplies each group of end-to-end numbers: the main phase when
// it exercises the group, else the probe.
struct Sources {
  const PhaseResult* query;
  const PhaseResult* lag;
  const PhaseResult* snap;
  double query_s, lag_s, snap_s;
  const char* query_src;
  const char* lag_src;
  const char* snap_src;
};

Sources sources(const PassResult& pass) {
  const PhaseResult& mn = pass.main;
  const bool mq = mn.queries > 0, ml = !mn.lag_ns.empty(), msn = mn.snapshots > 0;
  return {mq ? &mn : &pass.probe,   ml ? &mn : &pass.probe,   msn ? &mn : &pass.probe,
          mq ? pass.main_seconds : pass.probe_seconds,
          ml ? pass.main_seconds : pass.probe_seconds,
          msn ? pass.main_seconds : pass.probe_seconds,
          mq ? "main" : "probe",  ml ? "main" : "probe",  msn ? "main" : "probe"};
}

// End-to-end metrics of one untraced pass: the gated set in BENCHMARK.json.
std::vector<Metric> end_to_end(const PassResult& pass) {
  std::vector<Metric> out;
  const PhaseResult& mn = pass.main;
  const Sources src = sources(pass);
  const PhaseResult& q = *src.query;
  const PhaseResult& sn = *src.snap;
  std::string rates;
  for (const double r : mn.window_rates) rates += " " + fmt(r);
  out.push_back({"ingest_mops", static_cast<double>(mn.window_elements) / mn.wall_s * 1e-6,
                 "Melem/s",
                 "elements=" + std::to_string(mn.window_elements) + " src=main; per 1s window:" +
                     rates});
  add_timing(out, "query_p50_us", "us", 1e-3, q, q.query_ns, src.query_s, 0.50, src.query_src);
  add_timing(out, "query_p99_us", "us", 1e-3, q, q.query_ns, src.query_s, 0.99, src.query_src);
  add_timing(out, "stale_p50_elems", "elements", 1, q, q.stale, src.query_s, 0.50,
             src.query_src);
  add_timing(out, "snapshot_p50_ms", "ms", 1e-6, sn, sn.snapshot_ns, src.snap_s, 0.50,
             src.snap_src);
  add_timing(out, "snapshot_p90_ms", "ms", 1e-6, sn, sn.snapshot_ns, src.snap_s, 0.90,
             src.snap_src);
  out.push_back({"setup_s", pass.setup_s, "s", "median of setups"});
  out.push_back({"mem_peak_mb", pass.mem_peak_mb, "MB",
                 "RSS high-water mark over the post-generation baseline, median of " +
                     std::to_string(pass.main.window_peak_mb.size()) + " 1s windows"});
  return out;
}

// Ungated end-to-end numbers: the wall-clock versions of the latencies, the
// staleness tail and the generator lag.  On a host that steals CPU time from
// the guest they move far more between identical runs than any bound could
// allow (see BASELINE.md), so they are recorded but not gated.
std::vector<Metric> wall_clock(const PassResult& pass) {
  std::vector<Metric> out;
  const Sources src = sources(pass);
  const PhaseResult& q = *src.query;
  const PhaseResult& l = *src.lag;
  const PhaseResult& sn = *src.snap;
  add_timing(out, "wall.query_p50_us", "us", 1e-3, q, q.query_wall_ns, src.query_s, 0.50,
             src.query_src);
  add_timing(out, "wall.query_p99_us", "us", 1e-3, q, q.query_wall_ns, src.query_s, 0.99,
             src.query_src);
  add_timing(out, "wall.stale_p99_elems", "elements", 1, q, q.stale, src.query_s, 0.99,
             src.query_src);
  add_timing(out, "wall.ingest_lag_p99_ms", "ms", 1e-6, l, l.lag_ns, src.lag_s, 0.99,
             src.lag_src);
  add_timing(out, "wall.snapshot_p50_ms", "ms", 1e-6, sn, sn.snapshot_wall_ns, src.snap_s,
             0.50, src.snap_src);
  add_timing(out, "wall.snapshot_p90_ms", "ms", 1e-6, sn, sn.snapshot_wall_ns, src.snap_s,
             0.90, src.snap_src);
  return out;
}

double mean_ns(const LayerTotals* l) {
  return l == nullptr || l->count == 0
             ? 0.0
             : static_cast<double>(l->total_ns) / static_cast<double>(l->count);
}

double pct_of(const LayerTotals* l, double p) {
  if (l == nullptr) return 0.0;
  std::vector<std::uint64_t> d = l->durations;
  return static_cast<double>(percentile(d, p));
}

// Per-layer metrics of the traced pass, plus overhead against the untraced one.
std::vector<Metric> per_layer(const PassResult& tp, const PassResult& up,
                              double& accounting_err) {
  std::vector<Metric> out;
  std::vector<const ThreadTrace*> main_t, probe_t, all_t;
  for (const auto& t : tp.main.traces) main_t.push_back(t.get());
  for (const auto& t : tp.probe.traces) probe_t.push_back(t.get());
  all_t = main_t;
  all_t.insert(all_t.end(), probe_t.begin(), probe_t.end());
  all_t.push_back(tp.main_trace.get());
  const auto main_l = aggregate(main_t);
  const auto probe_l = aggregate(probe_t);
  const auto setup_l = aggregate({tp.main_trace.get()});
  // A layer's numbers come from the main phase when it ran there, else the probe.
  const auto layer = [&](const std::string& name) -> const LayerTotals* {
    auto it = main_l.find(name);
    if (it != main_l.end() && it->second.count > 0) return &it->second;
    it = probe_l.find(name);
    return it != probe_l.end() ? &it->second : nullptr;
  };
  const auto add = [&](const std::string& n, double v, const char* unit,
                       std::string note = "") { out.push_back({n, v, unit, std::move(note)}); };

  const PhaseResult& mn = tp.main;
  const double melem = static_cast<double>(mn.elements) * 1e-6;
  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const qc::core::Stats& s0 = mn.stats_begin;
  const qc::core::Stats& s1 = mn.stats_end;
  const qc::core::IbrStats& i0 = mn.ibr_begin;
  const qc::core::IbrStats& i1 = mn.ibr_end;

  const LayerTotals* upd = layer("core.update");
  const double upd_elems = static_cast<double>(mn.sampled_update_elems);
  add("core.update.ns_per_elem", upd_elems == 0 ? 0 : static_cast<double>(upd->total_ns) / upd_elems,
      "ns", "sampled 1 in " + std::to_string(kUpdateSampling) + " calls");
  add("core.update.call_p99_us", pct_of(upd, 0.99) * 1e-3, "us",
      "n=" + std::to_string(upd == nullptr ? 0 : upd->count));
  add("core.install.latch_busy_frac",
      d(s0.latch_hold_total_ns, s1.latch_hold_total_ns) / (mn.wall_s * 1e9), "frac");
  add("core.install.latch_max_hold_us", static_cast<double>(s1.latch_max_hold_ns) * 1e-3, "us",
      "since construction");
  add("core.install.latch_spins_per_melem", d(s0.latch_spins, s1.latch_spins) / melem, "1/Melem");
  add("core.install.batches_per_group",
      d(s0.batches, s1.batches) / std::max(1.0, d(s0.installs, s1.installs)), "batches");
  add("core.install.queue_full_waits", d(s0.queue_full_waits, s1.queue_full_waits), "count");
  add("core.gather.waits_per_melem", d(s0.gather_waits, s1.gather_waits) / melem, "1/Melem");
  const double alloc = d(i0.allocated, i1.allocated), reused = d(i0.reused, i1.reused);
  add("core.ibr.reuse_frac", alloc + reused == 0 ? 0 : reused / (alloc + reused), "frac");
  add("core.ibr.scans_per_melem", d(i0.scans, i1.scans) / melem, "1/Melem");
  add("core.ibr.peak_unreclaimed", static_cast<double>(i1.peak_unreclaimed), "blocks");
  add("core.ibr.live_blocks", static_cast<double>(i1.live_blocks()), "blocks");

  const LayerTotals* reb = layer("core.refresh.rebuild");
  const LayerTotals* fast = layer("core.refresh.fast");
  const double nreb = reb == nullptr ? 0 : static_cast<double>(reb->count);
  const double nfast = fast == nullptr ? 0 : static_cast<double>(fast->count);
  const bool queries_in_main = mn.queries > 0;
  const PhaseResult& qp = queries_in_main ? mn : tp.probe;
  add("core.refresh.rebuild_frac", nreb + nfast == 0 ? 0 : nreb / (nreb + nfast), "frac",
      "n=" + fmt(nreb + nfast));
  add("core.refresh.rebuild_p50_us", pct_of(reb, 0.50) * 1e-3, "us", "n=" + fmt(nreb));
  add("core.refresh.rebuild_p99_us", pct_of(reb, 0.99) * 1e-3, "us", "n=" + fmt(nreb));
  add("core.refresh.fast_ns", mean_ns(fast), "ns", "mean, n=" + fmt(nfast));
  const double kq = static_cast<double>(qp.queries) * 1e-3;
  add("core.refresh.retries_per_kq",
      kq == 0 ? 0 : d(qp.stats_begin.query_retries, qp.stats_end.query_retries) / kq, "1/kq");
  add("core.refresh.holes_per_kq",
      kq == 0 ? 0 : d(qp.stats_begin.holes, qp.stats_end.holes) / kq, "1/kq");
  double items = 0;
  for (const std::uint64_t n : qp.rebuild_items) items += static_cast<double>(n);
  const double items_per = qp.rebuild_items.empty() ? 0 : items / static_cast<double>(qp.rebuild_items.size());
  add("run_merge.items_per_rebuild", items_per, "items");
  add("run_merge.ns_per_item", items_per == 0 ? 0 : mean_ns(reb) / items_per, "ns");
  add("core.answer.quantile_ns", pct_of(layer("core.answer.quantile"), 0.5), "ns", "median");
  add("core.answer.rank_ns", pct_of(layer("core.answer.rank"), 0.5), "ns", "median");
  add("recovery.encode_ms", pct_of(layer("recovery.encode_checkpoint"), 0.5) * 1e-6, "ms",
      "median, includes serialize");
  const PhaseResult& sp = mn.snapshots > 0 ? mn : tp.probe;
  std::vector<std::uint64_t> bytes = sp.image_bytes;
  add("serde.image_bytes", static_cast<double>(percentile(bytes, 0.5)), "bytes", "median");
  add("serde.deserialize_ms", pct_of(layer("serde.deserialize"), 0.5) * 1e-6, "ms", "median");
  add("core.merge_into.ms", pct_of(layer("core.merge_into"), 0.5) * 1e-6, "ms", "median");
  auto qit = setup_l.find("core.quiesce");
  add("core.quiesce.ms",
      qit == setup_l.end() ? 0 : pct_of(&qit->second, 0.5) * 1e-6, "ms", "median");
  for (const auto& [name, v] : tp.reference) add(name, v, "Melem/s", "reference, not gated");

  // Tracing overhead: how much worse the traced pass read than the untraced
  // pass of the same run, in % of the untraced value (negative = better).
  const std::vector<Metric> ue = end_to_end(up), te = end_to_end(tp);
  const auto overhead = [&](const char* metric, bool higher_is_better) {
    double u = 0, t = 0;
    for (std::size_t i = 0; i < ue.size(); ++i) {
      if (ue[i].name == metric) {
        u = ue[i].value;
        t = te[i].value;
      }
    }
    return u == 0 ? 0 : (higher_is_better ? u - t : t - u) / u * 100.0;
  };
  add("trace.overhead_ingest_mops_pct", overhead("ingest_mops", true), "%", "traced vs untraced");
  add("trace.overhead_query_p50_pct", overhead("query_p50_us", false), "%", "traced vs untraced");
  add("trace.overhead_snapshot_p50_pct", overhead("snapshot_p50_ms", false), "%",
      "traced vs untraced");

  accounting_err = 0;
  for (const ThreadTrace* t : all_t) accounting_err = std::max(accounting_err, accounting_error(*t));
  add("trace.accounting_err", accounting_err, "frac",
      "max over threads of |sum(self)+unspanned-wall|/wall, tolerance " + fmt(kAccountingTolerance));

  // Self time per layer, as a share of the summed wall time of all traced threads.
  double wall = 0;
  std::uint64_t unspanned_ns = 0;
  for (const ThreadTrace* t : all_t) {
    wall += static_cast<double>(t->wall_end() - t->wall_start());
    unspanned_ns += unspanned(*t);
  }
  std::map<std::string, std::uint64_t> self;
  for (const auto* m : {&main_l, &probe_l, &setup_l}) {
    for (const auto& [name, l] : *m) self[name] += l.self_ns;
  }
  // A fixed list, so every traced run reports the same metric names.
  for (const char* name : {"core.update", "core.quiesce", "core.refresh.rebuild",
                           "core.refresh.fast", "core.answer.quantile", "core.answer.rank",
                           "recovery.encode_checkpoint", "core.merge_into",
                           "serde.deserialize", "setup", "query", "snapshot.round"}) {
    add(std::string("self.") + name + "_frac", static_cast<double>(self[name]) / wall, "frac",
        std::string(name) == "core.update" ? "sampled spans only" : "");
  }
  add("self.unspanned_frac", static_cast<double>(unspanned_ns) / wall, "frac");
  // The ungated wall-clock numbers of the untraced pass.
  for (Metric& m : wall_clock(up)) out.push_back(std::move(m));
  return out;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("metric %-40s %14s %-8s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), m.note.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Cli cli;
  if (!parse_cli(argc, argv, cli)) {
    std::fprintf(stderr,
                 "usage: qcbench --workload <ingest|fresh_query|snapshot> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <sha>] [--results <file>]\n");
    return 2;
  }
  // 1 us timer slack (inherited by every thread created below), so a
  // sleeping open-loop generator wakes close to its due time.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::uint32_t threads =
      std::max(threads_of(main_phase(cli.workload, cli.seconds)), threads_of(probe_phase()));
  const bool oversubscribed = threads > nproc;
  const std::string host =
      std::string("{\"nproc\": ") + std::to_string(nproc) + ", \"cpu\": \"" +
      json_escape(cpu_model()) + "\", \"compiler\": \"" + json_escape(__VERSION__) +
      "\", \"flags\": \"" + json_escape(PERFBENCH_FLAGS) + "\", \"build_type\": \"" +
      PERFBENCH_BUILD_TYPE + "\", \"commit\": \"" + json_escape(cli.commit) +
      "\", \"workload\": \"" + cli.workload + "\", \"seed\": " + std::to_string(cli.seed) +
      ", \"seconds\": " + fmt(cli.seconds) + ", \"trace\": " + (cli.trace ? "1" : "0") +
      ", \"threads\": " + std::to_string(threads) +
      ", \"oversubscribed\": " + (oversubscribed ? "true" : "false") + "}";
  std::printf("host %s\n", host.c_str());
  if (oversubscribed) {
    std::printf("FLAG: workload %s runs %u threads on %u cores (oversubscribed)\n",
                cli.workload.c_str(), threads, nproc);
  }

  // Generate once before taking the memory baseline; every setup regenerates
  // the same inputs into the same buffers.
  Inputs in;
  in.generate(cli.seed, 16);
  const double baseline_mb = rss_mb();

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  const auto tally = [&](const PassResult& p) {
    attempted += p.main.update_calls + p.main.queries + p.main.snapshots +
                 p.probe.update_calls + p.probe.queries + p.probe.snapshots + p.checks;
    failed += p.failed;
    std::printf("checks: max rank error %.3f/k (bound %.3f/k), violations %llu\n",
                p.max_rank_err_k, p.rank_bound_k, static_cast<unsigned long long>(p.failed));
    std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the pass\n",
                p.steal_pct);
  };
  if (!cli.trace) {
    const PassResult p = run_pass(cli, in, false, kSetupRepeats, baseline_mb);
    tally(p);
    metrics = end_to_end(p);
    std::printf("wall-clock numbers, recorded but not gated:\n");
    print_metrics(wall_clock(p));
  } else {
    const PassResult u = run_pass(cli, in, false, 1, baseline_mb);
    tally(u);
    const PassResult t = run_pass(cli, in, true, 1, baseline_mb);
    tally(t);
    double acct = 0;
    metrics = per_layer(t, u, acct);
    if (acct > kAccountingTolerance) {
      ++failed;
      std::printf("CHECK FAILED: span accounting off by %.3g of wall (tolerance %.3g)\n", acct,
                  kAccountingTolerance);
    }
    std::printf("untraced end-to-end, for reference:\n");
    print_metrics(end_to_end(u));
  }
  print_metrics(metrics);
  std::printf("ops %llu\nops_failed %llu\n", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  const std::string result = std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + metrics_json(metrics) + "}";
  if (!cli.results.empty()) {
    std::ofstream f(cli.results);
    f << "{\"host\": " << host << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return failed == 0 ? 0 : 1;
}
