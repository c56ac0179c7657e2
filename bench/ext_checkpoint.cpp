// Extension: the cost of durability (recovery/checkpoint.hpp).
//
// Two questions an operator sizing a checkpoint cadence needs answered:
//
//   1. Checkpoint latency vs sketch size — how long does one checkpoint()
//      (snapshot + CRC-framed encode + write + fsync + rename + dir fsync)
//      take as the sketch grows?  The snapshot rides serialize()'s ladder
//      image, so retained bytes (~O(k log n)), not stream length, set the
//      encode cost; the fsyncs set the floor.
//   2. The ingest-throughput dip while checkpoints run — updaters contend
//      with serialize exactly as they do with merge_into, so back-to-back
//      checkpoints on a cadence shave some ingest throughput.  The dip, not
//      the latency, is what a production cadence trades against durability.
//
// Writes BENCH_checkpoint.json when QC_BENCH_JSON is set: the two ingest
// throughputs gate regressions (tput_ keys); the latency/size diagnostics
// ride along ungated (lower-is-better values must not use the tput_ prefix).
//
// Env: QC_SCALE/QC_KEYS/QC_RUNS/QC_MAX_THREADS, QC_K, QC_B, QC_BENCH_JSON.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/harness.hpp"
#include "bench_util/workload.hpp"
#include "common/env.hpp"
#include "common/fmt_table.hpp"
#include "common/timer.hpp"
#include "recovery/checkpoint.hpp"
#include "stream/generators.hpp"

int main() {
  using namespace qc;
  auto scale = env::bench_scale();
  const std::uint32_t k = static_cast<std::uint32_t>(env::get_u64("QC_K", 1024));
  const std::uint32_t b = static_cast<std::uint32_t>(env::get_u64("QC_B", 16));
  scale.keys = std::max<std::uint64_t>(scale.keys, 400'000);
  scale.runs = std::max(scale.runs, 3u);

  std::printf("=== ext: checkpoint latency and ingest dip ===\n");
  std::printf("k=%u b=%u n=%llu runs=%u\n\n", k, b,
              static_cast<unsigned long long>(scale.keys), scale.runs);

  const auto make_opts = [&] {
    core::Options o;
    o.k = k;
    o.b = b;
    o.topology = numa::Topology::virtual_nodes(2, 4);
    return o;
  };
  const auto data = stream::make_stream(stream::Distribution::kUniform, scale.keys, 29);
  const std::string dir = "qc_bench_ckpt";
  std::filesystem::remove_all(dir);

  bench::JsonKv json("ext_checkpoint", scale.name);

  // ----- 1. checkpoint latency vs sketch size -------------------------------
  const struct {
    const char* tag;
    std::uint64_t n;
  } sizes[] = {
      {"small", scale.keys / 16},
      {"medium", scale.keys / 4},
      {"large", scale.keys},
  };
  Table lat({"size", "elements", "image", "ckpt avg", "encode-only", "MB/s"});
  for (const auto& sz : sizes) {
    core::Quancurrent<double> sk(make_opts());
    {
      auto u = sk.make_updater(0);
      u.update(std::span<const double>(data.data(), sz.n));
    }
    sk.quiesce();
    recovery::Checkpointer ck(sk, {.dir = dir, .name = sz.tag, .keep = 2});
    const double ckpt_secs = bench::average_runs(scale.runs, [&] {
      Timer t;
      if (!ck.checkpoint()) std::printf("checkpoint FAILED (%s)\n", sz.tag);
      return t.seconds();
    });
    const double encode_secs = bench::average_runs(scale.runs, [&] {
      Timer t;
      const auto img = recovery::encode_checkpoint(sk, 0);
      (void)img;
      return t.seconds();
    });
    const double image_bytes =
        static_cast<double>(recovery::encode_checkpoint(sk, 0).size());
    lat.add_row({sz.tag, Table::integer(sz.n),
                 Table::num(image_bytes / 1024.0, 1) + " KiB",
                 Table::num(ckpt_secs * 1e3, 3) + " ms",
                 Table::num(encode_secs * 1e3, 3) + " ms",
                 Table::num(image_bytes / (1024.0 * 1024.0) / ckpt_secs, 1)});
    json.add(std::string("ckpt_ms_") + sz.tag, ckpt_secs * 1e3);
    json.add(std::string("encode_ms_") + sz.tag, encode_secs * 1e3);
    json.add(std::string("image_bytes_") + sz.tag, image_bytes);
  }
  lat.print();

  // ----- 2. ingest-throughput dip during checkpoints ------------------------
  const std::uint32_t threads = std::min(8u, std::max(2u, scale.max_threads));
  {  // warmup: keep first-touch faults and frequency ramp out of run 1
    core::Quancurrent<double> warm(make_opts());
    (void)bench::ingest_quancurrent(warm, data, threads);
  }
  const double steady = bench::average_runs(scale.runs, [&] {
    core::Quancurrent<double> sk(make_opts());
    return throughput(data.size(), bench::ingest_quancurrent(sk, data, threads));
  });
  std::uint64_t ckpts = 0;
  const double during = bench::average_runs(scale.runs, [&] {
    core::Quancurrent<double> sk(make_opts());
    recovery::Checkpointer ck(sk, {.dir = dir, .name = "dip", .keep = 2});
    std::atomic<bool> stop{false};
    std::thread snapper([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (ck.checkpoint()) ++ckpts;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    const double secs = bench::ingest_quancurrent(sk, data, threads);
    stop.store(true, std::memory_order_release);
    snapper.join();
    return throughput(data.size(), secs);
  });
  const double dip_pct = steady <= 0.0 ? 0.0 : 100.0 * (1.0 - during / steady);
  std::printf("\ningest @%u threads: steady=%s with-checkpoints=%s dip=%.1f%% "
              "(%llu checkpoints taken)\n",
              threads, Table::mops(steady).c_str(), Table::mops(during).c_str(),
              dip_pct, static_cast<unsigned long long>(ckpts));

  json.add("tput_ingest_steady", steady);
  json.add("tput_ingest_during_ckpt", during);
  json.add("dip_pct", dip_pct);
  json.add("checkpoints_during_ingest", static_cast<double>(ckpts));

  std::filesystem::remove_all(dir);
  const std::string out = bench::json_out_dir();
  if (!out.empty()) {
    const std::string path = out + "/BENCH_checkpoint.json";
    if (json.write_file(path)) std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
