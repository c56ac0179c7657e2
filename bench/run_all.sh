#!/usr/bin/env bash
# Runs every built bench binary at smoke scale and fails if any exits
# non-zero.  Benches that track a perf trajectory (fig06a -> BENCH_ingest
# incl. ingest contention counters, fig06b -> BENCH_query, micro_primitives
# -> BENCH_ingest_micro with the Gather&Sort sweep and BENCH_query_micro with
# the direct answer kernels over uniform, mod-7 and ascending-stream ladders,
# fig07c -> BENCH_rho, ext_sharded_scaling -> BENCH_sharded, fig10_vs_fcds
# -> BENCH_fig10 with the Quancurrent-vs-FCDS matched-relaxation sweep,
# ext_kll_compare -> BENCH_kll, ext_checkpoint -> BENCH_checkpoint with
# checkpoint latency vs sketch size and the ingest dip under a checkpoint
# cadence, abl_propagation ->
# BENCH_abl_propagation, abl_reclamation ->
# BENCH_abl_reclamation with the IBR cadence sweep) drop their JSON into
# QC_BENCH_JSON (default: the build dir), where CI picks them up as
# artifacts and bench/check_regression.py gates on the tput series.
# Usage: bench/run_all.sh [build-dir]   (default: build)
set -u

build_dir="${1:-build}"
bench_dir="${build_dir}/bench"

if [ ! -d "${bench_dir}" ]; then
  echo "error: ${bench_dir} not found — configure with -DQC_BUILD_BENCH=ON first" >&2
  exit 2
fi

export QC_SCALE="${QC_SCALE:-smoke}"
export QC_BENCH_JSON="${QC_BENCH_JSON:-${build_dir}}"
mkdir -p "${QC_BENCH_JSON}"

failures=0
ran=0
for exe in "${bench_dir}"/*; do
  [ -f "${exe}" ] && [ -x "${exe}" ] || continue
  ran=$((ran + 1))
  echo "=== running $(basename "${exe}") (QC_SCALE=${QC_SCALE}) ==="
  if ! "${exe}"; then
    echo "*** $(basename "${exe}") FAILED" >&2
    failures=$((failures + 1))
  fi
  echo
done

if [ "${ran}" -eq 0 ]; then
  echo "error: no bench binaries found in ${bench_dir}" >&2
  exit 2
fi

for json in BENCH_ingest.json BENCH_query.json BENCH_ingest_micro.json \
            BENCH_query_micro.json BENCH_rho.json BENCH_sharded.json BENCH_fig10.json \
            BENCH_kll.json BENCH_checkpoint.json \
            BENCH_abl_propagation.json BENCH_abl_reclamation.json; do
  if [ -f "${QC_BENCH_JSON}/${json}" ]; then
    echo "perf artifact: ${QC_BENCH_JSON}/${json}"
  else
    echo "*** expected perf artifact ${QC_BENCH_JSON}/${json} was not written" >&2
    failures=$((failures + 1))
  fi
done

echo "${ran} bench(es) run, ${failures} failure(s)"
exit "$((failures > 0 ? 1 : 0))"
