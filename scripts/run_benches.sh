#!/usr/bin/env bash
# Run every bench binary in smoke mode (LCN_FAST=1) and collect the side
# outputs — per-bench CSVs and the machine-readable perf records
# (BENCH_parallel.json, BENCH_reliability.json, BENCH_assembly.json,
# BENCH_transient.json, BENCH_metrics.json) — into ./bench_results/.
# Three benches self-check and exit nonzero on a regression: bench_assembly
# (plan refills bit-identical to fresh assemblies, >= 2x refill probe
# throughput), bench_transient (the scenario engine's plan-refill step stays
# >= 3x cheaper than a fresh symbolic rebuild) and bench_metrics (an enabled
# histogram observation stays within a bounded factor of a bare counter
# add).
#
# Usage: scripts/run_benches.sh [build-dir]
#   build-dir   defaults to ./build (must already be built)
#
# Knobs (see bench/bench_util.hpp): LCN_FAST is forced on here; LCN_CASES,
# LCN_SA_SCALE, LCN_THREADS pass through to the benches.
set -euo pipefail

build_dir="${1:-build}"
if [[ ! -d "${build_dir}/bench" ]]; then
  echo "error: ${build_dir}/bench not found — build the project first:" >&2
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
  exit 1
fi

mkdir -p bench_results
failures=0
for bench in "${build_dir}"/bench/bench_*; do
  [[ -x "${bench}" && ! -d "${bench}" ]] || continue
  name="$(basename "${bench}")"
  echo "=== ${name} (LCN_FAST=1) ==="
  # Benches write bench_results/ relative to the working directory, so run
  # from the repo root to collect everything in one place.
  if ! LCN_FAST=1 "${bench}"; then
    echo "!!! ${name} failed" >&2
    failures=$((failures + 1))
  fi
  echo
done

echo "collected outputs in bench_results/:"
ls -l bench_results/ || true
if [[ "${failures}" -gt 0 ]]; then
  echo "${failures} bench(es) failed" >&2
  exit 1
fi
