#!/usr/bin/env bash
# Kernel micro-benchmark sweep: writes BENCH_gemm.json and
# BENCH_p_update.json, plus BENCH_serve_slo.json: shed / deadline-miss
# / breaker-trip / degradation counters and tail latency under the
# seeded chaos overload soak. Per-layer model timings (env build,
# forward, forces, gradients, env-cache hit rate) and the end-to-end
# numbers — training time-to-accuracy, the online loop, fleet serving,
# served and decomposed MD — are bench_e2e's (see bench_e2e/README.md).
#
#   scripts/bench.sh                 # full sweep -> results/bench/
#   scripts/bench.sh --smoke         # one shape per report (CI gate)
#   scripts/bench.sh --paper         # adds the 10240 P block (~800 MB)
#   BENCH_OUT=dir scripts/bench.sh   # alternate output directory
#
# Thread counts {1, 2, 4} are swept in-process via dp_pool::set_threads,
# so one run produces the whole scaling picture. Results are medians;
# run on an idle machine before committing a new baseline.
#
# Every report is stamped with the compute backend resolved from
# DP_BACKEND (default: auto = widest SIMD tier this CPU supports) and
# the detected CPU features; BENCH_gemm.json additionally carries a
# per-backend gemm/<backend> + gemv/<backend> sweep of every backend
# the CPU has, so one file documents the scalar-vs-SIMD ratio (DESIGN
# §13). An unsupported DP_BACKEND value exits 2 before measuring.
#
# The nightly correctness sweep pairs with this perf sweep: run the
# dp-verify harness at the *full* profile (more systems, more parameter
# probes, larger random shapes than the quick CI gate in ci.sh):
#
#   cargo run --release --offline -p dp-verify --bin verify -- \
#       --seed "$(date +%s)" --profile full
#
# A varying seed widens generated-input coverage over time; the golden
# fingerprints are pinned to an internal seed and stay valid. After an
# intentional numeric change, regenerate them with `verify --bless`
# and commit results/golden/.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-results/bench}"

cargo build --release --offline -p dp-bench --bin bench_kernels
cargo build --release --offline --example overload_soak

SOAK_PROFILE=full
for arg in "$@"; do
    [[ "$arg" == "--smoke" ]] && SOAK_PROFILE=quick
done

cargo run --release --offline -p dp-bench --bin bench_kernels -- "--out=${OUT}" "$@"
exec cargo run --release --offline --example overload_soak -- --profile "${SOAK_PROFILE}" --seed 1234 "--out=${OUT}"
