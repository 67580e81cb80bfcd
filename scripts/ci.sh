#!/usr/bin/env bash
# CI gate: build, test (scalar and auto compute backends crossed with
# single- and multi-threaded pool, the kernel crates under every other
# SIMD tier the CPU has), lint, the allocation probe, the end-to-end
# benchmark smokes, the serving smokes, then the overload soak.
#
# Everything runs --offline against the vendored dependency tree; no
# network access is required (or attempted).
#
#   scripts/ci.sh                  # full gate
#   SOAK_SEED=7 scripts/ci.sh      # overload soak under another seed
set -euo pipefail
cd "$(dirname "$0")/.."

SOAK_SEED="${SOAK_SEED:-1234}"

step() { printf '\n==> %s\n' "$*"; }

# Every test leg and the verify run go through `bounded LIMIT cmd...`:
# libtest has no timeout, so a deadlocked test binary would stall the
# gate forever. The limits are several times each leg's usual time on a
# 2-vCPU box; a leg that hits one fails the gate (exit 124, or 137 once
# the minute of grace for SIGTERM runs out).
bounded() {
  local limit="$1" rc=0
  shift
  timeout --kill-after=60 "$limit" "$@" || rc=$?
  if [[ $rc -eq 124 || $rc -eq 137 ]]; then
    echo "error: still running after $limit, killed: $*" >&2
  fi
  return "$rc"
}

step "cargo build --release"
cargo build --release --offline

# One parallel runtime on a std-only substrate: the only vendored
# crates are the RNG pair and the dev-only proptest shim; a serving
# build pulls in neither the bench harness nor the trainer, and the
# correctness harness does not link the bench harness.
step "dependency shape (vendor/, dp-serve and dp-verify trees)"
[[ "$(ls vendor | xargs)" == "proptest rand rand_chacha" ]] \
  || { echo "error: vendor/ must hold exactly proptest rand rand_chacha, found: $(ls vendor | xargs)" >&2; exit 1; }
SERVE_TREE="$(cargo tree --offline -p dp-serve -e normal)"
if grep -E 'dp-(bench|train)' <<<"$SERVE_TREE"; then
  echo "error: dp-serve must not depend on dp-bench or dp-train" >&2
  exit 1
fi
VERIFY_TREE="$(cargo tree --offline -p dp-verify -e normal)"
if grep 'dp-bench' <<<"$VERIFY_TREE"; then
  echo "error: dp-verify must not depend on dp-bench" >&2
  exit 1
fi

# Backend matrix: the whole workspace under the forced-scalar oracle
# backend and under auto dispatch (the widest SIMD tier this CPU has —
# scalar again on machines with none). DP_BACKEND=scalar is the
# configuration the golden fingerprints pin bitwise.
step "cargo test (DP_BACKEND=scalar, DP_POOL_THREADS=1)"
DP_BACKEND=scalar DP_POOL_THREADS=1 bounded 90m cargo test --offline --workspace -q

step "cargo test (DP_BACKEND=auto, DP_POOL_THREADS=4)"
DP_BACKEND=auto DP_POOL_THREADS=4 bounded 90m cargo test --offline --workspace -q

# auto is the widest tier only: on a CPU whose pick is wider than AVX2
# the two legs above never run the kernel crates' unit tests on the
# narrower SIMD tiers (same generic kernels, another lane width and
# tile). One leg per supported backend that is neither scalar nor
# auto's pick — none on a scalar-only or AVX2-only machine.
BACKENDS="$(cargo run --release --offline --quiet --example backends)"
for be in $(grep -v -e '^scalar' -e '(auto)$' <<<"$BACKENDS" || true); do
  step "cargo test dp-tensor deepmd-core (DP_BACKEND=${be}, DP_POOL_THREADS=4)"
  DP_BACKEND="$be" DP_POOL_THREADS=4 bounded 30m cargo test --offline -p dp-tensor -p deepmd-core -q
done

# Requesting a backend the CPU lacks must be a loud typed error, never a
# silent fallback. No machine has both NEON (aarch64) and AVX2 (x86),
# so exactly one of these two values is rejectable everywhere; pick it
# by compile target.
case "$(uname -m)" in
  aarch64|arm64) MISSING_BACKEND=avx2 ;;
  *)             MISSING_BACKEND=neon ;;
esac
step "verify rejects DP_BACKEND=${MISSING_BACKEND} (unsupported here)"
if DP_BACKEND="$MISSING_BACKEND" cargo run --release --offline -p dp-verify --bin verify -- --family backend 2>/dev/null; then
  echo "error: DP_BACKEND=${MISSING_BACKEND} should have been rejected" >&2
  exit 1
fi

step "cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Correctness harness, quick profile: all eight oracle families
# (gradient checks, physics invariants, differential equivalences,
# golden fingerprints, SIMD-backend-vs-scalar, compressed/quantized-tier
# fidelity budgets vs the f64 master, the domain-decomposition
# bitwise contract, and the serving fleet — pinned rendezvous-routing
# goldens, wire-frame corruption sweeps, and the bitwise
# fleet-vs-single-engine differential) at a fixed seed,
# under auto dispatch so the backend family sweeps every SIMD tier
# this CPU has. The full profile is documented in README.md.
step "verify (quick profile, seed 42, DP_BACKEND=auto)"
DP_BACKEND=auto bounded 30m cargo run --release --offline -p dp-verify --bin verify -- --seed 42 --profile quick

# Decomposed-MD gate: a replicated Cu supercell on a 2x2x1 domain grid
# must be bitwise equal to the single-domain reference, hold the PR 5
# NVE drift bound (5e-3 eV/atom per 1000 steps, pro rata), and keep the
# decomposition invariants through migration. Exits nonzero on any
# violation.
step "md_scale smoke (DP_POOL_THREADS=4)"
DP_POOL_THREADS=4 cargo run --release --offline -p dp-domain --bin md_scale_smoke

# Allocation probe, release build: a steady-state FEKF iteration
# (forward, both reductions, all five KF updates, 2 pool threads), a
# chained 1 + 4-slot KF update sequence on a 512-wide P block, a second
# in-place refresh of the FEKF loop's rollback snapshot, an iteration of
# the FEKF epoch loop with its divergence guards on (on one device, and
# on 2 devices: distributed_loop_iteration_is_allocation_free), and a steady-state
# decomposed MD step with the deep potential (2x1x1 grid, 2 pool
# threads) allocate nothing, and FrameEnv::build and the Vec-returning
# model wrappers allocate only what they return.
step "alloc probe (release)"
bounded 30m cargo test --release --offline -p dp-bench --test alloc_probe -q

# Paper reproduction gate: the four experiments whose claims are closed
# forms or launch counts (about a second). `reproduce` exits non-zero
# iff an exact claim of an experiment it ran is not reproduced. The
# two cheapest training experiments ride along as a does-not-panic
# smoke: their verdicts depend on the backend, so only a crash (an exit
# code other than 0 or 1) fails them here.
step "reproduce (exact claims of table3 memory scaling fig7b)"
cargo run --release --offline -p dp-bench --bin reproduce -- table3 memory scaling fig7b >/dev/null

step "reproduce smoke (fig4 fig7c)"
cargo run --release --offline -p dp-bench --bin reproduce -- fig4 fig7c >/dev/null || [[ $? -eq 1 ]]

# End-to-end smoke: FEKF on Cu to the pinned target RMSE, traced.
# Exit code 0 means every output check passed (converged, held-out
# RMSE under its ceiling, identical iteration counts across runs, the
# trace accounts for the window).
step "bench_e2e smoke (train_cu_small, traced)"
cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml --bin bench_e2e -- \
  --workload train_cu_small --seed 1 --seconds 3 --trace 1 >/dev/null

# Decomposed-MD smoke with the deep potential, traced: a 3888-atom Cu
# supercell on a 2x1x1 grid. Exit code 0 means the run stayed bitwise
# equal to the 1x1x1 reference (domain.bitwise_vs_single), every energy
# was finite and the trace accounts for the window.
step "bench_e2e smoke (md_domain, traced)"
cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml --bin bench_e2e -- \
  --workload md_domain --seed 1 --seconds 2 --trace 1 >/dev/null

# Serving engine smoke: 64 requests from 4 client threads with one
# mid-run hot-swap, then a tiered publish (master + compressed +
# quantized) with fidelity-routing assertions; the binary asserts
# response/version consistency and stats sanity (exits nonzero on any
# violation).
step "serve smoke (DP_POOL_THREADS=4)"
DP_POOL_THREADS=4 cargo run --release --offline -p dp-serve --bin serve_smoke

# Fleet smoke: 3 shards x 3 models x 2 tenants over the wire protocol
# (loopback and a real Unix socket), one mid-run publish frame, then a
# killed shard. The binary asserts the fleet invariants — dead-shard
# traffic fails with the typed Closed (no hang, no silent migration),
# survivors keep serving, health/stats frames tell the truth, tenant
# accounting adds up — and exits nonzero on any violation.
step "fleet smoke (DP_POOL_THREADS=4)"
DP_POOL_THREADS=4 cargo run --release --offline -p dp-serve --bin fleet_smoke

# Overload soak: open-loop heavy-tailed arrivals at ~2.5x the measured
# service rate with mid-run chaos (stalls, poisoned requests, corrupted
# and poisoned publishes). The binary asserts the SLO invariants — no
# hang, bounded queue, every request resolved with a typed outcome,
# shed fraction and p999 within policy — and exits nonzero otherwise.
step "overload soak (quick profile, seed ${SOAK_SEED})"
cargo run --release --offline --example overload_soak -- --profile quick --seed "$SOAK_SEED"

step "CI gate passed"
