#!/usr/bin/env bash
# Tier-1 verification gate. The build is hermetic: every dependency is an
# in-tree path crate (kishu-testkit replaces rand/proptest/serde_json/
# criterion/parking_lot), so everything below runs fully offline.
#
# usage: ci.sh [--quick]
#   --quick   skips the pinned-seed fault pass.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [ "${1:-}" = "--quick" ]; then
    QUICK=1
fi

# Per-stage wall-time accounting.
CI_T0=$(date +%s)
STAGE_NAME=""
STAGE_T0=$CI_T0
stage() {
    local now; now=$(date +%s)
    if [ -n "$STAGE_NAME" ]; then
        echo "-- $STAGE_NAME: $(( now - STAGE_T0 ))s"
    fi
    STAGE_NAME="${1:-}"
    STAGE_T0=$now
    if [ -n "$STAGE_NAME" ]; then
        echo "== $STAGE_NAME =="
    fi
}

# The success path closes its stage accounting with `stage ""` at the
# bottom; on failure that never runs, which used to swallow exactly the
# timing you want when debugging a slow broken stage. Print it from the
# exit trap instead.
on_exit() {
    local code=$? now
    now=$(date +%s)
    if [ "$code" -ne 0 ]; then
        if [ -n "$STAGE_NAME" ]; then
            echo "-- $STAGE_NAME: $(( now - STAGE_T0 ))s (FAILED)" >&2
        fi
        echo "CI FAILED (exit $code) in $(( now - CI_T0 ))s" >&2
    fi
}
trap on_exit EXIT

stage "guard: no external registry dependencies"
if grep -nE '^\s*(rand|proptest|criterion|crossbeam|parking_lot|bytes|serde|serde_json)[ .=]' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "error: external registry dependency declared above" >&2
    exit 1
fi

# Configuration is the values callers pass (`KishuConfig`, `ChunkConfig`,
# `ObsConfig`). The library crates read the environment in exactly four
# places: the trace switches (kishu-trace `env_switches`: KISHU_TRACE,
# KISHU_OBS_BLACKBOX) and the two harness knobs (kishu-testkit
# `rng::seed_override`: KISHU_TESTKIT_SEED, `bench::quick`:
# KISHU_BENCH_QUICK). kbench, a package of its own, is not covered.
stage "guard: environment reads only in the declared readers"
ENV_READS="$(grep -rnE 'env::var(_os)?\(' crates/*/src src --include='*.rs' \
    | grep -v '^crates/bench/src/bin/kbench/' || true)"
ALLOWED='^crates/trace/src/lib\.rs:[0-9]+: .*env::var(_os)?\("KISHU_(TRACE|OBS_BLACKBOX)"\)'
ALLOWED="$ALLOWED"'|^crates/testkit/src/rng\.rs:[0-9]+: .*env::var\("KISHU_TESTKIT_SEED"\)'
ALLOWED="$ALLOWED"'|^crates/testkit/src/bench\.rs:[0-9]+: .*env::var\("KISHU_BENCH_QUICK"\)'
if printf '%s\n' "$ENV_READS" | grep -vE "$ALLOWED" | grep .; then
    echo "error: environment read outside the declared readers (above)" >&2
    exit 1
fi
if [ "$(printf '%s\n' "$ENV_READS" | grep -c .)" -ne 4 ]; then
    printf '%s\n' "$ENV_READS" >&2
    echo "error: expected exactly 4 environment reads (above)" >&2
    exit 1
fi

stage "cargo build --release --offline"
cargo build --release --offline --workspace --benches

# One pass over the whole workspace. The differential invariants (serial
# oracle, representation-only chunking, VM = tree-walker, behavior-free
# tracing, tenant isolation) run in-process as one table:
# tests/invariant_matrix.rs. The performance gate runs here too:
# tests/work_ledger.rs compares host-independent work counts exactly with
# LEDGER.json; timing claims are judged by paired `kbench compare` runs.
stage "cargo test --offline --workspace"
cargo test -q --offline --workspace

# kbench (the benchmark in BENCHMARK.json) is a package of its own with an
# empty [workspace], so the workspace passes above never run its tests.
stage "kbench unit tests (own package)"
cargo test -q --release --offline --manifest-path crates/bench/src/bin/kbench/Cargo.toml

stage "trace smoke (repro trace -> target/trace.json, validate expected spans)"
cargo run -q --release --offline -p kishu-bench --bin repro -- \
    trace --out target/trace.json > /dev/null
cargo run -q --release --offline -p kishu-bench --bin repro -- \
    trace-validate target/trace.json

stage "storage engine v2 sweep (repro chunks -> target/CHUNKS.json, reduction floor)"
cargo run -q --release --offline -p kishu-bench --bin repro -- chunks

# The VM-vs-tree speedup is asserted at full scale (--scale 1.0) even in
# quick mode: the workload is a couple of seconds, and the acceptance bar
# for the bytecode VM is defined at full scale, not at the smoke scale.
stage "interp bench (bytecode VM vs tree-walker, scale 1.0 -> target/INTERP.json, speedup floor)"
cargo run -q --release --offline -p kishu-bench --bin repro -- interp

stage "query surface bench (dashboard diff/history polling -> target/QUERIES.json, speedup floor)"
cargo run -q --release --offline -p kishu-bench --bin repro -- queries

stage "flight-recorder overhead bench (repro obs -> target/OBS.json, overhead ceiling)"
cargo run -q --release --offline -p kishu-bench --bin repro -- obs

if [ "$QUICK" != 1 ]; then
    # The fault suites also run inside the workspace pass with their
    # built-in seeds; this extra pass pins a second, independent seed so
    # determinism regressions (same seed, different faults) and
    # seed-specific breakage both surface.
    FAULT_SEED="${FAULT_SEED:-20250807}"
    stage "fault injection, recovery, isolation and the invariant matrix (KISHU_TESTKIT_SEED=$FAULT_SEED)"
    if ! { KISHU_TESTKIT_SEED="$FAULT_SEED" cargo test -q --offline -p kishu-repro \
            --test crash_recovery --test multi_tenant --test invariant_matrix \
        && KISHU_TESTKIT_SEED="$FAULT_SEED" \
            cargo test -q --offline -p kishu-bench --lib fault_sweep; }; then
        echo "error: fault suite failed; replay with KISHU_TESTKIT_SEED=$FAULT_SEED" >&2
        exit 1
    fi
fi

if cargo clippy --version >/dev/null 2>&1; then
    stage "cargo clippy (all targets, -D warnings)"
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
    stage "cargo clippy (unavailable; skipped)"
fi

# Rotate observability artifacts under target/ so repeated CI runs stay
# bounded: keep the newest few Chrome traces and flight-recorder dumps,
# delete the rest. (Black-box dumps rotate themselves at write time too —
# this also covers dumps left by crashed/killed runs.)
stage "rotate trace/flightrec artifacts under target/"
rotate_keep() { # rotate_keep GLOB... (keeps the 8 newest of the set)
    # `ls` exits 2 when a glob matched nothing; under pipefail that must
    # not fail the stage.
    { ls -1t "$@" 2>/dev/null || true; } | tail -n +9 | while IFS= read -r f; do
        rm -f "$f"
    done
}
rotate_keep target/trace*.json.old target/trace-*.json
rotate_keep target/flightrec/flightrec-*.jsonl
echo "kept: $(ls -1 target/flightrec/ 2>/dev/null | wc -l) flightrec dump(s)"

stage ""
echo "CI OK in $(( $(date +%s) - CI_T0 ))s$([ "$QUICK" = 1 ] && echo ' (quick)')"
