#!/usr/bin/env bash
# Bench regression gate: compare a PR bench run against the committed
# baseline and fail on any checkpoint/checkout latency more than 25%
# slower. The comparison itself lives in-tree (kishu-bench
# `pipeline::compare`, exposed as `repro bench-compare`) so this stays a
# thin wrapper. The absolute floors (chunks reduction, interp and queries
# speedups, obs overhead ceiling) are checked by `repro chunks|interp|
# queries|obs` themselves, which exit 1 on a miss.
#
# usage: bench_gate.sh [BASELINE [PR]]
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${1:-BENCH_baseline.json}"
PR="${2:-target/BENCH_pr.json}"

if [ ! -f "$BASELINE" ]; then
    echo "bench-gate: no baseline at $BASELINE; skipping." \
         "Record one with: cargo run --release --offline -p kishu-bench --bin repro -- bench --out $BASELINE"
    exit 0
fi
if [ ! -f "$PR" ]; then
    echo "bench-gate: no PR metrics at $PR (run: KISHU_BENCH_QUICK=1 repro bench)" >&2
    exit 1
fi

# Capture the comparator's output (instead of exec'ing it away) so metrics
# that exist in the baseline but vanished from the PR run surface as a loud
# warning block — a silently dropped metric would otherwise un-gate itself
# forever. Warnings never change the exit status; regressions still do.
OUT="$(cargo run -q --release --offline -p kishu-bench --bin repro -- \
    bench-compare "$BASELINE" "$PR" --tolerance 0.25)" || STATUS=$?
echo "$OUT"

WARNINGS_FILE="target/bench_gate_warnings.txt"
mkdir -p target
if echo "$OUT" | grep "WARNING:" > "$WARNINGS_FILE"; then
    echo ""
    echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!"
    echo "!! bench-gate: metric(s) present in baseline but MISSING from the"
    echo "!! PR run (see $WARNINGS_FILE):"
    sed 's/^/!!   /' "$WARNINGS_FILE"
    echo "!! If a metric was intentionally renamed or dropped, refresh the"
    echo "!! baseline: cargo run --release --offline -p kishu-bench --bin repro -- bench --out $BASELINE"
    echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!"
else
    rm -f "$WARNINGS_FILE"
fi

exit "${STATUS:-0}"
