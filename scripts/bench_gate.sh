#!/usr/bin/env bash
# bench_gate.sh — run the performance regression gate (DESIGN.md §18)
# against the committed baseline, exactly as CI's bench-gate job does:
# tecfan-bench -gobench runs the hot-path micro-benchmarks RUNS times,
# reduces each metric to its median, and fails on any allocs/op increase
# (every machine) or a >15% ns/op regression (matching CPU only).
#
#   scripts/bench_gate.sh                 # gate against BENCH_13.json
#   BASELINE=BENCH_10.json scripts/bench_gate.sh
#   RUNS=5 scripts/bench_gate.sh          # more repetitions, stabler median
#   EMIT=BENCH_14.json scripts/bench_gate.sh   # also record a new baseline
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${BASELINE:-BENCH_13.json}"
RUNS="${RUNS:-3}"
EMIT="${EMIT:-}"

args=(-gobench -gate -baseline "$BASELINE" -runs "$RUNS")
if [[ -n "$EMIT" ]]; then
  args+=(-emit "$EMIT")
fi

go run ./cmd/tecfan-bench "${args[@]}"
echo "bench_gate.sh: clean against $BASELINE"
