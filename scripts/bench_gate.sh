#!/usr/bin/env bash
# bench_gate.sh — run the performance regression gate (DESIGN.md §18), as
# CI's bench-gate job does: tecfan-bench -gobench judges the working tree's
# hot-path micro-benchmarks against REV in ten interleaved pairs, and fails
# on any allocs/op rise, on a named benchmark that did not run, or on an
# ns/op loss in 9 of 10 pairs larger than 15 % and the parent's own spread.
#
#   scripts/bench_gate.sh             # uncommitted changes against HEAD
#   scripts/bench_gate.sh HEAD~1      # the last commit against its parent
set -euo pipefail
cd "$(dirname "$0")/.."

exec go run ./cmd/tecfan-bench -gobench "${1:-HEAD}"
