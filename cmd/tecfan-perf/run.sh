#!/usr/bin/env bash
# Builds tecfan-perf from source and runs it with the given flags.
#
# Run from the repository root:
#   bash cmd/tecfan-perf/run.sh --workload fig56 --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/ in
# the current directory: the Go build cache, temp files, the binary, and the
# daemon state directories of the serving workloads.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "tecfan-perf: run from the repository root (no go.mod/internal here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
# The go command keeps its env file and telemetry counters under the user
# config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=

(cd "$here" && go build -o "$out/tecfan-perf" .)
exec "$out/tecfan-perf" -work-dir "$out" "$@"
