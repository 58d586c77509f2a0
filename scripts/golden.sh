#!/usr/bin/env bash
# golden.sh — regenerate every experiment at full scale and diff each block
# against its block of the committed results_full.txt, exactly as CI's
# golden step does. The "(name in N)" timing lines and blank lines are
# dropped on both sides, and so is the one wall-clock cell left in the
# output: the SCALING table's "wall time" column. Every other byte must
# match. A diff is either an intended change, which regenerates
# results_full.txt and is explained in CHANGES.md, or a bug. One full run
# (`tecfan-bench -exp all -scale 1.0 -trace 600`) takes about 12 s on
# 2 vCPU.
#
#   scripts/golden.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/tecfan-bench" ./cmd/tecfan-bench
"$TMP/tecfan-bench" -exp all -scale 1.0 -trace 600 >"$TMP/all.txt"

# block FILE NAME prints the "==== NAME ====" block of FILE, normalized.
block() {
	awk -v h="==== $2 ====" '
		$0 == h { f = 1 }
		f && /^==== / && $0 != h { exit }
		!f || /^\(.* in .*\)$/ || /^$/ { next }
		h == "==== SCALING ====" && /^ *[0-9]/ { $4 = "<wall>" }
		{ print }' "$1"
}

status=0
for x in TABLE1 FIG4 FIG56 FIG7 HW ORACLEGAP MIX SCALING TIMESCALES MAPPING ABLATE; do
	block results_full.txt "$x" >"$TMP/$x.want"
	block "$TMP/all.txt" "$x" >"$TMP/$x.got"
	if [[ ! -s "$TMP/$x.want" ]]; then
		echo "golden.sh: no ==== $x ==== block in results_full.txt" >&2
		exit 2
	fi
	if diff -u "$TMP/$x.want" "$TMP/$x.got"; then
		echo "golden.sh: $x matches results_full.txt"
	else
		echo "golden.sh: $x differs from results_full.txt" >&2
		status=1
	fi
done
exit "$status"
