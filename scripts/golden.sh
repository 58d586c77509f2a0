#!/usr/bin/env bash
# golden.sh — regenerate experiments at full scale and diff each against its
# block of the committed results_full.txt, exactly as CI's golden step does.
# The "(name in N)" timing line and blank lines are dropped on both sides;
# every other byte must match. A diff is either an intended change, which
# regenerates results_full.txt and is explained in CHANGES.md, or a bug.
# Covers Table I and Fig. 4 (about 4 s on 2 vCPU); more blocks join the
# loop below as the golden grows.
#
#   scripts/golden.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/tecfan-bench" ./cmd/tecfan-bench

strip() { grep -Ev '^\(.* in .*\)$|^$' || true; }

status=0
for x in table1 fig4; do
	header="==== ${x^^} ===="
	awk -v h="$header" '$0 == h { f = 1 } f && /^==== / && $0 != h { exit } f' results_full.txt | strip >"$TMP/$x.want"
	if [[ ! -s "$TMP/$x.want" ]]; then
		echo "golden.sh: no $header block in results_full.txt" >&2
		exit 2
	fi
	"$TMP/tecfan-bench" -exp "$x" -scale 1.0 | strip >"$TMP/$x.got"
	if diff -u "$TMP/$x.want" "$TMP/$x.got"; then
		echo "golden.sh: $x matches results_full.txt"
	else
		echo "golden.sh: $x differs from results_full.txt" >&2
		status=1
	fi
done
exit "$status"
