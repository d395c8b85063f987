#!/bin/sh
# pairs.sh — measure this tree against a parent revision as alternating pairs
# in one session: absolute numbers do not carry between sessions on a shared
# host (ROADMAP, "Where the time goes").
#
# Usage: scripts/pairs.sh <rev> <workload> [pairs=10] [seconds=15]
#
# Checks <rev> out as a detached worktree in a temp dir, builds both
# benchmark binaries once and runs them alternately (the side that goes first
# alternates too), each from inside its own tree. Prints, per end-to-end
# metric, each side's median [first, third quartile] and the pairs the change
# won; fails if a run is missing or reports correct: false.
set -eu
[ $# -ge 2 ] || { echo "usage: scripts/pairs.sh <rev> <workload> [pairs=10] [seconds=15]" >&2; exit 2; }
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-15}
here="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'git -C "$here" worktree remove --force "$tmp/parent" 2>/dev/null || :; rm -rf "$tmp"' EXIT
git -C "$here" worktree add --detach "$tmp/parent" "$rev" >/dev/null
go build -C "$tmp/parent/benchmark" -o "$tmp/parent.bin" .
go build -C "$here/benchmark" -o "$tmp/change.bin" .

run() { # <side> <tree>: one result line, prefixed with the side
	(cd "$2/benchmark" && "$tmp/$1.bin" -workload "$workload" -seconds "$seconds" -trace 0) |
		tail -n 1 | sed "s/^/$1 /" >>"$tmp/lines"
}
for i in $(seq "$pairs"); do
	if [ $((i % 2)) = 1 ]; then run parent "$tmp/parent"; run change "$here"
	else run change "$here"; run parent "$tmp/parent"; fi
done

awk -v pairs="$pairs" '
function quart(side, m, q,    i, j, t, a, x, lo) {
	for (i = 1; i <= pairs; i++) a[i] = v[side, m, i]
	for (i = 2; i <= pairs; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	x = 1 + (pairs - 1) * q; lo = int(x)
	return lo < pairs ? a[lo] + (x - lo) * (a[lo+1] - a[lo]) : a[pairs]
}
{
	side = $1; n[side]++
	if ($0 !~ /"correct":true/) { print "not correct: " $0; bad = 1 }
	for (s = $0; match(s, /"[a-z_]+":\{"value":[^,]+/); s = substr(s, RSTART + RLENGTH)) {
		split(substr(s, RSTART + 1, RLENGTH - 1), kv, /":\{"value":/)
		v[side, kv[1], n[side]] = kv[2] + 0; names[kv[1]] = 1
	}
}
END {
	if (n["parent"] != pairs || n["change"] != pairs) { print "runs missing: " n["parent"] + 0 " parent, " n["change"] + 0 " change of " pairs; exit 1 }
	for (m in names) {
		wins = 0
		for (i = 1; i <= pairs; i++) {
			d = v["change", m, i] - v["parent", m, i]
			if (m ~ /_per_s$/ ? d > 0 : d < 0) wins++
		}
		printf "%-13s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  change better in %d/%d pairs\n", m,
			quart("parent", m, .5), quart("parent", m, .25), quart("parent", m, .75),
			quart("change", m, .5), quart("change", m, .25), quart("change", m, .75), wins, pairs | "sort"
	}
	exit bad
}' "$tmp/lines"
