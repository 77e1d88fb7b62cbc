#!/usr/bin/env bash
# bench-pairs.sh: time a change against a git revision on one benchmark
# workload, in alternating pairs of untraced runs.
#
# Builds ./bench from REV and from the working tree, once each, then runs
# PAIRS pairs of `bench -workload WORKLOAD -seconds SECONDS` (default 25):
# REV first on odd pairs and the tree first on even ones, so drift on a
# shared host falls on both sides. Each run's JSON result line is printed as it
# lands. At the end, for every end-to-end metric of BENCHMARK.json it
# prints, per side, the median and the quartiles [q1-q3] over the runs,
# then the median of the per-pair change (tree against REV, in percent)
# and in how many pairs the tree was better, by the metric's "better".
# The failed-operation count is summed per side.
#
# Usage: scripts/bench-pairs.sh REV WORKLOAD PAIRS [SECONDS]
#        (or: make bench-pairs REV=<rev> WORKLOAD=<name> PAIRS=<n> [SECONDS=<s>])
#
# Run data (frame_flood writes GBs of segments) goes to a temp dir that is
# removed on exit; point TMPDIR at a disk with room. Needs bash, git (and
# the tar it archives to, as des-diff.sh), go and awk.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 REV WORKLOAD PAIRS [SECONDS]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=${4:-25}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# An exported tree, not a worktree, as in des-diff.sh.
mkdir "$tmp/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/bench-rev" ./bench)
(cd "$root" && go build -o "$tmp/bench-tree" ./bench)

run() { # side pair
	local side=$1 dir=$root line
	[ "$side" = rev ] && dir=$tmp/src
	rm -rf "$tmp/out"
	line=$(cd "$dir" && "$tmp/bench-$side" -workload "$workload" -seconds "$seconds" -out "$tmp/out" | awk 'END { print }')
	echo "$side $2 $line" >>"$tmp/lines"
	echo "pair $2 $side: $line"
}
for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		run rev "$p"
		run tree "$p"
	else
		run tree "$p"
		run rev "$p"
	fi
done

# The metric directions come from BENCHMARK.json's end_to_end list, which
# is pretty-printed one field per line.
awk -v rev="$rev" -v workload="$workload" '
function sortn(a, n,    i, j, v) {
	for (i = 2; i <= n; i++) {
		v = a[i]
		for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
		a[j + 1] = v
	}
}
# quantile of the sorted a[1..n], interpolating between ranks.
function q(a, n, f,    h, lo) {
	h = 1 + (n - 1) * f
	lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function summary(side, m,    a, n, p) {
	n = 0
	for (p = 1; p <= npairs; p++) if ((side, m, p) in val) a[++n] = val[side, m, p]
	sortn(a, n)
	return sprintf("%.4g [%.4g-%.4g]", q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75))
}
FNR == NR {
	if ($0 ~ /"end_to_end"/) section = 1
	else if (section && $0 ~ /^[ \t]*\]/) section = 0
	else if (section && match($0, /"name": *"[^"]*"/)) {
		name = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", name); sub(/"$/, "", name)
		order[++nmetrics] = name
	} else if (section && match($0, /"better": *"[^"]*"/)) {
		b = substr($0, RSTART, RLENGTH); sub(/^"better": *"/, "", b); sub(/"$/, "", b)
		better[name] = b
	}
	next
}
{
	side = $1; p = $2 + 0; if (p > npairs) npairs = p
	line = $0
	while (match(line, /"[a-z0-9_]+":\{"value":[-0-9.eE+]+/)) {
		kv = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
		m = kv; sub(/^"/, "", m); sub(/".*/, "", m)
		v = kv; sub(/.*"value":/, "", v)
		val[side, m, p] = v + 0
	}
	if (match($0, /"failed":[0-9]+/)) failed[side] += substr($0, RSTART + 9, RLENGTH - 9)
}
END {
	printf "\n%s, %d pairs: %s vs working tree (median [q1-q3])\n", workload, npairs, rev
	printf "%-16s %-32s %-32s %9s %6s\n", "metric", rev, "tree", "change", "wins"
	for (i = 1; i <= nmetrics; i++) {
		m = order[i]; n = 0; wins = 0
		for (p = 1; p <= npairs; p++) {
			if (!((("rev", m, p) in val) && (("tree", m, p) in val))) continue
			r = val["rev", m, p]; t = val["tree", m, p]
			if (r != 0) d[++n] = (t - r) / r * 100
			if ((better[m] == "lower" && t < r) || (better[m] == "higher" && t > r)) wins++
		}
		if (n == 0) { printf "%-16s (no data)\n", m; continue }
		sortn(d, n)
		printf "%-16s %-32s %-32s %+8.1f%% %3d/%d\n", m, summary("rev", m), summary("tree", m), q(d, n, 0.5), wins, npairs
		delete d
	}
	printf "%-16s %-32d %-32d\n", "failed (sum)", failed["rev"], failed["tree"]
}' "$root/BENCHMARK.json" "$tmp/lines"
