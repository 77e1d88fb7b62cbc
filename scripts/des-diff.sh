#!/usr/bin/env bash
# des-diff.sh: check that the deterministic simulation behaves exactly as
# it does at a git revision.
#
# Builds cmd/coral-sim from REV (default HEAD) and from the working tree,
# runs both binaries on the same four seeded invocations, and compares
# their stdout and -trace-out span logs byte for byte. Prints one line per
# matching invocation; exits 1 naming the first invocation that differs.
#
# Usage: scripts/des-diff.sh [REV]    (or: make des-diff REV=<rev>)
#
# A refactor should pass this unchanged; a change that alters behaviour on
# purpose differs on purpose, so this is not part of `make ci`.
set -euo pipefail

rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# An exported tree, not a worktree: nothing is registered in .git, so an
# interrupted run leaves nothing behind but the temp dir.
mkdir "$tmp/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/sim-rev" ./cmd/coral-sim)
(cd "$root" && go build -o "$tmp/sim-tree" ./cmd/coral-sim)

runs=(
	"-seed 3 -cameras 4 -dump-metrics"
	"-seed 7 -cameras 6 -fail cam1@40s -fault-drop-rate 0.05 -fault-error-rate 0.02 -dump-metrics"
	"-seed 5 -trace-sample 3 -dump-metrics"
	"-seed 11 -cameras 5 -store-frames -frame-replicas 2 -monitor -dump-metrics"
)
for i in "${!runs[@]}"; do
	args=${runs[$i]}
	for side in rev tree; do
		# A fresh -trace-out path per run: coral-sim appends to an existing
		# file, so a reused path would concatenate runs.
		# shellcheck disable=SC2086 # args is a flag list, split on purpose
		"$tmp/sim-$side" $args -trace-out "$tmp/$side-$i.jsonl" >"$tmp/$side-$i.out" 2>"$tmp/$side-$i.err" || {
			echo "des-diff: coral-sim $args failed at $side:" >&2
			cat "$tmp/$side-$i.err" >&2
			exit 1
		}
	done
	for ext in out jsonl; do
		if ! cmp -s "$tmp/rev-$i.$ext" "$tmp/tree-$i.$ext"; then
			what=stdout
			[ "$ext" = jsonl ] && what="-trace-out spans"
			echo "des-diff: coral-sim $args: $what differ between $rev and the working tree" >&2
			exit 1
		fi
	done
	echo "des-diff: identical: coral-sim $args"
done
