#!/bin/sh
# bench_ab.sh <parent-rev> <change-rev> <pkg> <regex> [rounds=6]
#
# Alternating A/B run of one package's benchmarks at two revisions on one
# host. Each revision is exported with `git archive` into .bench_build/ab/
# and its test binary is built there with `go test -c`. The two binaries
# then take turns, `rounds` runs each, the parent first in odd rounds and
# the change first in even ones, every run at
#
#   -test.run '^$' -test.bench <regex> -test.cpu 1 -test.benchmem -test.timeout 30m
#
# from its own package directory. Both sides share each stretch of the
# host's time, so drift between runs moves them together, which a baseline
# recorded on another day cannot offer. The outputs are benchstat input,
# one file per side:
#
#   ci/bench_ab.sh HEAD~1 HEAD ./internal/gateway BenchmarkFleetHits 8
#   benchstat .bench_build/ab/parent.txt .bench_build/ab/change.txt
#
# <pkg> is a package path relative to the module root. A benchmark that
# exists on one side only appears in that side's file alone.
set -eu

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  echo "usage: $0 <parent-rev> <change-rev> <pkg> <regex> [rounds=6]" >&2
  exit 2
fi
parent=$1 change=$2 pkg=$3 regex=$4 rounds=${5:-6}
repo=$(git rev-parse --show-toplevel)
work="$repo/.bench_build/ab"

rm -rf "$work"
for side in parent change; do
  eval rev=\$$side
  mkdir -p "$work/$side"
  git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
  (cd "$work/$side" && GOWORK=off go test -c -o "$work/$side.test" "$pkg")
  : > "$work/$side.txt"
done

run() { # side
  (cd "$work/$1/$pkg" && "$work/$1.test" -test.run '^$' -test.bench "$regex" \
    -test.cpu 1 -test.benchmem -test.timeout 30m) >> "$work/$1.txt"
}

k=1
while [ "$k" -le "$rounds" ]; do
  if [ $((k % 2)) -eq 1 ]; then run parent; run change
  else run change; run parent; fi
  echo "bench_ab: round $k/$rounds done" >&2
  k=$((k + 1))
done
echo "bench_ab: wrote $work/parent.txt and $work/change.txt" >&2
