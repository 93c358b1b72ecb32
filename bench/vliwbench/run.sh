#!/usr/bin/env bash
# Builds vliwbench from the sources of the checkout it is run in, then runs
# it with the given arguments. Run it from the root of the checkout:
#
#   bash bench/vliwbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and traced runs' trace-<workload>.json
# files all stay under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd bench/vliwbench && go build -o "$out/vliwbench" .)
exec "$out/vliwbench" -trace-dir "$out" "$@"
