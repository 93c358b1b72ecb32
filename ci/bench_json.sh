#!/bin/sh
# bench_json.sh <go-test-bench-output-file> [label]
#
# Renders raw `go test -bench -benchmem -count N` output as a JSON
# benchmark record: per benchmark, the median ns/op across the N runs plus
# the last observed B/op and allocs/op. This is the BENCH.json format CI
# uploads per run and the repo root keeps under that one name, so the
# performance trajectory of the repo is a queryable artifact rather than a
# claim.
set -eu
in="$1"
label="${2:-local}"

awk -v label="$label" '
  /^Benchmark/ {
    name = $1
    for (i = 2; i < NF; i++) {
      if ($(i + 1) == "ns/op")     { ns[name] = ns[name] " " $i; n[name]++ }
      if ($(i + 1) == "B/op")      { bp[name] = $i }
      if ($(i + 1) == "allocs/op") { ap[name] = $i }
    }
    if (!(name in seen)) { order[++cnt] = name; seen[name] = 1 }
  }
  function median(list,   a, m, i, j, t) {
    m = split(list, a, " ")
    for (i = 2; i <= m; i++) {
      t = a[i]; j = i - 1
      while (j >= 1 && a[j] + 0 > t + 0) { a[j + 1] = a[j]; j-- }
      a[j + 1] = t
    }
    if (m % 2) return a[(m + 1) / 2]
    return (a[m / 2] + a[m / 2 + 1]) / 2
  }
  BEGIN { printf "{\n  \"label\": \"%s\",\n  \"benchmarks\": [\n", label }
  END {
    for (i = 1; i <= cnt; i++) {
      name = order[i]
      printf "    {\"name\": \"%s\", \"samples\": %d, \"ns_per_op_median\": %.1f, \"b_per_op\": %s, \"allocs_per_op\": %s}%s\n",
        name, n[name], median(ns[name]),
        (bp[name] == "" ? 0 : bp[name]), (ap[name] == "" ? 0 : ap[name]),
        (i < cnt ? "," : "")
    }
    printf "  ]\n}\n"
  }
' "$in"
