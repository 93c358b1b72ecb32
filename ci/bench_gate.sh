#!/bin/sh
# bench_gate.sh <benchstat-comparison-file> [threshold-percent] [baseline-file] [new-file]
#
# Gates a benchstat old-vs-new comparison: exits non-zero when any
# benchmark's sec/op regressed by more than the threshold (default 15%).
# Only the sec/op (legacy: time/op) section gates by percentage — B/op is
# recorded for the trajectory but does not fail the build — and the geomean
# summary line is skipped so one real regression is reported once, by name.
# Works on both benchstat output formats: the table style with a
# "│ sec/op │ ... vs base" header and the legacy
# "name  old time/op  new time/op  delta" style.
#
# When the raw baseline and new benchmark files are also given, nine more
# gates arm:
#   - allocs/op cap: every ScheduleLoop* benchmark in the new run must stay
#     at or under ALLOC_CAP allocs/op (240, the count before every effort
#     tier ran the one race driver — the scheduler now sits under it, so
#     crossing the cap means an allocation regression on the hot path, not
#     noise).
#   - queue-stage allocs/op cap: BenchmarkAllocate must stay at or under
#     QUEUE_ALLOC_CAP allocs/op (256: the four objects each of its 64
#     allocations returns, with every working array pooled; 896 before the
#     pooling). This cap was added alongside the pooling; it loosens no
#     other gate.
#   - verification allocs/op cap: BenchmarkVerifyServed and
#     BenchmarkVerifyPipeline must stay at or under VERIFY_ALLOC_CAP
#     allocs/op (64: one per replayed loop; a warmed replay allocates
#     none, and ~3,120 before the simulator pooled its scratch). This cap
#     was added alongside that pooling; it loosens no other gate.
#   - sweep allocs/op cap: BenchmarkRunAll must stay at or under
#     RUNALL_ALLOC_CAP allocs/op (42,000: ~36,500 once RunAll builds each
#     loop's transformed bodies once per pass and its figures compile
#     loop-major, 54,500-55,900 before). This cap was added alongside that
#     sharing; it loosens no other gate.
#   - parse allocs/op cap: BenchmarkParse must stay at or under
#     PARSE_ALLOC_CAP allocs/op (12: the 11 objects of a parsed loop, plus
#     one; its Validate keeps the flow-input counts, zero-distance
#     in-degrees and zero-distance successor index in a pooled scratch, so
#     a Validate that built them per call would cross it). This cap was
#     added alongside the shared dependence index (ir.DepIndex); it loosens
#     no other gate.
#   - copy-insertion allocs/op cap: BenchmarkCopyInsert must stay at or
#     under COPYINS_ALLOC_CAP allocs/op (560: 501 over its 64 loops, about
#     eight per loop, the clone, its consumer index and the result, so one
#     more allocation per loop crosses it). This cap was added alongside
#     the shared dependence index; it loosens no other gate.
#   - certified-tier allocs/op cap: BenchmarkScheduleOptimalStressed must
#     stay at or under OPTIMAL_ALLOC_CAP allocs/op (600: 568-570 over its
#     32 loops once the exact search reserves slots by count instead of
#     keeping mrt's occupant lists, about 18 per loop; a search table that
#     kept occupant lists read 1,083-1,086 and crosses it, as does a
#     variant that grew buffers per search depth, which read 1,592). The
#     cap was added at 1,120 alongside the sibling-row reuse and tightened
#     to 600 alongside the count table; it loosens no other gate.
#   - missing benchmarks: every benchmark named in the baseline must appear
#     in the new run. A benchmark that silently disappears (renamed,
#     deleted, build-tagged out) would otherwise drop out of the percentage
#     gate without anyone noticing.
#   - unpaired benchmarks: every benchmark in the new run must have rows in
#     the baseline. benchstat never pairs a benchmark the baseline lacks,
#     so a new one would run in CI with no gate covering it.
set -eu
cmp_file="$1"
threshold="${2:-15}"
baseline_file="${3:-}"
new_file="${4:-}"

ALLOC_CAP=240
QUEUE_ALLOC_CAP=256
VERIFY_ALLOC_CAP=64
RUNALL_ALLOC_CAP=42000
PARSE_ALLOC_CAP=12
COPYINS_ALLOC_CAP=560
OPTIMAL_ALLOC_CAP=600

awk -v max="$threshold" '
  /sec\/op/ || (/time\/op/ && /delta/) { insec = 1; next }
  /B\/op/ || /alloc\/op/ || /allocs\/op/ { insec = 0 }
  insec && $1 == "geomean"             { next }
  insec {
    # A row was actually *compared* when it carries a delta verdict: a
    # signed percentage or the not-significant tilde. Rows present in only
    # one input (e.g. baseline/new benchmark names that do not match) have
    # neither, and must not count as coverage.
    seencmp = 0
    for (i = 1; i <= NF; i++) {
      if ($i == "~") { seencmp = 1 }
      if ($i ~ /^[+-][0-9]+(\.[0-9]+)?%$/) {
        seencmp = 1
        if ($i ~ /^\+/) {
          v = substr($i, 2, length($i) - 2) + 0
          if (v > max) {
            bad = 1
            printf "sec/op regression beyond %s%%: %s\n", max, $0
          }
        }
      }
    }
    if (seencmp) { compared++ }
  }
  END {
    # A gate that compared nothing is a broken gate, not a green one: a
    # benchstat format change, or baseline/new benchmark names that do not
    # line up (different -cpu, renamed benchmarks), must fail loudly
    # instead of silently waving regressions through.
    if (compared == 0) {
      print "bench gate: BROKEN — no old-vs-new sec/op comparisons found (format change, or baseline and new benchmark names do not match)"
      exit 2
    }
    if (bad) {
      print "bench gate: FAIL (refresh bench/baseline.txt from a CI artifact only for a deliberate, reviewed cost change)"
      exit 1
    }
    print "bench gate: OK (" compared " sec/op comparisons checked, none beyond " max "%)"
  }
' "$cmp_file"

if [ -z "$baseline_file" ] || [ -z "$new_file" ]; then
  echo "bench gate: allocs/op and missing-benchmark gates skipped (raw files not given)"
  exit 0
fi

# cap_allocs <name-regex> <label> <cap> <what>: every row of the new run
# whose benchmark name matches must report at most cap allocs/op, and at
# least one row must match. Raw `go test -bench` lines look like:
#   BenchmarkScheduleLoopClustered6   870   1234567 ns/op   23112 B/op   192 allocs/op
cap_allocs() {
  awk -v re="$1" -v label="$2" -v cap="$3" -v what="$4" '
    $1 ~ re {
      for (i = 2; i < NF; i++) {
        if ($(i + 1) == "allocs/op") {
          checked++
          if ($i + 0 > cap) {
            bad = 1
            printf "allocs/op over the %d cap: %s = %s allocs/op\n", cap, $1, $i
          }
        }
      }
    }
    END {
      if (checked == 0) {
        print "bench gate: BROKEN — no " label " allocs/op rows found in the new run (was -benchmem dropped, or the benchmarks renamed?)"
        exit 2
      }
      if (bad) {
        print "bench gate: FAIL — " what " allocation count regressed past the " cap " allocs/op cap"
        exit 1
      }
      print "bench gate: OK (" checked " " label " allocs/op rows at or under " cap ")"
    }
  ' "$new_file"
}
cap_allocs '^BenchmarkScheduleLoop' ScheduleLoop "$ALLOC_CAP" scheduler-path
cap_allocs '^BenchmarkAllocate(-[0-9]+)?$' Allocate "$QUEUE_ALLOC_CAP" queue-stage
cap_allocs '^BenchmarkVerify(Served|Pipeline)(-[0-9]+)?$' Verify "$VERIFY_ALLOC_CAP" verification
cap_allocs '^BenchmarkRunAll(-[0-9]+)?$' RunAll "$RUNALL_ALLOC_CAP" sweep
cap_allocs '^BenchmarkParse(-[0-9]+)?$' Parse "$PARSE_ALLOC_CAP" parse
cap_allocs '^BenchmarkCopyInsert(-[0-9]+)?$' CopyInsert "$COPYINS_ALLOC_CAP" copy-insertion
cap_allocs '^BenchmarkScheduleOptimalStressed(-[0-9]+)?$' ScheduleOptimalStressed "$OPTIMAL_ALLOC_CAP" certified-tier

# The baseline and the new run must name the same benchmarks.
base_names="$(awk '$1 ~ /^Benchmark/ { print $1 }' "$baseline_file" | sort -u)"
new_names="$(awk '$1 ~ /^Benchmark/ { print $1 }' "$new_file" | sort -u)"
# absent <names> <from>: the names that do not appear in from.
absent() {
  printf '%s\n' "$1" | while read -r n; do
    [ -n "$n" ] || continue
    printf '%s\n' "$2" | grep -qx "$n" || printf '%s\n' "$n"
  done
}
missing="$(absent "$base_names" "$new_names")"
unpaired="$(absent "$new_names" "$base_names")"
if [ -n "$missing" ]; then
  echo "bench gate: FAIL — baseline benchmarks missing from the new run (renamed or deleted without refreshing bench/baseline.txt):"
  printf '%s\n' "$missing"
fi
if [ -n "$unpaired" ]; then
  echo "bench gate: FAIL — new-run benchmarks with no baseline rows (add them to bench/baseline.txt so benchstat pairs them):"
  printf '%s\n' "$unpaired"
fi
if [ -n "$missing" ] || [ -n "$unpaired" ]; then
  exit 1
fi
echo "bench gate: OK (baseline and new run name the same benchmarks)"
