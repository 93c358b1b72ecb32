#!/usr/bin/env bash
# Pairwise comparison of two revisions on vliwbench.
#
#   bench/vliwbench/pairs.sh <parent-rev> <change-rev> [pairs=10]
#
# Each revision is exported with `git archive` into .bench_build/pairs/ and
# gets this working tree's BENCHMARK.json and bench/vliwbench/ copied over
# it, so both sides run identical benchmark code. For every workload it runs
# `pairs` pairs, pair k on seed k, alternating which side runs first, and
# prints per metric both sides' medians and quartiles over their correct
# runs, the change's wins over every pair run (ties count for neither, and a
# pair whose change run failed is a loss) and whether the gain rule holds:
# the change fails on no more runs than the parent, wins at least 9/10 of
# the pairs, and its median beats the parent's by more than the parent's
# interquartile range. The workloads and the run length are BENCHMARK.json's.
# Raw result lines go to .bench_build/pairs/results.jsonl.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 <parent-rev> <change-rev> [pairs=10]" >&2
  exit 2
fi
parent=$1 change=$2 pairs=${3:-10}
repo=$(git rev-parse --show-toplevel)
work="$repo/.bench_build/pairs"
results="$work/results.jsonl"
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")

rm -rf "$work"
for side in parent change; do
  rev=${!side}
  mkdir -p "$work/$side"
  git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
  rm -rf "$work/$side/bench/vliwbench"
  mkdir -p "$work/$side/bench"
  cp "$repo/BENCHMARK.json" "$work/$side/"
  cp -r "$repo/bench/vliwbench" "$work/$side/bench/"
done

run() { # side workload seed
  local line
  line=$(cd "$work/$1" && bash bench/vliwbench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1) || true
  case $line in
    '{'*) ;;
    *) line='{"correct":false,"metrics":{}}' ;;
  esac
  printf '{"side":"%s","workload":"%s","seed":%s,"result":%s}\n' "$1" "$2" "$3" "$line" >> "$results"
}

for w in $workloads; do
  for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) -eq 1 ]; then run parent "$w" "$k"; run change "$w" "$k"
    else run change "$w" "$k"; run parent "$w" "$k"; fi
    echo "pairs: $w pair $k/$pairs done" >&2
  done
done

python3 - "$repo/BENCHMARK.json" "$results" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
runs = [json.loads(l) for l in open(sys.argv[2])]
ok = lambda r: r["correct"] and r.get("failed", 0) == 0
q = lambda xs: statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
print(f"{'workload':10} {'metric':16} {'parent q1/med/q3':>29} {'change q1/med/q3':>29} {'wins':>6}  gain rule")
for w in dict.fromkeys(r["workload"] for r in runs):
    by = {}
    for r in runs:
        if r["workload"] == w:
            by.setdefault(r["seed"], {})[r["side"]] = r["result"]
    pairs = [(p["parent"], p["change"]) for p in by.values()]
    pfail = sum(1 for a, _ in pairs if not ok(a))
    cfail = sum(1 for _, b in pairs if not ok(b))
    print(f"{w:10} {len(pairs)} pairs; failed runs: parent {pfail}, change {cfail}")
    for m, direction in better.items():
        sign = 1 if direction == "higher" else -1
        par = [a["metrics"][m]["value"] for a, _ in pairs if ok(a)]
        chg = [b["metrics"][m]["value"] for _, b in pairs if ok(b)]
        # A pair is a win only when both runs are correct, so a failed change
        # run is a loss; the share is over every pair run.
        wins = sum(1 for a, b in pairs if ok(a) and ok(b)
                   and sign * (b["metrics"][m]["value"] - a["metrics"][m]["value"]) > 0)
        if not par or not chg:
            print(f"{w:10} {m:16} {'no correct run on one side':>59} {wins:2d}/{len(pairs):<3d}  no")
            continue
        pq, cq = q(par), q(chg)
        holds = (cfail <= pfail and wins >= 0.9 * len(pairs)
                 and sign * (cq[1] - pq[1]) > pq[2] - pq[0])
        print(f"{w:10} {m:16} {pq[0]:9.4g}/{pq[1]:9.4g}/{pq[2]:9.4g} {cq[0]:9.4g}/{cq[1]:9.4g}/{cq[2]:9.4g}"
              f" {wins:2d}/{len(pairs):<3d}  {'holds' if holds else 'no'}")
EOF
