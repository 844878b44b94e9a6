#!/usr/bin/env bash
# Builds the benchmark in release mode, then runs two interleaved sets of N
# runs of every workload (set a, set b, set a, ...), each run on its own
# seed, and prints for each end-to-end metric the median and the spread
# (interquartile range over median) of each set, plus the gap between the
# two set medians. The bounds in BENCHMARK.json are set from these numbers.
#
# usage: benchmark/run.sh [N=5] [SECONDS=10] [WORKLOAD...]
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
n="${1:-5}"
seconds="${2:-10}"
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(paper faulted svc-zipf svc-durable-hot)
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/ptm-benchmark"

mkdir -p "$here/results"
log="$here/results/sets-$(date +%Y%m%d-%H%M%S).log"
cd "$root"
for i in $(seq 1 "$n"); do
  for set in a b; do
    for w in "${workloads[@]}"; do
      if [ "$set" = a ]; then seed=$(( 2 * i - 1 )); else seed=$(( 2 * i )); fi
      line="$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
      echo "$set $w $seed $line" | tee -a "$log"
    done
  done
done

python3 - "$log" <<'EOF'
import json, statistics, sys
runs = {}
for raw in open(sys.argv[1]):
    s, w, seed, summary = raw.split(" ", 3)
    r = json.loads(summary)
    if not r["correct"] or r["failed"]:
        print(f"FAILED: set {s} {w} seed {seed}")
    for name, m in r["metrics"].items():
        runs.setdefault((w, name), {}).setdefault(s, []).append(m["value"])

def spread(v):
    if len(v) < 2:
        return float("nan")
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

print(f"\n{'workload':16} {'metric':18} {'median a':>12} {'spread a':>9} {'median b':>12} {'spread b':>9} {'gap':>7}")
for (w, name), sets in runs.items():
    a, b = sets.get("a", []), sets.get("b", [])
    ma, mb = statistics.median(a), statistics.median(b)
    gap = (mb - ma) / ma if ma else float("nan")
    print(f"{w:16} {name:18} {ma:12.6g} {spread(a):9.3f} {mb:12.6g} {spread(b):9.3f} {gap:7.3f}")
print(f"\nruns: {sys.argv[1]}")
EOF
