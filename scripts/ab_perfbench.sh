#!/usr/bin/env bash
# Interleaved A/B runs of the repository benchmark in two checkouts.
#
#   scripts/ab_perfbench.sh <parent-checkout> <change-checkout> <workload> \
#       <pairs> <seconds> [seed]
#
# Runs `python3 perfbench/run.py --workload <workload> --seconds <seconds>
# --seed <seed>` (seed defaults to 1) alternately in the two checkouts,
# `pairs` times each, swapping which side goes first on every pair so
# drift in the host's speed hits both sides alike. Each checkout builds its
# own negbench into its .bench_build/ (the first run of a side pays the
# build). Prints one row per run, then for every end-to-end metric in
# BENCHMARK.json each side's median and quartiles, the change/parent ratio
# of the medians, how many pairs the change won, and whether every run of
# both sides produced the same result fingerprint. Exits 1 if a run failed
# or the fingerprints differ. Edits nothing in either checkout beyond what
# run.py itself writes.
set -euo pipefail

if [[ $# -lt 5 || $# -gt 6 ]]; then
  sed -n '2,17p' "$0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=$5
seed=${6:-1}
for side in "$parent" "$change"; do
  if [[ ! -f "$side/perfbench/run.py" ]]; then
    echo "ab_perfbench: $side has no perfbench/run.py" >&2
    exit 2
  fi
done

out=$(mktemp -d "${TMPDIR:-/tmp}/ab_perfbench.XXXXXX")
trap 'rm -rf "$out"' EXIT

run_side() {  # <label> <checkout> <pair>
  local log="$out/$1.$3"
  if ! (cd "$2" && python3 perfbench/run.py --workload "$workload" \
          --seconds "$seconds" --seed "$seed") >"$log.json" 2>"$log.err"; then
    echo "ab_perfbench: $1 run $3 failed; its stderr:" >&2
    tail -n 20 "$log.err" >&2
  fi
}

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run_side parent "$parent" "$i"
    run_side change "$change" "$i"
  else
    run_side change "$change" "$i"
    run_side parent "$parent" "$i"
  fi
done

python3 - "$out" "$pairs" "$change/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

out, pairs, spec = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
metrics = json.loads(Path(spec).read_text())["end_to_end"]


def load(side, i):
    """(env, result) of one run; result is None if the run failed."""
    lines = (out / f"{side}.{i}.json").read_text().splitlines()
    records = [json.loads(l) for l in lines if l.startswith("{")]
    env = next((r["env"] for r in records if "env" in r), {})
    result = next((r for r in records if "correct" in r), None)
    if result is None or not result["correct"]:
        return env, None
    return env, result


runs = {s: [load(s, i) for i in range(pairs)] for s in ("parent", "change")}
names = [m["name"] for m in metrics]
print("pair side   " + " ".join(f"{n:>14}" for n in names) + "  fingerprint")
failed = 0
for i in range(pairs):
    for side in ("parent", "change"):
        env, result = runs[side][i]
        if result is None:
            failed += 1
            print(f"{i:>4} {side:<6} FAILED")
            continue
        values = " ".join(f"{result['metrics'][n]['value']:>14.4f}"
                          for n in names)
        print(f"{i:>4} {side:<6} {values}  {env.get('fingerprint')}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


print()
print(f"{'metric':<14} {'parent q1/med/q3':>32} {'change q1/med/q3':>32}"
      f" {'ratio':>7} {'wins':>6}")
ok_pairs = [i for i in range(pairs)
            if runs["parent"][i][1] and runs["change"][i][1]]
for m in metrics if ok_pairs else []:
    n = m["name"]
    side_values = {s: [runs[s][i][1]["metrics"][n]["value"] for i in ok_pairs]
                   for s in ("parent", "change")}
    qp, qc = quartiles(side_values["parent"]), quartiles(side_values["change"])
    higher = m["better"] == "higher"
    wins = sum(1 for p, c in zip(side_values["parent"], side_values["change"])
               if (c > p if higher else c < p))
    ratio = qc[1] / qp[1] if qp[1] else float("nan")
    fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
    print(f"{n:<14} {fmt(qp):>32} {fmt(qc):>32} {ratio:>7.3f}"
          f" {wins:>3}/{len(ok_pairs):<2}  (better: {m['better']})")

prints = {env.get("fingerprint") for s in runs.values() for env, r in s if r}
same = len(prints) == 1
print()
if prints:
    print(f"fingerprints: {'identical' if same else 'DIFFER'}"
          f" ({', '.join(sorted(str(p) for p in prints))})")
else:
    print("fingerprints: none (every run failed)")
sys.exit(0 if same and failed == 0 else 1)
EOF
