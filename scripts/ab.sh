#!/usr/bin/env bash
# A/B a revision against HEAD on one perfbench workload, or on all.
#
#   scripts/ab.sh REV [WORKLOAD|all] [PAIRS]  (defaults: repair_mix, 3 pairs)
#   make ab REV=<rev> [WORKLOAD=...] [PAIRS=...]
#
# Exports the committed files of REV and of HEAD into a temporary
# directory (git archive: uncommitted changes are not measured, and
# nothing is registered in the repository), builds both once, then runs
# alternating pairs of `perfbench/run.py --workload WORKLOAD --seed 1
# --seconds 20 --trace 0`, the form BENCHMARK.json's gate runs; within a
# pair the side that goes first alternates.  WORKLOAD `all` runs the
# pairs of every workload BENCHMARK.json declares, one workload after
# the other.  Every run's result line is printed as it lands, then, per
# workload, one row per end-to-end metric of
# BENCHMARK.json: the median change/parent ratio over the pairs, its
# min-max, the pairs the change wins (higher or lower, as the metric
# prefers), the interquartile range of the parent's runs and a verdict:
#   better      every change run beats every parent run;
#   unresolved  the parent's IQR is wider than the metric's bound, or the
#               medians differ by no more than that IQR (run-to-run noise
#               cannot tell the sides apart);
#   worse       the change's median is worse by more than the bound;
#   gain        better medians and wins in at least 9 of 10 pairs;
#   within      otherwise (no worse than the bound).
# Wall-clock runs on a shared host are noisy, so this is a tool for a
# PR's evidence, not a CI gate.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
  echo "usage: scripts/ab.sh REV [WORKLOAD|all] [PAIRS]" >&2
  exit 2
fi
rev=$1
workload=${2:-repair_mix}
pairs=${3:-3}
case $pairs in
  '' | *[!0-9]* | 0) echo "ab: PAIRS must be a positive integer" >&2; exit 2 ;;
esac

root=$(git rev-parse --show-toplevel)
parent_rev=$(git -C "$root" rev-parse --short=12 "$rev^{commit}")
change_rev=$(git -C "$root" rev-parse --short=12 HEAD)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/tml-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

for side in parent change; do
  r=$parent_rev
  [ "$side" = change ] && r=$change_rev
  mkdir -p "$tmp/$side"
  git -C "$root" archive "$r" | tar -x -C "$tmp/$side"
  echo "ab: building $side ($r)" >&2
  dune build --root "$tmp/$side" ./bin/tml_cli.exe ./perfbench/perfbench.exe >&2
done

if [ "$workload" = all ]; then
  workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$tmp/change/BENCHMARK.json")
else
  workloads=$workload
fi

run() {
  local w=$1 side=$2 i=$3
  python3 "$tmp/$side/perfbench/run.py" --workload "$w" --seed 1 \
    --seconds 20 --trace 0 2>/dev/null | tail -n 1 > "$tmp/$w-$side-$i.json"
  echo "ab: $w pair $i $side $(cat "$tmp/$w-$side-$i.json")" >&2
}

for w in $workloads; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run "$w" parent "$i"; run "$w" change "$i"
    else
      run "$w" change "$i"; run "$w" parent "$i"
    fi
  done
done

python3 - "$tmp" "$pairs" "$tmp/change/BENCHMARK.json" "$parent_rev" "$change_rev" $workloads <<'EOF'
import json, math, statistics, sys

tmp, pairs, bench, parent_rev, change_rev, *workloads = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(bench))["end_to_end"]

def load(workload, side, i):
    with open(f"{tmp}/{workload}-{side}-{i}.json") as f:
        return json.loads(f.read())

def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1

def verdict(par, chg, higher, bound, wins):
    mp, mc = statistics.median(par), statistics.median(chg)
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    spread = iqr(par)
    if all(better(c, p) for c in chg for p in par):
        return "better"
    if spread > bound * abs(mp) or abs(mc - mp) <= spread:
        return "unresolved"
    if not better(mc, mp) and abs(mc - mp) > bound * abs(mp):
        return "worse"
    if better(mc, mp) and wins >= math.ceil(0.9 * pairs):
        return "gain"
    return "within"

def table(workload):
    runs = {s: [load(workload, s, i) for i in range(1, pairs + 1)]
            for s in ("parent", "change")}
    for s, rs in runs.items():
        bad = [i + 1 for i, r in enumerate(rs) if not r.get("correct") or r.get("failed")]
        if bad:
            print(f"ab: {workload} {s} runs {bad} were not correct or had failed ops")

    print(f"{workload}: change {change_rev} vs parent {parent_rev}, {pairs} pairs "
          "(seed 1, 20 s)")
    print("| metric | parent median | change median | ratio median | ratio min-max "
          "| wins | parent IQR | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        par = [r["metrics"][name]["value"] for r in runs["parent"] if name in r["metrics"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
        if len(par) != pairs or len(chg) != pairs:
            print(f"| {name} | - | - | - | - | missing | - | - |")
            continue
        ratios = [c / p if p else float("nan") for p, c in zip(par, chg)]
        wins = sum(1 for p, c in zip(par, chg) if (c > p if higher else c < p))
        print(f"| {name} | {statistics.median(par):.4g} | {statistics.median(chg):.4g} "
              f"| {statistics.median(ratios):.3f} | {min(ratios):.3f}-{max(ratios):.3f} "
              f"| {wins}/{pairs} | {iqr(par):.4g} "
              f"| {verdict(par, chg, higher, m['bound'], wins)} |")

    print("\nevery run, pair by pair (parent -> change):")
    for m in metrics:
        name = m["name"]
        cells = [f"{p['metrics'][name]['value']:.4g} -> {c['metrics'][name]['value']:.4g}"
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        print(f"  {name}: " + "; ".join(cells))

for i, w in enumerate(workloads):
    if i:
        print()
    table(w)
EOF
