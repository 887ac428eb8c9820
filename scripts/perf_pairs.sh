#!/usr/bin/env bash
# Paired benchmark comparison of a change against its parent.
#
#   scripts/perf_pairs.sh <parent-rev> [<rev>]   # <rev> defaults to HEAD
#
# Exports both revisions into one temporary directory at paths of equal
# length and builds perfbench in each (scripts/perfbench_trees.sh). Then, for
# each workload in BENCHMARK.json, runs the benchmark's command with
# `--seconds <run_seconds> --trace 0` as 10 pairs of parent and change:
# seeds 1 and 2, five pairs each, alternating which side runs first.
#
# For each workload and end-to-end metric it prints each side's median and
# quartiles over the 10 runs, the change/parent ratio of the medians, the
# pairs the change won (ties count for neither), and a verdict:
#   gain        the change won at least 9 of 10 pairs and the medians differ
#               by more than the parent's interquartile range;
#   REGRESSION  the change's median is worse than the parent's by more than
#               the metric's bound;
#   unresolved  neither, and the parent's interquartile range is wider than
#               the bound, and some run of the change does not beat every
#               run of the parent;
#   within      none of these.
# Exits 1 on a regression, or on a run that is not correct or has failed
# operations. Workloads, run length, metrics and bounds come from the
# parent's BENCHMARK.json. Writes only under the temporary directory, and
# removes it at the end. About 15 minutes on 4 vCPUs.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <parent-rev> [<rev>]" >&2
  exit 2
fi
PARENT=$(git rev-parse --verify "$1^{commit}")
CHANGE=$(git rev-parse --verify "${2:-HEAD}^{commit}")

TMP=$(mktemp -d "${TMPDIR:-/tmp}/perfpairs.XXXXXX")
trap 'rm -rf "$TMP"' EXIT

# p = parent, h = the change: equal-length paths.
source scripts/perfbench_trees.sh
export_tree "$TMP/p" "$PARENT"
export_tree "$TMP/h" "$CHANGE"
for t in p h; do
  build_perfbench "$TMP/$t"
done

cd "$TMP"
python3 - <<'PY'
import json
import statistics
import subprocess
import sys

SEEDS = ["1", "2"]
PAIRS_PER_SEED = 5
TREES = {"parent": "p", "change": "h"}

with open("p/BENCHMARK.json") as f:
    bench = json.load(f)
workloads = [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]


def run(side, w, s):
    print(f"== {w} seed {s} ({side})", file=sys.stderr, flush=True)
    out = subprocess.run(
        bench["command"] + ["--workload", w, "--seed", s, "--seconds",
                            str(bench["run_seconds"]), "--trace", "0"],
        cwd=TREES[side], check=True, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


failures = []
rows = []
for w in workloads:
    pairs = []  # (parent result, change result)
    for s in SEEDS:
        for _ in range(PAIRS_PER_SEED):
            order = ["parent", "change"]
            if (len(pairs) % 2) == 1:
                order.reverse()
            got = {side: run(side, w, s) for side in order}
            for side, r in got.items():
                if not r["correct"] or r["failed"] != 0:
                    failures.append(f"{w} seed {s} ({side}): correct="
                                    f"{r['correct']}, {r['failed']} failed")
            pairs.append((got["parent"], got["change"]))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["metrics"][name]["value"] for p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, c in pairs]
        pq, cq = (statistics.quantiles(xs, n=4, method="inclusive")
                  for xs in (par, chg))
        better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
        won = sum(better(c, p) for p, c in zip(par, chg))
        pmed, cmed = pq[1], cq[1]
        iqr = pq[2] - pq[0]
        ratio = cmed / pmed if pmed else float("nan")
        worse_by = (ratio - 1) if lower else (1 - ratio)
        if pmed and worse_by > m["bound"]:
            verdict = "REGRESSION"
            failures.append(f"{w}: {name} worse by {worse_by:+.1%}, bound "
                            f"{m['bound']:.0%}")
        elif won >= 0.9 * len(pairs) and better(cmed, pmed) and \
                abs(cmed - pmed) > iqr:
            verdict = "gain"
        elif pmed and iqr / abs(pmed) > m["bound"] and \
                not all(better(c, p) for c in chg for p in par):
            verdict = "unresolved"
        else:
            verdict = "within"
        rows.append((w, name, m["unit"], pq, cq, ratio, won, len(pairs),
                     verdict))


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"


print(f"{'workload':<12} {'metric':<15} {'unit':<6} "
      f"{'parent median [q1-q3]':<30} {'change median [q1-q3]':<30} "
      f"{'ratio':>6} {'won':>5}  verdict")
for w, name, unit, pq, cq, ratio, won, n, verdict in rows:
    print(f"{w:<12} {name:<15} {unit:<6} {fmt(pq):<30} {fmt(cq):<30} "
          f"{ratio:>6.3f} {won:>2}/{n:<2}  {verdict}")
print(f"seeds {' '.join(SEEDS)}, {PAIRS_PER_SEED} pairs each, "
      f"--seconds {bench['run_seconds']} --trace 0; ratio = change/parent "
      "median; won = pairs where the change is better")
for f in failures:
    print("FAIL:", f)
if failures:
    sys.exit(1)
print("perf pairs: no regression")
PY
