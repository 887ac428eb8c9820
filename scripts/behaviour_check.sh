#!/usr/bin/env bash
# Behaviour check with layout controls, for a change that must leave what
# the cache does unchanged (a refactor, a deletion).
#
#   scripts/behaviour_check.sh <parent-rev> [<rev>]   # <rev> defaults to HEAD
#
# Exports three trees into one temporary directory, at paths of equal length
# (the build embeds source paths): the parent; the pad control, which is the
# parent with a 64 KiB initialized global added to src/vfs/walk.cc; and
# <rev>. Builds perfbench in each (scripts/perfbench_trees.sh), then runs
# seeds 1, 2 and 3 of warm_lookup, serve_mail and tree_churn with
# `--seconds 5 --trace 1`, one run at a time, from the temporary directory
# with a relative --spans path 27 characters long. The heap controls run
# the parent's binary twice more, with --spans paths 16 characters shorter
# and 16 longer: perfbench copies that path into a string at startup, so
# its length resizes an early heap block (or drops it, for a path short
# enough to fit inside the string) and moves every later allocation.
#
# perfbench turns off address randomization, so one binary reproduces
# every value. But the PCC's sets and the dcache's hash buckets are keyed
# by dentry address, so a change to the binary's layout or to the sizes of
# early heap objects moves some ratios, on every workload. The rules:
#   - address-independent metrics, every non-timing metric not listed
#     below, must equal the parent's bit for bit;
#   - address-dependent metrics (core.dlht_skips_per_probe,
#     core.pcc_hit_ratio, vfs.fast_hit_ratio, vfs.shortcut_resume_ratio,
#     vfs.slow_comps_per_walk, vfs.slow_retry_ratio, vfs.dcache_hit_ratio)
#     must stay within 0.5% of the parent's. Where one of the parent and the
#     change reads 0 and the other does not (a ratio over slow walks reads 0
#     when no walk went slow), no relative bound applies: that flip is a
#     violation unless a control also flips between 0 and nonzero on the
#     same workload and metric, at any seed;
#   - timing metrics are skipped: every *_ns* and *_s metric, trace.*,
#     obs.*, server.ops_per_batch and server.sq_full_retries.
# Every run must also report correct with no failed operation, and the
# change must report every metric the parent does.
#
# Prints one table, with each control's largest deviation beside the
# change's, and exits 1 on any violation. Writes only under the temporary
# directory, and removes it at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <parent-rev> [<rev>]" >&2
  exit 2
fi
PARENT=$(git rev-parse --verify "$1^{commit}")
CHANGE=$(git rev-parse --verify "${2:-HEAD}^{commit}")

TMP=$(mktemp -d "${TMPDIR:-/tmp}/behaviour.XXXXXX")
trap 'rm -rf "$TMP"' EXIT

# p = parent, d = the pad control, h = the change: equal-length paths.
source scripts/perfbench_trees.sh
export_tree "$TMP/p" "$PARENT"
export_tree "$TMP/d" "$PARENT"
export_tree "$TMP/h" "$CHANGE"
echo 'volatile char g_layout_pad[64 * 1024] = {1};' >> "$TMP/d/src/vfs/walk.cc"
for t in p d h; do
  build_perfbench "$TMP/$t"
done

cd "$TMP"
python3 - <<'PY'
import json
import math
import subprocess
import sys

SEEDS = ["1", "2", "3"]
WORKLOADS = ["warm_lookup", "serve_mail", "tree_churn"]
ADDRESS_DEPENDENT = {
    "core.dlht_skips_per_probe", "core.pcc_hit_ratio", "vfs.fast_hit_ratio",
    "vfs.shortcut_resume_ratio", "vfs.slow_comps_per_walk",
    "vfs.slow_retry_ratio", "vfs.dcache_hit_ratio",
}
TIMING = {"server.ops_per_batch", "server.sq_full_retries"}
BOUND_PCT = 0.5


def spans(extra):
    return "spans" + "-" * extra + ".jsonl"


# run name -> (tree, --spans path); "pad" and the two "heap" runs are controls.
RUNS = {
    "parent": ("p", spans(16)),
    "change": ("h", spans(16)),
    "pad": ("d", spans(16)),
    "heap-16": ("p", spans(0)),
    "heap+16": ("p", spans(32)),
}
CONTROLS = ["pad", "heap-16", "heap+16"]


def run(name, w, s):
    tree, path = RUNS[name]
    print(f"== {w} seed {s} ({name})", file=sys.stderr, flush=True)
    out = subprocess.run(
        [f"{tree}/.bench_build/perfbench/perfbench", "--workload", w,
         "--seed", s, "--seconds", "5", "--trace", "1", "--spans", path],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def timing(name):
    return ("_ns" in name or name.endswith("_s") or name in TIMING or
            name.startswith(("trace.", "obs.")))


def flips(base, v):
    return (base == 0) != (v == 0)


def deviation_pct(base, v):
    if v == base:
        return 0.0
    if base == 0:
        return math.copysign(math.inf, v)
    return (v - base) / abs(base) * 100.0


violations = []
rows = {}  # (workload, metric) -> row
for w in WORKLOADS:
    for s in SEEDS:
        runs = {name: run(name, w, s) for name in RUNS}
        for name, r in runs.items():
            if not r["correct"] or r["failed"] != 0:
                violations.append(f"{w} seed {s} ({name}): not correct, "
                                  f"{r['failed']} failed")
        values = {name: {k: v["value"] for k, v in r["metrics"].items()}
                  for name, r in runs.items()}
        for metric, base in values["parent"].items():
            if timing(metric):
                continue
            row = rows.setdefault((w, metric), {
                "dev": {name: 0.0 for name in ["change"] + CONTROLS},
                "flips": {name: [] for name in ["change"] + CONTROLS}})
            for name in row["dev"]:
                v = values[name].get(metric)
                if v is None:
                    violations.append(f"{w} seed {s}: {name} lacks {metric}")
                elif metric in ADDRESS_DEPENDENT and flips(base, v):
                    row["flips"][name].append(f"seed {s} {base:.4g}->{v:.4g}")
                else:
                    row["dev"][name] = max(row["dev"][name],
                                           deviation_pct(base, v), key=abs)
            bound = BOUND_PCT if metric in ADDRESS_DEPENDENT else 0.0
            change = values["change"].get(metric)
            if change is not None and not flips(base, change) and \
                    abs(deviation_pct(base, change)) > bound:
                violations.append(f"{w} seed {s}: {metric} parent {base!r} "
                                  f"change {change!r}")

print(f"{'workload':<12} {'metric':<34} {'rule':<6} {'change %':>9} "
      f"{'pad %':>9} {'heap-16 %':>9} {'heap+16 %':>9}  verdict")
for (w, metric), row in sorted(rows.items()):
    dependent = metric in ADDRESS_DEPENDENT
    bound = BOUND_PCT if dependent else 0.0
    verdict = "VIOLATION" if abs(row["dev"]["change"]) > bound else "ok"
    flipped = {name: f for name, f in row["flips"].items() if f}
    if flipped.get("change") and not any(flipped.get(c) for c in CONTROLS):
        verdict = "VIOLATION"
        violations.append(f"{w}: {metric} flips between 0 and nonzero "
                          "and no control does")
    devs = " ".join(f"{row['dev'][name]:>+9.4f}"
                    for name in ["change"] + CONTROLS)
    print(f"{w:<12} {metric:<34} {'0.5%' if dependent else 'exact':<6} "
          f"{devs}  {verdict}")
    for name, f in flipped.items():
        print(f"{'':<12}   flips between 0 and nonzero ({name}): "
              f"{', '.join(f)}")
print("seeds 1 2 3; each % column is the largest deviation from the parent "
      "over the seeds, leaving out flips")
for v in violations:
    print("VIOLATION:", v)
if violations:
    sys.exit(1)
print("behaviour check: OK")
PY
