#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/test_bench.py

For every workload, with short runs (--seconds 2):
  - one seed gives an identical op stream (its digest) and identical
    cache_bytes, and every op agrees with the model (correct, failed = 0);
  - a different seed gives a different op stream;
  - two traced runs with one seed report identical per-layer counts.
The program turns address randomization off itself, which the last check
relies on. Exits non-zero on the first failed check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("warm_lookup", "serve_mail", "tree_churn")
# Per-layer metrics that depend on how two threads interleave, not on the
# op stream: how many ring entries one shard turn drains, and how often the
# submitter found the ring full.
TIMING_DEPENDENT = {"server.ops_per_batch", "server.sq_full_retries"}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "2", "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=600).stdout
    lines = out.strip().splitlines()
    digest = re.search(r"stream digest ([0-9a-f]+)", out)
    return json.loads(lines[-1]), digest.group(1) if digest else None


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def main():
    for w in WORKLOADS:
        a, da = run(w, 1, 0)
        b, db = run(w, 1, 0)
        c, dc = run(w, 2, 0)
        check(a["correct"] and a["failed"] == 0 and a["attempted"] > 0,
              "%s: every op agrees with the model" % w)
        check(da is not None and da == db, "%s: one seed, one op stream" % w)
        check(a["metrics"]["cache_bytes"] == b["metrics"]["cache_bytes"],
              "%s: one seed, one cache_bytes (%d)" %
              (w, a["metrics"]["cache_bytes"]["value"]))
        check(dc != da, "%s: another seed, another op stream" % w)

        t1, _ = run(w, 3, 1)
        t2, _ = run(w, 3, 1)
        counts = [k for k, v in t1["metrics"].items()
                  if v["unit"] in ("count", "ratio") and
                  k not in TIMING_DEPENDENT]
        differ = [k for k in counts
                  if t1["metrics"][k] != t2["metrics"][k]]
        check(t1["correct"] and t2["correct"],
              "%s: traced runs agree with the model" % w)
        check(not differ, "%s: %d per-layer counts repeat exactly%s" %
              (w, len(counts), (" (differ: %s)" % differ) if differ else ""))


if __name__ == "__main__":
    main()
