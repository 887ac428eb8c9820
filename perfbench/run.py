#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <warm_lookup|serve_mail|tree_churn>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ together with the dircache sources in src/
(CMake, into .bench_build/perfbench under the checkout root), then runs the
benchmark program. Build output goes to stderr. The program's standard
output, whose last line is the JSON result, passes through unchanged, and
so does its exit status. Traced runs (--trace 1) also write their span log
to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("warm_lookup", "serve_mail", "tree_churn")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no dircache sources in %s/src" % ROOT)
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        sys.exit("perfbench: --seconds must be in [1, 600]")
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", str(BUILD / ("spans-%s-%d.jsonl" %
                                            (args.workload, args.seed)))]
    sys.stdout.flush()
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
