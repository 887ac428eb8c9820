#!/usr/bin/env bash
# Full local validation: Release build + tests, then (optionally) Debug and
# sanitizer passes, then the benchmark sweep. The ASan tree also carries
# UndefinedBehaviorSanitizer, and any UBSan report fails its stage.
#
#   scripts/check.sh            # release build + ctest
#   scripts/check.sh --full     # + debug & asan+ubsan test passes
#   scripts/check.sh --tsan[=LABELS]
#                               # + ThreadSanitizer ctest over the suites
#                               #   whose labels match the ctest -L regex
#                               #   LABELS (default obs|concurrency; the
#                               #   server, shortcut and resize suites also
#                               #   carry the concurrency label, and obs
#                               #   selects every suite that builds a kernel
#                               #   with obs on: obs, server, shortcut,
#                               #   resize; dlht
#                               #   selects every suite that reaches the
#                               #   DLHT's split path; readdir every
#                               #   suite that serves directory streams;
#                               #   storage every suite that drives
#                               #   DiskFs's and MemFs's directory code)
#   scripts/check.sh --asan     # + ASan+UBSan ctest over the obs
#                               #   and server labels (span rings, the
#                               #   flight recorder's by-value copies,
#                               #   Chrome-trace rendering)
#   scripts/check.sh --stress   # + every obs|concurrency test binary run
#                               #   standalone (all cores, no ctest -j
#                               #   neighbours) with --gtest_repeat=10,
#                               #   under ASan+UBSan and then
#                               #   ThreadSanitizer
#   scripts/check.sh --bench    # + run every benchmark binary
#   scripts/check.sh --bench fig7
#                               # + run only benchmarks whose name starts
#                               #   with the given prefix (e.g. the fig7
#                               #   write-cost bench, whose exit code gates
#                               #   on its verdict block)
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
BENCH=0
BENCH_FILTER=""
TSAN_LABELS=""
ASAN=0
STRESS=0
STRESS_REPEAT=10
while [[ $# -gt 0 ]]; do
  case "$1" in
    --full) FULL=1 ;;
    --tsan) TSAN_LABELS='obs|concurrency' ;;
    --tsan=*) TSAN_LABELS="${1#*=}" ;;
    --asan) ASAN=1 ;;
    --stress) STRESS=1 ;;
    --bench)
      BENCH=1
      if [[ $# -gt 1 && "${2:0:2}" != "--" ]]; then
        BENCH_FILTER="$2"
        shift
      fi
      ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

# Configure and build one sanitizer tree: `address,undefined` -> build-asan,
# `thread` -> build-tsan. Every sanitizer stage below shares these trees.
sanitizer_build() {
  local dir="build-${1:0:1}san"
  cmake -B "$dir" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=$1 -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=$1" >/dev/null
  cmake --build "$dir"
}

# The suppressions file whitelists ONLY the documented validate-after-read
# idioms (seqlock-guarded rename splice / signature publish, epoch
# reclamation) — everything else, including the invalidation engine and
# the telemetry rings, runs under full TSan scrutiny.
export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp history_size=7"
# UBSan only prints by default; make every report fail the test that hit it.
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"

# Run each test binary carrying one of the given labels on its own, one
# after another, so its threads race on every core of the host.
stress_binaries() {
  local dir="$1" labels="$2" t
  for t in $(ctest --test-dir "$dir" -N -L "$labels" |
             sed -n 's/^ *Test *#[0-9]*: //p'); do
    echo "-- $t x$STRESS_REPEAT ($dir)"
    "$dir/tests/$t" --gtest_repeat="$STRESS_REPEAT" --gtest_brief=1
  done
}

echo "== release build =="
cmake -B build -G Ninja >/dev/null
cmake --build build
ctest --test-dir build --output-on-failure

if [[ "$FULL" == 1 ]]; then
  echo "== debug build (asserts on) =="
  cmake -B build-debug -G Ninja -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-debug
  ctest --test-dir build-debug --output-on-failure

  echo "== address + undefined-behavior sanitizers =="
  sanitizer_build address,undefined
  ctest --test-dir build-asan --output-on-failure
fi

if [[ -n "$TSAN_LABELS" ]]; then
  echo "== thread sanitizer (labels $TSAN_LABELS) =="
  # The suites with real cross-thread traffic: the lock-free walkers, the
  # obs recorders/sampler, the SQ/CQ rings, shortcut resumes racing
  # renames, and online DLHT resize.
  sanitizer_build thread
  ctest --test-dir build-tsan --output-on-failure -L "$TSAN_LABELS"
fi

if [[ "$ASAN" == 1 ]]; then
  echo "== address + undefined-behavior sanitizers (obs + server suites) =="
  # The request-tracing surfaces (span rings, the flight recorder's by-value
  # RequestTrace copies, Chrome-trace rendering) are memory-layout heavy;
  # ASan catches the overflow/use-after-free class TSan doesn't. Reuses the
  # --full ASan build tree.
  sanitizer_build address,undefined
  ctest --test-dir build-asan --output-on-failure -L 'obs|server'
fi

if [[ "$STRESS" == 1 ]]; then
  # Races that hide under `ctest -j` load (or on one CPU) show up when each
  # binary has the whole machine: repeated standalone runs, memory errors
  # first, then data races.
  echo "== stress: address + UB sanitizers, standalone x$STRESS_REPEAT =="
  sanitizer_build address,undefined
  stress_binaries build-asan 'obs|concurrency'
  echo "== stress: thread sanitizer, standalone x$STRESS_REPEAT =="
  sanitizer_build thread
  stress_binaries build-tsan 'obs|concurrency'
fi

if [[ "$BENCH" == 1 ]]; then
  echo "== benchmarks${BENCH_FILTER:+ (filter: $BENCH_FILTER*)} =="
  ran=0
  for b in build/bench/*; do
    [[ -f "$b" && -x "$b" ]] || continue
    name="$(basename "$b")"
    [[ -z "$BENCH_FILTER" || "$name" == "$BENCH_FILTER"* ]] || continue
    "$b"
    ran=1
  done
  if [[ "$ran" == 0 ]]; then
    echo "no benchmark matches '$BENCH_FILTER'" >&2
    exit 2
  fi
fi

echo "all checks passed"
