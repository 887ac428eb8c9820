#!/usr/bin/env bash
# Full local validation: Release build + tests, then (optionally) Debug and
# AddressSanitizer passes, then the benchmark sweep.
#
#   scripts/check.sh            # release build + ctest
#   scripts/check.sh --full     # + debug & asan test passes
#   scripts/check.sh --tsan     # + thread sanitizer pass over the
#                               #   concurrency-sensitive suites (labels
#                               #   obs + concurrency)
#   scripts/check.sh --server   # + thread sanitizer pass over just the
#                               #   batch/server suite (label server: the
#                               #   SQ/CQ rings and the shard drain loop)
#   scripts/check.sh --obs      # + address sanitizer pass over the obs +
#                               #   server suites (span rings, flight
#                               #   recorder, trace plumbing) on top of the
#                               #   TSan coverage --tsan/--server give them
#   scripts/check.sh --shortcut # + thread sanitizer pass over just the
#                               #   miss-shortcut suite (label shortcut:
#                               #   ancestor probes racing renames)
#   scripts/check.sh --resize   # + thread sanitizer pass over just the
#                               #   elastic-resize + governor suite (label
#                               #   resize: readers and mutators racing
#                               #   online table migration)
#   scripts/check.sh --stress   # + every concurrency|shortcut|resize|server
#                               #   test binary run standalone (all cores,
#                               #   no ctest -j neighbours) with
#                               #   --gtest_repeat=10, under
#                               #   AddressSanitizer and then ThreadSanitizer
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
TSAN=0
SERVER=0
OBS=0
SHORTCUT=0
RESIZE=0
STRESS=0
STRESS_REPEAT=10
while [[ $# -gt 0 ]]; do
  case "$1" in
    --full) FULL=1 ;;
    --tsan) TSAN=1 ;;
    --server) SERVER=1 ;;
    --obs) OBS=1 ;;
    --shortcut) SHORTCUT=1 ;;
    --resize) RESIZE=1 ;;
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

# Configure and build one sanitizer tree: `address` -> build-asan,
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

# ctest over the given labels in the ThreadSanitizer tree.
tsan_ctest() {
  sanitizer_build thread
  ctest --test-dir build-tsan --output-on-failure -L "$1"
}

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

  echo "== address sanitizer =="
  sanitizer_build address
  ctest --test-dir build-asan --output-on-failure
fi

if [[ "$TSAN" == 1 ]]; then
  echo "== thread sanitizer (obs + concurrency suites) =="
  # Only the suites with real cross-thread traffic: the lock-free walkers,
  # the obs recorders/sampler, and the ring-buffer stress tests.
  tsan_ctest 'obs|concurrency'
fi

if [[ "$SERVER" == 1 ]]; then
  echo "== thread sanitizer (batch/server suite) =="
  # The new cross-thread surface from the batch API redesign: the Vyukov
  # SQ/CQ rings, multi-producer Submit against the shard drain loop, and
  # Stop()'s drain-everything guarantee. Reuses the --tsan build tree.
  tsan_ctest server
fi

if [[ "$SHORTCUT" == 1 ]]; then
  echo "== thread sanitizer (miss-shortcut suite) =="
  # The ancestor-probe fallback's cross-thread surface: prefix-signature
  # probes and resumed walks racing renames, evictions, and epoch
  # reclamation (label shortcut). Reuses the --tsan build tree.
  tsan_ctest shortcut
fi

if [[ "$RESIZE" == 1 ]]; then
  echo "== thread sanitizer (elastic-resize + governor suite) =="
  # The elastic DLHT's cross-thread surface: the two-candidate reader probe
  # and validated-lock writers racing BeginResize/MigrateStep, epoch
  # retirement of old tables under concurrent readers, and the governor's
  # eviction/steering passes (label resize). Reuses the --tsan build tree.
  tsan_ctest resize
fi

if [[ "$OBS" == 1 ]]; then
  echo "== address sanitizer (obs + server suites) =="
  # The request-tracing surfaces (span rings, the flight recorder's by-value
  # RequestTrace copies, Chrome-trace rendering) are memory-layout heavy;
  # ASan catches the overflow/use-after-free class TSan doesn't. Reuses the
  # --full ASan build tree.
  sanitizer_build address
  ctest --test-dir build-asan --output-on-failure -L 'obs|server'
fi

if [[ "$STRESS" == 1 ]]; then
  # Races that hide under `ctest -j` load (or on one CPU) show up when each
  # binary has the whole machine: repeated standalone runs, memory errors
  # first, then data races.
  echo "== stress: address sanitizer, standalone x$STRESS_REPEAT =="
  sanitizer_build address
  stress_binaries build-asan 'concurrency|shortcut|resize|server'
  echo "== stress: thread sanitizer, standalone x$STRESS_REPEAT =="
  sanitizer_build thread
  stress_binaries build-tsan 'concurrency|shortcut|resize|server'
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
