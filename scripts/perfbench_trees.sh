# Export-and-build step shared by scripts/behaviour_check.sh and
# scripts/perf_pairs.sh, which compare perfbench across revisions. Source it
# from the repository root:
#
#   export_tree <dir> <rev>   # the files of <rev>, as committed, into <dir>
#   build_perfbench <dir>     # perfbench into <dir>/.bench_build/perfbench,
#                             # where perfbench/run.py builds it
#
# Export every tree of one comparison at paths of equal length: the build
# embeds source paths, so their lengths move the binary's layout.

export_tree() {
  mkdir -p "$1"
  git archive "$2" | tar -x -C "$1"
}

build_perfbench() {
  echo "== building perfbench ($1)" >&2
  cmake -S "$1/perfbench" -B "$1/.bench_build/perfbench" -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$1/.bench_build/perfbench" -j "$(nproc)" > /dev/null
}
