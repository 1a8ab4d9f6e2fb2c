#!/usr/bin/env bash
# Same-outputs gate for changes that must not move any simulated result:
# builds BASE (any git revision) and the working tree in Release, runs the
# deterministic figure benches and dump examples on both, and byte-compares
# every output pair.
#
# Per side, in its own output directory (never the repository root, so the
# committed BENCH_*.json files stay untouched):
#   - fig05..fig11, t01_latency, every abl_* bench and ext_lu: stdout, plus
#     the BENCH_fig09.json and BENCH_fig11.json that fig09_qr and
#     fig11_mp2c write into their working directory;
#   - metrics_dump (plain and at watermark 8), raft_dump 42 and
#     sched_dump 42, each under the coroutine backend and parallel:1/4/8;
#   - trace_dump: its dacc_trace.json and stdout;
#   - mp2c_mini: stdout, including its batched burst's message count.
# Wall-clock outputs (wallclock_engine, sched_scale, profile_dump) are left
# out: they differ from run to run on any host.
#
# BASE's sources come from `git archive BASE | tar -x`, so the check needs
# no worktree and no network; the archive keeps one file time, so a rerun
# against the same BASE rebuilds only what changed. Exit 0 when every pair
# is identical; exit 1 naming each file that differs or exists on one side
# only; exit 2 when a build fails.
#
#   $ scripts/check_same_outputs.sh BASE [scratch-dir]
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 BASE [scratch-dir]" >&2
  exit 2
fi
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base_rev="$1"
scratch="${2:-$repo/build-same}"
mkdir -p "$scratch"
scratch="$(cd "$scratch" && pwd)"

base_src="$scratch/base-src"
rm -rf "$base_src"
mkdir -p "$base_src"
git -C "$repo" archive "$base_rev" | tar -x -C "$base_src"

build() {  # source-dir build-dir
  if ! cmake -B "$2" -S "$1" \
      -DCMAKE_BUILD_TYPE=Release \
      -DDACC_BUILD_TESTS=OFF \
      -DDACC_BUILD_BENCHMARKS=ON \
      -DDACC_BUILD_EXAMPLES=ON > "$2.build.log" 2>&1 ||
     ! cmake --build "$2" -j "$(nproc)" >> "$2.build.log" 2>&1; then
    tail -n 40 "$2.build.log" >&2
    echo "build of $1 failed (log: $2.build.log)" >&2
    exit 2
  fi
}

# Runs every deterministic output producer of one build into one directory.
run_side() {  # build-dir out-dir
  local bin="$1" out="$2"
  rm -rf "$out"
  mkdir -p "$out"
  (
    cd "$out"
    unset DACC_SIM_BACKEND DACC_SIM_PARALLEL_WORKERS DACC_PROF
    for bench in fig05_h2d_bandwidth fig06_d2h_bandwidth \
        fig07_h2d_local_vs_remote fig08_d2h_local_vs_remote fig09_qr \
        fig10_cholesky fig11_mp2c t01_latency ext_lu; do
      "$bin/bench/$bench" > "$bench.txt"
    done
    for path in "$bin"/bench/abl_*; do
      "$path" > "$(basename "$path").txt"
    done
    for backend in coroutine parallel:1 parallel:4 parallel:8; do
      tag="${backend/:/_}"
      DACC_SIM_BACKEND="$backend" "$bin/examples/metrics_dump" \
        "metrics_$tag" > "metrics_$tag.txt"
      DACC_SIM_BACKEND="$backend" "$bin/examples/metrics_dump" \
        "metrics_batch_$tag" 8 > "metrics_batch_$tag.txt"
      DACC_SIM_BACKEND="$backend" "$bin/examples/raft_dump" \
        "raft_$tag" 42 > "raft_$tag.txt"
      DACC_SIM_BACKEND="$backend" "$bin/examples/sched_dump" \
        "sched_$tag" 42 > "sched_$tag.txt"
    done
    "$bin/examples/trace_dump" > trace_dump.txt
    # The only run here whose job sends kBatch frames (metrics_dump's job
    # is synchronous, so its watermark-8 leg flushes one op at a time).
    "$bin/examples/mp2c_mini" > mp2c_mini.txt
  )
}

echo "building $base_rev and the working tree (Release) under $scratch"
build "$base_src" "$scratch/base-build"
build "$repo" "$scratch/work-build"
echo "running both sides"
run_side "$scratch/base-build" "$scratch/base-out"
run_side "$scratch/work-build" "$scratch/work-out"

status=0
compared=0
while IFS= read -r name; do
  compared=$((compared + 1))
  if [ ! -e "$scratch/base-out/$name" ]; then
    echo "only in the working tree: $name"
    status=1
  elif [ ! -e "$scratch/work-out/$name" ]; then
    echo "only in $base_rev: $name"
    status=1
  elif ! cmp -s "$scratch/base-out/$name" "$scratch/work-out/$name"; then
    echo "differs: $name"
    status=1
  fi
done < <( (cd "$scratch/base-out" && ls; cd "$scratch/work-out" && ls) |
          sort -u)

if [ "$status" -eq 0 ]; then
  echo "same outputs: $compared files identical to $base_rev"
fi
exit "$status"
