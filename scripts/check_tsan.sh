#!/usr/bin/env bash
# Tier-1 test suite under ThreadSanitizer.
#
# TSan is the proof vehicle for the parallel execution backend. The
# coroutine strands announce every stack switch as a TSan fiber switch
# (sim/engine.cpp), so the suite runs the same execution path as every
# other build. A fiber switch synchronizes, which is exactly the
# engine/process hand-off; shard state that never passes through a strand
# is ordered only by the horizon atomics and era barriers. Passes 2 and 3
# export DACC_SIM_BACKEND=parallel with a multi-thread worker pool, so the
# window barriers, staged inboxes and cross-shard wakes all execute on
# genuinely concurrent threads; pass 3's ring scenario runs no processes,
# so its ordering rests on the horizon protocol alone.
# Benchmarks and examples are skipped: they add nothing to the
# thread-safety surface and triple the build time.
#
#   $ scripts/check_tsan.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build-tsan}"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDACC_SANITIZE=thread \
  -DDACC_BUILD_BENCHMARKS=OFF \
  -DDACC_BUILD_EXAMPLES=OFF
cmake --build "$build" -j "$(nproc)"

# Pass 1: default backend selection (serial scheduler).
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Pass 2: the parallel scheduler with real worker threads — four shards,
# two workers, so shard execution crosses OS threads even on small hosts.
DACC_SIM_BACKEND=parallel:4 DACC_SIM_PARALLEL_WORKERS=2 \
  ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Pass 3: the 10k-node scaling scenario with a wider pool — four workers
# over sixteen shards, so the horizon publishes, staged-inbox absorbs and
# null-message pushes all cross OS threads at scale.
DACC_SIM_PARALLEL_WORKERS=4 \
  ctest --test-dir "$build" --output-on-failure -R 'ParallelScale'
