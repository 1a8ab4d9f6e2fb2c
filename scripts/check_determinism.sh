#!/usr/bin/env bash
# Cross-backend determinism and observability gate: the simulation's
# observable outputs — simulated results, trace spans, and the dacc::obs
# metrics snapshot — must be bit-identical under the coroutine and parallel
# execution backends, and the two observability tiers (DESIGN.md §9) must
# stay apart.
#
# Two layers of checking:
#   1. ctest: the in-process determinism suites (tests/sim, tests/obs),
#      every obs-labelled suite and smoke test, the mixed-path test, which
#      compares the whole snapshot with the worker pool's and checks the
#      per-shard era stats across worker counts, and the arm-storm
#      regression on both backends.
#   2. process-level: run examples/metrics_dump once per backend via
#      DACC_SIM_BACKEND and byte-compare the exported JSON + Prometheus
#      snapshots, written whole, across the runs; with the wallclock
#      profiler attached, check that the snapshot does not move, that the
#      profiler's export holds only dacc_prof_ series and the snapshot none,
#      and that neither lists a series twice.
#
#   $ scripts/check_determinism.sh [build-dir]
#
# The build dir (default build-det/, relative paths allowed) is reconfigured
# in Release with the benchmarks off, so do not pass the tier-1 tree.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build-det}"
# Absolute, because later steps run the built examples from a snapshot dir.
mkdir -p "$build"
build="$(cd "$build" && pwd)"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=Release \
  -DDACC_BUILD_BENCHMARKS=OFF \
  -DDACC_BUILD_EXAMPLES=ON
cmake --build "$build" -j "$(nproc)"

# In-process determinism + observability suites.
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" \
  -R 'Determinism|ObsDeterminism'
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" -L obs

# Mixed paths: a 129-node MP2C cluster whose first wave runs the serial
# loop and whose second wave, widened past the pool crossover, runs its
# eras on the worker pool. Its events, pool stats, whole metrics
# snapshot and Chrome trace must match the coroutine backend across 1/2/4
# workers and 2/4/8 shards. The same test checks the per-shard era stats
# in Engine::ParallelStats (eras with and without events, events, inbox
# events): they depend on the shard map alone, never on the worker count.
# No snapshot carries a series that depends on the shard map.
ctest --test-dir "$build" --output-on-failure \
  -R 'ParallelPool.MixedPathErasMatchTheCoroutineBackend'

# Failover fault 3's regression (tests/arm/storm_test.cpp): 1,500 arm-storm
# jobs must drain the pool with every job complete under both backends.
# Its parallel leg runs its eras on the worker pool.
ctest --test-dir "$build" --output-on-failure \
  -R '^ArmStorm\..*\.(coroutine|parallel)$'

# Process-level: identical metrics snapshots from separate processes pinned
# to each backend.
out="$build/det-snapshots"
mkdir -p "$out"
for backend in coroutine parallel:4; do
  tag="${backend/:/_}"
  (cd "$out" && DACC_SIM_BACKEND="$backend" \
    "$build/examples/metrics_dump" "metrics_$tag" > "run_$tag.log")
done

for ext in json prom; do
  cmp "$out/metrics_coroutine.$ext" "$out/metrics_parallel_4.$ext"
done

# The profiler is off unless asked for: no wallclock export.
if [ -e "$out/metrics_coroutine.prof.prom" ]; then
  echo "profiler detached but a wallclock export appeared" >&2
  exit 1
fi

# Wallclock profiler tier (DESIGN.md §9.2): metrics_dump's `prof` argument
# attaches the profiler, which exports dacc_prof_* series to a separate
# .prof.prom file. The deterministic snapshot must stay byte-identical to
# the unprofiled runs above and must not know the dacc_prof_ prefix; the
# wallclock export must use nothing else; neither exposition may list a
# series name twice.
for backend in coroutine parallel:4; do
  tag="${backend/:/_}"
  (cd "$out" && DACC_SIM_BACKEND="$backend" \
    "$build/examples/metrics_dump" "metrics_prof_$tag" prof \
    > "run_prof_$tag.log")
done

for ext in json prom; do
  for tag in coroutine parallel_4; do
    cmp "$out/metrics_coroutine.$ext" "$out/metrics_prof_$tag.$ext"
  done
done

for tag in coroutine parallel_4; do
  prof="$out/metrics_prof_$tag.prof.prom"
  if [ ! -s "$prof" ]; then
    echo "profiler enabled but no wallclock series exported ($tag)" >&2
    exit 1
  fi
  if grep -q 'dacc_prof_' "$out/metrics_prof_$tag.prom"; then
    echo "wallclock series leaked into the deterministic snapshot ($tag)" >&2
    exit 1
  fi
  if grep -v '^#' "$prof" | grep -vq '^dacc_prof_'; then
    echo "wallclock export contains a series outside dacc_prof_ ($tag)" >&2
    exit 1
  fi
  for f in "$out/metrics_prof_$tag.prom" "$prof"; do
    dups="$(grep -v '^#' "$f" | awk '{print $1}' | sort | uniq -d)"
    if [ -n "$dups" ]; then
      echo "duplicate series in $f:" >&2
      echo "$dups" >&2
      exit 1
    fi
  done
done

# Batched command streams: repeat the process-level check with metrics_dump's
# watermark argument coalescing small ops into kBatch frames of up to 8. The
# frame boundaries (rpc message counts, flush-size histograms) land in the
# snapshot, so this also pins the coalescing itself to be backend-invariant.
for backend in coroutine parallel:4; do
  tag="${backend/:/_}"
  (cd "$out" && DACC_SIM_BACKEND="$backend" \
    "$build/examples/metrics_dump" "metrics_batch_$tag" 8 \
    > "run_batch_$tag.log")
done

for ext in json prom; do
  cmp "$out/metrics_batch_coroutine.$ext" "$out/metrics_batch_parallel_4.$ext"
done

# The job's launch_async burst must coalesce: on every front-end channel,
# the batch sizes must sum to more than the number of flushes.
if ! awk '
  /^dacc_rpc_batch_size_(sum|count)\{chan="fe-/ {
    split($1, name, "{");
    if (name[1] == "dacc_rpc_batch_size_sum") sum[name[2]] = $2;
    else count[name[2]] = $2;
  }
  END {
    n = 0;
    for (chan in sum) {
      n++;
      if (sum[chan] <= count[chan]) { print "no coalescing on " chan; exit 1 }
    }
    if (n == 0) { print "no front-end batch series"; exit 1 }
  }' "$out/metrics_batch_coroutine.prom" >&2; then
  echo "the batched metrics_dump run sent no multi-op kBatch frame" >&2
  exit 1
fi

# Replicated ARM (DESIGN.md §11): a whole chaos schedule — elections,
# a seeded leader kill, failover, re-election — must replay identically
# under every backend AND shard count. raft_dump exits nonzero unless the
# kill landed and the pool drained; its .raft digest carries the full
# election history, so the byte-compare pins election timing itself.
for backend in coroutine parallel:1 parallel:4 parallel:8; do
  tag="${backend/:/_}"
  (cd "$out" && DACC_SIM_BACKEND="$backend" \
    "$build/examples/raft_dump" "raft_$tag" 42 > "run_raft_$tag.log")
done

for ext in json prom raft; do
  for tag in parallel_1 parallel_4 parallel_8; do
    cmp "$out/raft_coroutine.$ext" "$out/raft_$tag.$ext"
  done
done

# Typed scheduler chaos (DESIGN.md §13): mixed priority classes, a kind- and
# memory-constrained heterogeneous pool, an arrival-triggered preemption with
# transparent replay, and a post-settlement leader kill. sched_dump exits
# nonzero unless exactly one preemption and one replacement happened and the
# per-priority assign-wait SLOs pass; its .sched digest carries the election
# history, pool counters, SLO table and replica fingerprints, so the
# byte-compare pins every scheduling decision across backends and shard
# counts.
for backend in coroutine parallel:1 parallel:4 parallel:8; do
  tag="${backend/:/_}"
  (cd "$out" && DACC_SIM_BACKEND="$backend" \
    "$build/examples/sched_dump" "sched_$tag" 42 > "run_sched_$tag.log")
done

for ext in json prom sched; do
  for tag in parallel_1 parallel_4 parallel_8; do
    cmp "$out/sched_coroutine.$ext" "$out/sched_$tag.$ext"
  done
done

echo "determinism check passed: whole metrics snapshots identical across backends (mixed paths + per-shard era stats + arm storm in-process; plain + profiled + batched + replicated-ARM chaos + scheduler chaos); profiler attach is snapshot-neutral, series namespaces disjoint and collision-free; the batched leg coalesces"
