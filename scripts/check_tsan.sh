#!/usr/bin/env bash
# Tier-1 test suite under ThreadSanitizer.
#
# TSan is the proof vehicle for the parallel execution backend. The
# coroutine strands announce every stack switch as a TSan fiber switch
# (sim/engine.cpp), so the suite runs the same execution path as every
# other build. A fiber switch synchronizes, which is exactly the
# engine/process hand-off; shard state that never passes through a strand
# is ordered only by the horizon atomics and era barriers.
#
# Eras run on worker threads only once a run reaches its first node-homed
# event with at least the engine's pool crossover of them queued
# (DESIGN.md §5.2); before that the engine runs the serial loop and no
# worker exists. Pass 2 exports DACC_SIM_BACKEND=parallel with a
# two-worker pool. Most suites' clusters (at most 129 fabric nodes) start
# below the crossover, so there it checks the serial loop and the lazy
# pool. The tests that reach the pool, and assert that they did: the
# Determinism suite's widened legs
# (tests/sim/determinism_test.cpp: QR, MP2C, fault injection, heartbeat
# recovery and batched streams, and the skewed-latency cluster, at 1-16
# shards), the cross-backend RaftDeterminism, Recovery, ObsDeterminism
# and TierSeparation tests (Raft chaos, device replay, metrics and
# traces, the profiler), the ParallelPool suite
# (tests/sim/parallel_pool_test.cpp: a 513-node MP2C cluster, a 129-node
# cluster that moves to the pool in its second wave, a wide 10k-node
# ring, a ring that moves there inside a bounded run, the profiler's
# booking, and a pool run whose process fails, after which the engine
# replays the spans the workers kept),
# ParallelScale (4096-chain 10k-node rings at 1/4/16/64 shards and a
# two-way ring over short links, where the per-shard-pair lookahead
# matrix is non-uniform), ParallelAsync.PositiveLookaheadRunsWindowed,
# ParallelAsyncCluster (the widened 129-node cluster) and ArmStorm's
# parallel leg (1,500 jobs on 16 CNs, 64 accelerators and 3 ARM replicas).
# The event queue has its own leg on real threads in every pass:
# EventQueue.StageFromAnotherThreadWhileTheOwnerAbsorbsAndPops
# (tests/sim/event_queue_test.cpp) stages events from a std::thread while
# the owner absorbs them into its radix buckets and pops. So does the
# process-wide coroutine stack pool in passes 1 and 2:
# StackPool.EnginesOnTwoThreadsShareTheWarmPool (tests/sim/engine_test.cpp)
# runs two engines at once on two std::threads, which take their stacks
# from and return them to the one pool.
# Pass 3 reruns ParallelScale, ParallelPool, RaftDeterminism, that
# EventQueue leg and InPlaceWait's differential test
# (tests/sim/in_place_test.cpp: 200 seeded random models on the serial
# loop and on the pool) on a four-worker pool. RaftDeterminism's pool legs
# are where observers still cross OS threads without a lock of their own: a
# replica that becomes leader registers the lease machine's series from
# its shard (under the registry's registration mutex), and the replicas'
# flight notes ride the engine's kept records from several shards.
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

# Pass 2: every suite on the parallel scheduler — four shards, two workers.
# Most runs keep the serial loop; the pool tests cross OS threads even on
# small hosts.
DACC_SIM_BACKEND=parallel:4 DACC_SIM_PARALLEL_WORKERS=2 \
  ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Pass 3: the pool-era tests with a wider pool — four workers, so the
# horizon publishes, staged-inbox absorbs, null-message pushes and the
# middleware's cross-shard traffic all cross OS threads at scale — the
# Raft chaos schedule's observers, the event queue's staging-thread leg,
# and the random models the in-place timed wait is checked against.
DACC_SIM_PARALLEL_WORKERS=4 \
  ctest --test-dir "$build" --output-on-failure \
  -R 'ParallelScale|ParallelPool|RaftDeterminism|EventQueue\.StageFromAnotherThread|InPlaceWait\.SerialLoopMatchesThePool'
