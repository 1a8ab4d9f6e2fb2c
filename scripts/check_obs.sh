#!/usr/bin/env bash
# Observability gate (DESIGN.md §9): the two-tier contract in one script.
#
#   1. ctest -L obs: the metrics/trace/profiler/flight suites plus the
#      obs-labelled example smoke tests.
#   2. profiler on/off snapshot byte-compare: attaching the wallclock tier
#      (DACC_PROF=1) must not change one byte of the deterministic metrics
#      snapshot.
#   3. namespace collision check: the deterministic registry must never
#      carry a dacc_prof_ series, the profiler export must carry nothing
#      else, and no series name may appear twice in either exposition.
#
#   $ scripts/check_obs.sh [build-dir]
#
# The build dir (default build-obs/, relative paths allowed) is reconfigured
# in Release with the benchmarks off, so do not pass the tier-1 tree.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build-obs}"
# Absolute, because later steps run the built examples from a snapshot dir.
mkdir -p "$build"
build="$(cd "$build" && pwd)"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=Release \
  -DDACC_BUILD_BENCHMARKS=OFF \
  -DDACC_BUILD_EXAMPLES=ON
cmake --build "$build" -j "$(nproc)"

# 1. The observability suites and smoke tests.
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" -L obs

out="$build/obs-snapshots"
mkdir -p "$out"

# 2. Profiler on vs. off: identical deterministic snapshots.
(cd "$out" && DACC_PROF=0 \
  "$build/examples/metrics_dump" "metrics_off" > "run_off.log")
(cd "$out" && DACC_PROF=1 \
  "$build/examples/metrics_dump" "metrics_on" > "run_on.log")
for ext in json prom; do
  cmp "$out/metrics_off.$ext" "$out/metrics_on.$ext"
done
if [ -e "$out/metrics_off.prof.prom" ]; then
  echo "profiler disabled but a wallclock export appeared" >&2
  exit 1
fi
if [ ! -s "$out/metrics_on.prof.prom" ]; then
  echo "profiler enabled but no wallclock series exported" >&2
  exit 1
fi

# 3. Namespace hygiene. The deterministic snapshot must not know the
# dacc_prof_ prefix; the wallclock export must use nothing else; neither
# exposition may register the same series name twice.
if grep -q 'dacc_prof_' "$out/metrics_on.prom"; then
  echo "dacc_prof_ series leaked into the deterministic snapshot" >&2
  exit 1
fi
if grep -v '^#' "$out/metrics_on.prof.prom" | grep -vq '^dacc_prof_'; then
  echo "wallclock export contains a series outside dacc_prof_" >&2
  exit 1
fi
for f in "$out/metrics_on.prom" "$out/metrics_on.prof.prom"; do
  dups="$(grep -v '^#' "$f" | awk '{print $1}' | sort | uniq -d)"
  if [ -n "$dups" ]; then
    echo "duplicate series in $f:" >&2
    echo "$dups" >&2
    exit 1
  fi
done

echo "obs check passed: suites green, profiler attach is snapshot-neutral, series namespaces disjoint and collision-free"
