#!/usr/bin/env bash
# Tier-1 test suite under AddressSanitizer.
#
# The coroutine strands announce every stack switch to ASan
# (__sanitizer_start/finish_switch_fiber in sim/engine.cpp), so the suite
# runs the same execution path as every other build. Benchmarks and
# examples are skipped: they add nothing to the memory-safety surface and
# triple the build time. The build is warning-free and kept so with
# -DDACC_WERROR=ON. (The Release-built scripts leave it off: GCC 12 emits
# -Wrestrict false positives inside libstdc++ there.)
#
#   $ scripts/check_asan.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build-asan}"

cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDACC_SANITIZE=address \
  -DDACC_WERROR=ON \
  -DDACC_BUILD_BENCHMARKS=OFF \
  -DDACC_BUILD_EXAMPLES=OFF
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
