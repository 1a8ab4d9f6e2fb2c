#!/usr/bin/env bash
# Reachability gate: every function in src/ must be kept by a shipped binary.
#
# The shipped binaries are the 30 programs a user runs: every bench and every
# example of the root build, and perfbench's dacc_bench. This script builds
# them at -O0 with -ffunction-sections and links them with -Wl,--gc-sections,
# so no inlining hides a caller and the linker drops every function nothing
# calls. It then lists the dacc:: functions defined in the src/ libraries
# (nm symbol types T t W w; lambdas and std:: template instances left out)
# that none of the 30 binaries keeps, and compares their names, without
# parameters, against the allowlist below.
#
# Exit 0 when every unreached name is on the allowlist and every allowlist
# entry is still defined and still unreached; exit 1 naming each unlisted or
# stale name; exit 2 when a build fails.
#
# Known limit: an inline function that no translation unit of src/ calls is
# never emitted, so it is invisible here; grep for those.
#
#   $ scripts/check_reachable.sh [build-dir]      # default: build-reach/
set -euo pipefail

# Unreached on purpose, one name per line, each with its reason.
allowlist=$(cat <<'EOF'
# Fault hooks: tests inject faults through them, as the chaos tier will.
dacc::rt::Cluster::fail_link                 # chaos tests: cut a NIC
dacc::rt::Cluster::fail_accelerator_link     # recovery tests: cut a daemon
dacc::rt::Cluster::kill_arm_replica          # chaos tests: crash a replica
dacc::net::Fabric::degrade_link              # fault tests: slow a NIC
dacc::sim::Engine::current                   # Cluster::fail_link: in a run?
# Read-outs of state a shipped run produces, for the tests to observe.
dacc::net::Fabric::drops                     # dropped messages per NIC
dacc::net::Fabric::link_failed               # a NIC's fault mark
dacc::net::Fabric::bytes_received            # rx byte count
dacc::net::Fabric::tx_busy                   # NIC tx occupancy
dacc::net::Fabric::rx_busy                   # NIC rx occupancy
dacc::obs::Registry::json                    # snapshot as JSON text
dacc::obs::Registry::reset                   # zero between phases
dacc::obs::Registry::gauge_value             # one gauge
dacc::obs::Registry::histogram_sum           # one histogram
dacc::obs::Profiler::prometheus              # profile as text
dacc::obs::Profiler::worker_wait_ns          # a pool worker's wait
dacc::obs::FlightRecorder::dump              # the string overload
dacc::obs::FlightRecorder::clear             # empty between runs
dacc::core::Future::status                   # poll without waiting
dacc::rt::Cluster::accelerator_daemon        # reach a daemon
# Kept for the benchmark: deleting it with DeviceParams::d2d_mib_s shrinks
# every Device and rt::Cluster, which moved perfbench mp2c-churn's setup_s.
dacc::gpu::Device::memcpy_dtod_async         # device model: D2D copy
# Harness hooks.
dacc::sim::Engine::run_until                 # tests: run to a time
dacc::arm::ArmClient::shutdown               # fuzz tests: stop a bare ARM
dacc::sim::StackPool::~StackPool             # tests: a pool of their own
EOF
)

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${1:-$repo/build-reach}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
build() {  # source-dir build-dir [cmake args...]
  local src="$1" dir="$2"
  shift 2
  if ! cmake -B "$dir" -S "$src" "${flags[@]}" "$@" > "$dir.log" 2>&1 ||
     ! cmake --build "$dir" -j "$(nproc)" >> "$dir.log" 2>&1; then
    tail -n 40 "$dir.log" >&2
    echo "build of $src failed (log: $dir.log)" >&2
    exit 2
  fi
}
build "$repo" "$out/root" -DDACC_BUILD_TESTS=OFF \
  -DDACC_BUILD_BENCHMARKS=ON -DDACC_BUILD_EXAMPLES=ON
build "$repo/perfbench" "$out/perfbench" -DDACC_SANITIZE=

bins=()
for dir in "$out/root/bench" "$out/root/examples"; do
  while IFS= read -r path; do bins+=("$path"); done < <(
    find "$dir" -maxdepth 1 -type f -perm -u+x | sort)
done
bins+=("$out/perfbench/dacc_bench")
echo "${#bins[@]} shipped binaries"

# Mangled functions whose own name is in dacc:: (_ZN4dacc..., _ZNK4dacc...):
# defined in the libraries, kept by the binaries. std:: and __gnu_cxx::
# template instances over dacc types mangle otherwise and stay out.
functions() {  # files...
  nm --defined-only "$@" 2>/dev/null |
    awk 'NF == 3 && $2 ~ /^[TtWw]$/ && $3 ~ /^_ZN[KVRO]*4dacc/ { print $3 }' |
    sort -u
}
# Demangled signature -> name: no parameters, no return type, no ABI tag.
names() {
  awk '{
    s = $0
    gsub(/\[abi:cxx11\]/, "", s)
    op = index(s, "operator()")
    from = op ? op + 10 : 1
    paren = index(substr(s, from), "(")
    if (paren) s = substr(s, 1, from + paren - 2)
    depth = 0
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "<") depth++
      else if (c == ">") depth--
      else if (c == " " && depth == 0) { s = substr(s, i + 1); break }
    }
    print s
  }' | sort -u
}
functions $(find "$out/root/src" -name 'libdacc_*.a') > "$out/defined.txt"
functions "${bins[@]}" > "$out/kept.txt"
# Lambdas (and templates instantiated over one) are their enclosing
# function's business.
comm -23 "$out/defined.txt" "$out/kept.txt" | c++filt |
  awk '!/\{lambda\(/' > "$out/unreached.txt"
names < "$out/unreached.txt" > "$out/unreached-names.txt"
c++filt < "$out/defined.txt" | names > "$out/defined-names.txt"
sed -E 's/#.*$//; s/[[:space:]]+$//; s/^[[:space:]]+//' <<< "$allowlist" |
  sed '/^$/d' | sort -u > "$out/allowed.txt"

status=0
count="$(wc -l < "$out/unreached-names.txt")"
echo "$count unreached dacc:: function names"
while IFS= read -r name; do
  echo "unreached and not allowlisted: $name"
  status=1
done < <(comm -23 "$out/unreached-names.txt" "$out/allowed.txt")
while IFS= read -r name; do
  if grep -qxF -- "$name" "$out/defined-names.txt"; then
    echo "stale allowlist entry (now reached): $name"
  else
    echo "stale allowlist entry (no longer defined): $name"
  fi
  status=1
done < <(comm -13 "$out/unreached-names.txt" "$out/allowed.txt")
if [ "$status" -eq 0 ]; then
  echo "reachable: every unreached name is allowlisted ($count)"
fi
exit "$status"
