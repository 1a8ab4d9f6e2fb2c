#include "sim/exec.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace dacc::sim {
namespace {

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// True if DACC_SIM_BACKEND requests the parallel backend; *shards receives
/// the explicit :N suffix (0 when absent or malformed).
bool parse_parallel_env(const char* env, int* shards) {
  if (std::strncmp(env, "parallel", 8) != 0 ||
      (env[8] != '\0' && env[8] != ':')) {
    return false;
  }
  *shards = 0;
  if (env[8] == ':') {
    char* end = nullptr;
    const long n = std::strtol(env + 9, &end, 10);
    if (end != nullptr && *end == '\0' && n > 0 && n <= 4096) {
      *shards = static_cast<int>(n);
    } else {
      std::fprintf(stderr,
                   "dacc: ignoring shard count in DACC_SIM_BACKEND='%s' "
                   "(expected parallel:<1..4096>)\n",
                   env);
    }
  }
  if (*shards == 0) *shards = hardware_threads();
  return true;
}

}  // namespace

ExecBackend default_exec_backend() {
  if (const char* env = std::getenv("DACC_SIM_BACKEND")) {
    if (std::strcmp(env, "coroutine") == 0) return ExecBackend::kCoroutine;
    int shards = 0;
    if (parse_parallel_env(env, &shards)) return ExecBackend::kParallel;
    std::fprintf(stderr,
                 "dacc: ignoring DACC_SIM_BACKEND='%s' "
                 "(expected 'coroutine' or 'parallel[:N]')\n",
                 env);
  }
  return ExecBackend::kCoroutine;
}

int default_parallel_shards() {
  if (const char* env = std::getenv("DACC_SIM_BACKEND")) {
    int shards = 0;
    if (parse_parallel_env(env, &shards)) return shards;
  }
  return 0;
}

int default_auto_shard_cap() {
  return std::max(16, 2 * hardware_threads());
}

int default_parallel_workers() {
  if (const char* env = std::getenv("DACC_SIM_PARALLEL_WORKERS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && n > 0 && n <= 4096) {
      return static_cast<int>(n);
    }
    std::fprintf(stderr,
                 "dacc: ignoring DACC_SIM_PARALLEL_WORKERS='%s' "
                 "(expected 1..4096)\n",
                 env);
  }
  return hardware_threads();
}

}  // namespace dacc::sim
