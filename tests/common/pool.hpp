// Puts a parallel-backend engine on its worker pool for a test. The engine
// sends eras to the pool once a run's first era finds at least
// sim::Engine::kPoolCrossover events queued on the shards (DESIGN.md §5.2);
// the small clusters most tests build never get there, so their eras drain
// merged. widen_past_pool_crossover queues that many no-op events on the
// engine's nodes at the current time: the next run starts wide enough and
// the engine stays on the pool from then on. Queued the same way under
// every backend, the events change nothing but the event count.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"

namespace dacc::testing {

inline void widen_past_pool_crossover(sim::Engine& engine) {
  const auto nodes = static_cast<std::uint64_t>(engine.node_count());
  for (std::uint64_t i = 0; i < sim::Engine::kPoolCrossover; ++i) {
    engine.post(static_cast<std::int32_t>(i % nodes), engine.now(), [] {});
  }
}

/// The engine ran eras, and every one of them on the worker pool.
inline bool ran_all_eras_on_pool(const sim::Engine& engine) {
  const sim::Engine::ParallelStats& s = engine.parallel_stats();
  return s.windows > 0 && s.pool_eras == s.windows;
}

}  // namespace dacc::testing
