// Puts a parallel-backend engine on its worker pool for a test. The engine
// moves there when a run reaches its first node-homed event with at least
// sim::Engine::kPoolCrossover node-homed events queued (DESIGN.md §5.2);
// the small clusters most tests build never get there, so they keep the
// serial loop and run no era. widen_past_pool_crossover queues that many
// no-op events on the engine's nodes at the current time: the next run
// starts wide enough and the engine stays on the pool from then on. Queued
// the same way under every backend, the events change nothing but the
// event count.
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

/// The engine ran eras. Only the worker pool runs them, so it ran there.
inline bool ran_all_eras_on_pool(const sim::Engine& engine) {
  return engine.parallel_stats().windows > 0;
}

}  // namespace dacc::testing
