// Multi-chain ring workload on a raw sim::Engine: `chains` independent hop
// chains circulate a `nodes`-node ring, every hop a cross-node post subject
// to the pair's latency floor. The workload exercises exactly the machinery
// the asynchronous parallel backend adds — per-shard-pair lookahead, staged
// inboxes, horizon advancement — while staying trivially race-free: each
// chain's state is touched only from that chain's own events, each node's
// visit digest only from events on that node, and event delivery is the
// synchronization. The visit digest folds in the order in which chains
// reach a node, so an event run out of canonical order shows in the result
// even where the chains themselves would not notice.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/pool.hpp"
#include "sim/engine.hpp"

namespace dacc::testing {

struct RingOpts {
  sim::ExecBackend backend = sim::ExecBackend::kCoroutine;
  int shards = 0;  ///< parallel shard hint (0 = auto); ignored when serial
  int nodes = 8;
  int chains = 4;
  int hops = 64;            ///< events per chain
  /// Odd chains circulate the other way, so a node at a shard boundary
  /// interleaves arrivals from both neighbors' shards.
  bool both_ways = false;
  SimDuration step = 100;   ///< requested hop delta (the floor may clamp it)
  SimDuration lookahead = 1000;
  /// When > 0, register per-node-pair latency overrides with this default
  /// (the partitioner's short/long reference). Semantic in every backend.
  SimDuration override_default = 0;
  std::vector<sim::Engine::LatencyOverride> links;
  std::vector<int> shard_map;  ///< non-empty: explicit placement
  obs::Registry* metrics = nullptr;  ///< attached to the engine when set
  /// Queue widen_past_pool_crossover's no-op events before the run, so a
  /// parallel engine moves to its worker pool however few chains there are.
  bool widen = false;
};

struct RingResult {
  std::uint64_t events = 0;
  SimTime final_now = 0;
  std::vector<std::uint64_t> chain_hops;
  std::vector<SimTime> chain_last;  ///< arrival time of each chain's last hop
  std::vector<SimTime> chain_sum;   ///< sum of hop times (whole trajectory)
  std::vector<std::uint64_t> node_visits;  ///< per node: order-sensitive digest
  sim::Engine::ParallelStats pstats;

  /// Simulation-observable equality: everything except scheduling stats.
  bool same_simulation(const RingResult& o) const {
    return events == o.events && final_now == o.final_now &&
           chain_hops == o.chain_hops && chain_last == o.chain_last &&
           chain_sum == o.chain_sum && node_visits == o.node_visits;
  }
};

inline RingResult run_ring(const RingOpts& o) {
  sim::Engine engine(o.backend, o.shards);
  engine.set_node_count(o.nodes);
  engine.set_lookahead(o.lookahead);
  if (o.override_default > 0) {
    engine.set_lookahead_overrides(o.override_default, o.links);
  }
  if (!o.shard_map.empty()) engine.set_shard_map(o.shard_map);
  if (o.metrics != nullptr) engine.set_metrics(o.metrics);

  struct Chain {
    std::uint64_t hops = 0;
    SimTime last = 0;
    SimTime sum = 0;
  };
  std::vector<Chain> state(static_cast<std::size_t>(o.chains));
  std::vector<std::uint64_t> visits(static_cast<std::size_t>(o.nodes), 0);
  std::function<void(int, int)> hop = [&](int chain, int node) {
    std::uint64_t& v = visits[static_cast<std::size_t>(node)];
    v = (v ^ static_cast<std::uint64_t>(chain + 1)) * 0x100000001b3ULL +
        static_cast<std::uint64_t>(engine.now());
    Chain& c = state[static_cast<std::size_t>(chain)];
    ++c.hops;
    c.last = engine.now();
    c.sum += engine.now();
    if (c.hops < static_cast<std::uint64_t>(o.hops)) {
      const int next = o.both_ways && chain % 2 == 1
                           ? (node + o.nodes - 1) % o.nodes
                           : (node + 1) % o.nodes;
      engine.post(next, engine.now() + o.step,
                  [&hop, chain, next] { hop(chain, next); });
    }
  };
  for (int c = 0; c < o.chains; ++c) {
    const int start = static_cast<int>(
        (static_cast<std::int64_t>(c) * o.nodes) / o.chains);
    engine.post(start, 0, [&hop, c, start] { hop(c, start); });
  }
  if (o.widen) widen_past_pool_crossover(engine);
  engine.run();

  RingResult r;
  r.events = engine.events_executed();
  r.final_now = engine.now();
  for (const Chain& c : state) {
    r.chain_hops.push_back(c.hops);
    r.chain_last.push_back(c.last);
    r.chain_sum.push_back(c.sum);
  }
  r.node_visits = std::move(visits);
  r.pstats = engine.parallel_stats();
  return r;
}

}  // namespace dacc::testing
