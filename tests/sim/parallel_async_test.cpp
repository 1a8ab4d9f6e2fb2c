// Asynchronous parallel-backend scheduling (DESIGN.md §5.2): the serial
// loop when no safe horizon width exists (zero lookahead, or a
// zero-latency link crossing shards), topology-aware shard placement (the
// partitioner, explicit maps), and the era-count / exposed-parallelism
// guard for the 129-node cluster scenario, widened onto the worker pool —
// the tier-1 check that the band-gap eras actually shrink the number of
// serial synchronization points without costing determinism.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "common/ring.hpp"
#include "core/api.hpp"
#include "net/model_params.hpp"
#include "rt/cluster.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace dacc {
namespace {

using dacc::testing::RingOpts;
using dacc::testing::RingResult;
using dacc::testing::run_ring;

// ---------------------------------------------------------------------------
// No safe horizon width: concurrency is surrendered, never correctness
// ---------------------------------------------------------------------------

TEST(ParallelAsync, ZeroLookaheadFallsBackToMergedSerialOrder) {
  RingOpts o;
  o.nodes = 8;
  o.chains = 4;
  o.hops = 48;
  o.lookahead = 0;  // no conservative horizon exists
  o.backend = sim::ExecBackend::kCoroutine;
  const RingResult serial = run_ring(o);

  o.backend = sim::ExecBackend::kParallel;
  o.shards = 4;
  const RingResult par = run_ring(o);
  EXPECT_TRUE(par.same_simulation(serial));
  EXPECT_EQ(par.pstats.windows, 0u) << "no eras without a lookahead";
  EXPECT_EQ(par.pstats.merged_fallbacks, 1u);
  EXPECT_EQ(serial.pstats.merged_fallbacks, 0u);
}

TEST(ParallelAsync, PositiveLookaheadRunsWindowed) {
  // Four chains stay below the pool crossover: the engine keeps the serial
  // loop and runs no era. As many chains as the crossover move it to the
  // worker pool, which runs the eras.
  for (const int chains :
       {4, static_cast<int>(sim::Engine::kPoolCrossover)}) {
    SCOPED_TRACE("chains " + std::to_string(chains));
    RingOpts o;
    o.nodes = 8;
    o.chains = chains;
    o.hops = chains == 4 ? 48 : 6;
    o.backend = sim::ExecBackend::kCoroutine;
    const RingResult serial = run_ring(o);

    o.backend = sim::ExecBackend::kParallel;
    o.shards = 4;
    const RingResult par = run_ring(o);
    EXPECT_TRUE(par.same_simulation(serial));
    EXPECT_EQ(par.pstats.merged_fallbacks, 0u);
    if (chains == 4) {
      EXPECT_EQ(par.pstats.windows, 0u);
    } else {
      EXPECT_GT(par.pstats.windows, 0u);
      EXPECT_GT(par.pstats.parallel_events, 0u);
    }
  }
}

TEST(ParallelAsync, ZeroLatencyCrossShardLinkDegradesToMerged) {
  // One zero-latency link in an otherwise uniform topology. The override is
  // semantic (the 0->1 clamp floor drops to zero) and applies identically
  // in every backend; whether the engine can still run windowed depends
  // only on placement.
  RingOpts o;
  o.nodes = 4;
  o.chains = 2;
  o.hops = 40;
  o.lookahead = 1000;
  o.override_default = 1000;
  o.links = {{0, 1, 0}};
  o.backend = sim::ExecBackend::kCoroutine;
  const RingResult serial = run_ring(o);

  // Force the zero-latency pair onto different shards (the partitioner
  // would never do this): the pair's lookahead cell is zero, so no safe
  // horizon width exists and the run must keep the serial loop.
  o.backend = sim::ExecBackend::kParallel;
  o.shards = 2;
  o.shard_map = {0, 1, 0, 1};
  const RingResult split = run_ring(o);
  EXPECT_TRUE(split.same_simulation(serial));
  EXPECT_EQ(split.pstats.windows, 0u);
  EXPECT_EQ(split.pstats.merged_fallbacks, 1u);

  // Co-locate the pair: the zero-latency link becomes shard-internal, the
  // cross-shard minimum is back to the full lookahead, and a run widened
  // past the pool crossover runs eras again.
  o.widen = true;
  o.backend = sim::ExecBackend::kCoroutine;
  o.shard_map.clear();
  const RingResult serial_wide = run_ring(o);
  o.backend = sim::ExecBackend::kParallel;
  o.shard_map = {0, 0, 1, 1};
  const RingResult joined = run_ring(o);
  EXPECT_TRUE(joined.same_simulation(serial_wide));
  EXPECT_GT(joined.pstats.windows, 0u);
  EXPECT_EQ(joined.pstats.merged_fallbacks, 0u);
}

// ---------------------------------------------------------------------------
// Shard placement: partitioner, explicit map
// ---------------------------------------------------------------------------

TEST(ParallelAsync, TopologyPartitionerColocatesShortLinkPairs) {
  sim::Engine engine(sim::ExecBackend::kParallel, 4);
  engine.set_node_count(8);
  engine.set_lookahead(1200);
  engine.set_lookahead_overrides(1200, {{0, 5, 100}, {2, 6, 100}});
  // Short-linked pairs land on one shard; the load rebalancer still spreads
  // the remaining singletons so every shard carries two nodes.
  EXPECT_EQ(engine.shard_of(0), engine.shard_of(5));
  EXPECT_EQ(engine.shard_of(2), engine.shard_of(6));
  std::set<int> used;
  std::vector<int> load(4, 0);
  for (int n = 0; n < 8; ++n) {
    const int s = engine.shard_of(n);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    used.insert(s);
    ++load[static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(used.size(), 4u);
  for (const int l : load) EXPECT_EQ(l, 2);

  // And the partitioned placement is invisible in the results.
  RingOpts o;
  o.nodes = 8;
  o.chains = 4;
  o.hops = 48;
  o.lookahead = 1200;
  o.override_default = 1200;
  o.links = {{0, 5, 100}, {2, 6, 100}};
  o.backend = sim::ExecBackend::kCoroutine;
  const RingResult serial = run_ring(o);
  o.backend = sim::ExecBackend::kParallel;
  o.shards = 4;
  const RingResult par = run_ring(o);
  EXPECT_TRUE(par.same_simulation(serial));
}

TEST(ParallelAsync, ExplicitShardMapValidates) {
  sim::Engine engine(sim::ExecBackend::kParallel, 2);
  engine.set_node_count(4);
  EXPECT_THROW(engine.set_shard_map({0, 1}), sim::SimError);        // size
  EXPECT_THROW(engine.set_shard_map({0, 1, 2, 0}), sim::SimError);  // range
  engine.set_shard_map({1, 0, 1, 0});
  EXPECT_EQ(engine.shard_of(0), 1);
  EXPECT_EQ(engine.shard_of(3), 0);
}

TEST(ParallelAsync, LatencyOverridesValidate) {
  sim::Engine engine(sim::ExecBackend::kParallel, 2);
  engine.set_node_count(4);
  EXPECT_THROW(engine.set_lookahead_overrides(1200, {{0, 0, 100}}),
               sim::SimError);  // self link
  EXPECT_THROW(engine.set_lookahead_overrides(1200, {{-1, 2, 100}}),
               sim::SimError);  // bad node
}

// ---------------------------------------------------------------------------
// 129-node cluster guard: band-gap eras cut the serial synchronization
// count and expose real parallelism, at zero determinism cost
// ---------------------------------------------------------------------------

struct ChurnOut {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  SimTime final_now = 0;
  sim::Engine::ParallelStats pstats;
};

/// 64 CNs + 64 ACs + the ARM = 129 fabric nodes; every rank drives its
/// accelerator with async kernel bursts, so the per-node work is symmetric
/// and the lease churn crosses the whole fabric. The cluster starts below
/// the pool crossover, so it is widened past it under every backend: the
/// parallel engine then runs its eras on the worker pool.
ChurnOut run_cluster_churn(sim::ExecBackend backend, int shards,
                           SimDuration band_gap) {
  rt::ClusterConfig cc;
  cc.compute_nodes = 64;
  cc.accelerators = 64;
  cc.functional_gpus = false;  // phantom devices: timing only
  cc.sim_backend = backend;
  cc.sim_shards = shards;
  cc.sim_band_gap = band_gap;
  rt::Cluster cluster(cc);

  rt::JobSpec spec;
  spec.name = "churn";
  spec.ranks = 64;
  spec.accelerators_per_rank = 1;
  spec.body = [](rt::JobContext& job) {
    core::Accelerator& ac = job.session()[0];
    const std::int64_t n = 1024;
    const gpu::DevPtr p = ac.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    for (int b = 0; b < 8; ++b) {
      std::vector<core::Future> burst;
      burst.reserve(16);
      for (int i = 0; i < 16; ++i) {
        burst.push_back(ac.launch_async("dscal", {}, {n, 1.5, p}));
      }
      job.session().wait_all(burst);
    }
    ac.mem_free(p);
  };
  cluster.submit(spec);
  testing::widen_past_pool_crossover(cluster.engine());
  cluster.run();

  ChurnOut out;
  out.events = cluster.engine().events_executed();
  out.switches = cluster.engine().process_switches();
  out.final_now = cluster.engine().now();
  out.pstats = cluster.engine().parallel_stats();
  return out;
}

TEST(ParallelAsyncCluster, BandGapCutsWindowsAndExposesParallelism) {
  const SimDuration wire = net::FabricParams{}.wire_latency;

  // Baseline: eras one lookahead wide — the pre-async global-window
  // behavior, forced by pinning the band gap to the wire latency.
  const ChurnOut narrow =
      run_cluster_churn(sim::ExecBackend::kParallel, 16, wire);
  // Default: rt::Cluster auto-raises the band gap to 64x the wire latency,
  // so the shards run many lookaheads between global synchronizations.
  const ChurnOut wide = run_cluster_churn(sim::ExecBackend::kParallel, 16, 0);

  // Eras run only on the worker pool: both widened clusters ran there.
  ASSERT_GT(narrow.pstats.windows, 0u);
  ASSERT_GT(wide.pstats.windows, 0u);
  EXPECT_GT(narrow.pstats.windows, 5 * wide.pstats.windows)
      << "band-gap eras must cut the serial window count >5x";

  ASSERT_GT(wide.pstats.critical_path_events, 0u);
  const double exposed =
      static_cast<double>(wide.pstats.parallel_events) /
      static_cast<double>(wide.pstats.critical_path_events);
  EXPECT_GE(exposed, 7.0) << "exposed parallelism regressed below 7x";

  // Determinism is untouched: the serial replay with the same (default)
  // band gap agrees event for event.
  const ChurnOut serial = run_cluster_churn(sim::ExecBackend::kCoroutine, 0, 0);
  EXPECT_EQ(wide.events, serial.events);
  EXPECT_EQ(wide.switches, serial.switches);
  EXPECT_EQ(wide.final_now, serial.final_now);
}

}  // namespace
}  // namespace dacc
