// 10k-node scaling scenario for the asynchronous parallel backend: a
// fabric two orders of magnitude past the paper's cluster, driven as a
// multi-chain ring so every hop crosses shards through the staged inboxes
// and horizon clocks. Every ring starts thousands of chains, far above the
// engine's pool crossover, so all of its eras run on the worker pool (the
// tests assert it); few hops keep it fast under ThreadSanitizer —
// scripts/check_tsan.sh runs this suite (ctest -R ParallelScale) with a
// real multi-thread worker pool, which is the proof vehicle for the
// lock-free horizon protocol.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/ring.hpp"
#include "sim/engine.hpp"

namespace dacc {
namespace {

using dacc::testing::RingOpts;
using dacc::testing::RingResult;
using dacc::testing::run_ring;

/// A parallel ring ran eras, so it ran on the worker pool (the only place
/// eras run).
void expect_ran_on_pool(const RingResult& r) {
  EXPECT_GT(r.pstats.windows, 0u);
}

TEST(ParallelScale, TenThousandNodeRingIsBitIdenticalToSerial) {
  RingOpts o;
  o.nodes = 10'000;
  o.chains = 4096;
  o.hops = 4;  // 16384 hop events: TSan-sized, every one cross-node
  o.step = 50;
  o.lookahead = 1000;
  o.backend = sim::ExecBackend::kCoroutine;
  const RingResult serial = run_ring(o);

  o.backend = sim::ExecBackend::kParallel;
  o.shards = 16;
  const RingResult par = run_ring(o);
  EXPECT_TRUE(par.same_simulation(serial));
  expect_ran_on_pool(par);
  EXPECT_EQ(par.pstats.merged_fallbacks, 0u);
  EXPECT_EQ(par.events, 4096u * 4u);
}

TEST(ParallelScale, ShardCountInvariantAtTenThousandNodes) {
  RingOpts o;
  o.nodes = 10'000;
  o.chains = 4096;
  o.hops = 4;
  o.step = 50;
  o.lookahead = 1000;
  o.backend = sim::ExecBackend::kParallel;
  o.shards = 1;  // the horizon protocol inline on one thread
  const RingResult one = run_ring(o);
  expect_ran_on_pool(one);
  for (const int shards : {4, 16, 64}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    o.shards = shards;
    const RingResult s = run_ring(o);
    EXPECT_TRUE(s.same_simulation(one));
    expect_ran_on_pool(s);
  }
}

TEST(ParallelScale, PartitionedRingKeepsNeighborsColocated) {
  // Make every ring edge a short link: the partitioner folds the whole
  // ring into one union-find group and splits it into contiguous chunks,
  // so almost every hop is shard-internal. The shard-pair lookahead matrix
  // is non-uniform (short between neighboring chunks, long elsewhere), and
  // the horizon protocol must respect it at every shard count.
  const int nodes = 1000;
  RingOpts o;
  o.nodes = nodes;
  o.chains = 1000;
  o.hops = 8;
  o.both_ways = true;
  o.lookahead = 1200;
  o.override_default = 1200;
  for (int i = 0; i < nodes; ++i) {
    o.links.push_back({i, (i + 1) % nodes, 100});
  }
  o.backend = sim::ExecBackend::kCoroutine;
  const RingResult serial = run_ring(o);

  o.backend = sim::ExecBackend::kParallel;
  for (const int shards : {1, 4, 16, 64}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    o.shards = shards;
    const RingResult par = run_ring(o);
    EXPECT_TRUE(par.same_simulation(serial));
    expect_ran_on_pool(par);
  }

  // Contiguity check on the actual placement: at most one shard change per
  // chunk boundary (15 internal splits + the wrap).
  sim::Engine engine(sim::ExecBackend::kParallel, 16);
  engine.set_node_count(nodes);
  engine.set_lookahead(o.lookahead);
  engine.set_lookahead_overrides(o.override_default, o.links);
  int breaks = 0;
  for (int i = 0; i < nodes; ++i) {
    if (engine.shard_of(i) != engine.shard_of((i + 1) % nodes)) ++breaks;
  }
  EXPECT_LE(breaks, 16);
}

}  // namespace
}  // namespace dacc
