// Which path the parallel backend's eras take (DESIGN.md §5.2): they drain
// merged on the calling thread, and no worker thread exists, until a run's
// first era finds at least Engine::kPoolCrossover events queued on the
// shards; from that run on every era goes to the worker pool. The path
// must never show in the results: the tests below hold the coroutine
// backend as the reference for every cluster size, worker count and shard
// count, including the metrics snapshot, the per-shard era series and the
// Chrome trace. The wallclock profiler must book every thread a run
// occupies exactly once on either path.
//
// scripts/check_tsan.sh runs the ParallelPool tests with a four-worker
// pool: the 513-node cluster and the widened 129-node cluster keep real
// middleware on concurrent workers, the 4096-chain ring keeps the bare
// horizon protocol there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "common/ring.hpp"
#include "core/api.hpp"
#include "core/link.hpp"
#include "mdsim/mp2c.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rt/cluster.hpp"
#include "sim/engine.hpp"

namespace dacc {
namespace {

using dacc::testing::RingOpts;
using dacc::testing::RingResult;
using dacc::testing::run_ring;

struct ChurnRun {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  SimTime final_now = 0;
  arm::PoolStats pool;
  sim::Engine::ParallelStats pstats;
  int workers = 0;
  std::string metrics;       ///< snapshot without the shard series
  std::string shard_series;  ///< dacc_sim_shard_* only
  std::string trace;         ///< Chrome trace JSON
};

/// `waves` waves of a `ranks`-rank MP2C job on `ranks` CNs + `ranks` ACs +
/// the ARM (2 * ranks + 1 fabric nodes), as in bench/wallclock_engine's
/// cluster scenario. The first run starts about `ranks` events wide: 129
/// nodes stay below the pool crossover, 513 nodes cross it. `widen_at`
/// (a wave index, or -1) widens the cluster past the crossover before that
/// wave under every backend, so the parallel engine moves to the pool there.
ChurnRun run_churn(sim::ExecBackend backend, int shards, int ranks,
                   bool observe, int waves = 1, int widen_at = -1) {
  auto registry = gpu::KernelRegistry::with_builtins();
  mdsim::register_mdsim_kernels(*registry);
  rt::ClusterConfig cc;
  cc.compute_nodes = ranks;
  cc.accelerators = ranks;
  cc.functional_gpus = false;
  cc.registry = registry;
  cc.sim_backend = backend;
  cc.sim_shards = shards;
  cc.metrics = observe;
  cc.trace = observe;
  rt::Cluster cluster(cc);

  rt::JobSpec spec;
  spec.name = "mp2c";
  spec.ranks = ranks;
  spec.accelerators_per_rank = 1;
  spec.body = [](rt::JobContext& job) {
    core::RemoteDeviceLink gpu(job.session()[0], job.ctx());
    mdsim::SrdParams srd;
    srd.steps = 5;
    (void)mdsim::run_mp2c(
        job, &gpu, 20'000u * static_cast<std::uint64_t>(job.size()), srd);
  };
  for (int w = 0; w < waves; ++w) {
    cluster.submit(spec);
    if (w == widen_at) testing::widen_past_pool_crossover(cluster.engine());
    cluster.run();
  }

  ChurnRun out;
  out.events = cluster.engine().events_executed();
  out.switches = cluster.engine().process_switches();
  out.final_now = cluster.engine().now();
  out.pool = cluster.arm_stats();
  out.pstats = cluster.engine().parallel_stats();
  out.workers = cluster.engine().worker_count();
  if (observe) {
    std::ostringstream m;
    cluster.metrics().write_json(m, obs::Registry::kShardSeriesPrefix,
                                 /*include=*/false);
    out.metrics = m.str();
    std::ostringstream s;
    cluster.metrics().write_prometheus(s, obs::Registry::kShardSeriesPrefix,
                                       /*include=*/true);
    out.shard_series = s.str();
    std::ostringstream t;
    cluster.tracer().write_chrome_json(t);
    out.trace = t.str();
  }
  return out;
}

void expect_same_pool(const arm::PoolStats& a, const arm::PoolStats& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.free, b.free);
  EXPECT_EQ(a.assigned, b.assigned);
  EXPECT_EQ(a.broken, b.broken);
  EXPECT_EQ(a.acquisitions, b.acquisitions);
  EXPECT_EQ(a.queued_requests, b.queued_requests);
  EXPECT_EQ(a.heartbeats, b.heartbeats);
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_EQ(a.replacements, b.replacements);
  EXPECT_EQ(a.preemptions, b.preemptions);
}

void expect_same_simulation(const ChurnRun& a, const ChurnRun& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.final_now, b.final_now);
  expect_same_pool(a.pool, b.pool);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
}

/// Sets the pool size the next engine's first pool era starts, for the
/// scope of one run.
class ScopedWorkers {
 public:
  explicit ScopedWorkers(int n) {
    if (const char* v = std::getenv(kVar)) saved_ = v;
    setenv(kVar, std::to_string(n).c_str(), 1);
  }
  ~ScopedWorkers() {
    if (saved_.empty()) {
      unsetenv(kVar);
    } else {
      setenv(kVar, saved_.c_str(), 1);
    }
  }
  ScopedWorkers(const ScopedWorkers&) = delete;
  ScopedWorkers& operator=(const ScopedWorkers&) = delete;

 private:
  static constexpr const char* kVar = "DACC_SIM_PARALLEL_WORKERS";
  std::string saved_;
};

TEST(ParallelPool, SmallClusterNeverStartsThePool) {
  ScopedWorkers workers(3);
  const ChurnRun par =
      run_churn(sim::ExecBackend::kParallel, 3, 64, /*observe=*/false);
  EXPECT_GT(par.pstats.windows, 0u);
  EXPECT_EQ(par.pstats.pool_eras, 0u)
      << "a 129-node cluster starts below the crossover";
  EXPECT_EQ(par.workers, 1) << "no worker thread may start";
  const ChurnRun serial =
      run_churn(sim::ExecBackend::kCoroutine, 0, 64, /*observe=*/false);
  EXPECT_EQ(par.events, serial.events);
  EXPECT_EQ(par.switches, serial.switches);
  EXPECT_EQ(par.final_now, serial.final_now);
  expect_same_pool(par.pool, serial.pool);
}

TEST(ParallelPool, MiddlewareRunsOnWorkersAboveTheCrossover) {
  // Four shards on the pool size the environment asks for (at least two,
  // so the pool eras cross OS threads).
  const int pool = std::max(2, sim::default_parallel_workers());
  ScopedWorkers workers(pool);
  const ChurnRun par =
      run_churn(sim::ExecBackend::kParallel, 4, 256, /*observe=*/false);
  EXPECT_GT(par.pstats.windows, 0u);
  EXPECT_EQ(par.pstats.pool_eras, par.pstats.windows);
  EXPECT_EQ(par.workers, std::min(pool, 4));
  const ChurnRun serial =
      run_churn(sim::ExecBackend::kCoroutine, 0, 256, /*observe=*/false);
  EXPECT_EQ(par.events, serial.events);
  EXPECT_EQ(par.switches, serial.switches);
  EXPECT_EQ(par.final_now, serial.final_now);
  expect_same_pool(par.pool, serial.pool);
}

TEST(ParallelPool, MixedPathErasMatchTheCoroutineBackend) {
  // Two waves on a 129-node cluster: the first drains merged, the second
  // is widened past the crossover and runs on the pool. Tracer and
  // metrics buffers, shard counters and ordering keys carry over from one
  // path to the other.
  const ChurnRun serial = run_churn(sim::ExecBackend::kCoroutine, 0, 64,
                                    /*observe=*/true, /*waves=*/2,
                                    /*widen_at=*/1);
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_FALSE(serial.trace.empty());
  for (const int shards : {2, 4, 8}) {
    std::string shard_series;
    sim::Engine::ParallelStats pstats;
    for (const int workers : {1, 2, 4}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", workers " +
                   std::to_string(workers));
      ScopedWorkers scoped(workers);
      const ChurnRun par = run_churn(sim::ExecBackend::kParallel, shards, 64,
                                     /*observe=*/true, /*waves=*/2,
                                     /*widen_at=*/1);
      EXPECT_GT(par.pstats.pool_eras, 0u);
      EXPECT_LT(par.pstats.pool_eras, par.pstats.windows)
          << "the scenario must take both paths";
      expect_same_simulation(par, serial);
      // The era accounting and the per-shard series depend on the shard
      // map, never on the worker count.
      ASSERT_FALSE(par.shard_series.empty());
      if (workers == 1) {
        shard_series = par.shard_series;
        pstats = par.pstats;
      } else {
        EXPECT_EQ(par.shard_series, shard_series);
        EXPECT_EQ(par.pstats.windows, pstats.windows);
        EXPECT_EQ(par.pstats.pool_eras, pstats.pool_eras);
        EXPECT_EQ(par.pstats.parallel_events, pstats.parallel_events);
        EXPECT_EQ(par.pstats.critical_path_events,
                  pstats.critical_path_events);
      }
    }
  }
}

/// The per-shard era series a ring must report on any path: every hop
/// runs on its node's shard, and every hop posted across a shard boundary
/// reaches its target through the inbox. The first hops are posted from
/// the global context and cross nothing.
struct ShardTotals {
  std::vector<std::uint64_t> events;
  std::vector<std::uint64_t> inbox;
};

ShardTotals expected_ring_totals(const RingOpts& o) {
  sim::Engine layout(sim::ExecBackend::kParallel, o.shards);
  layout.set_node_count(o.nodes);
  ShardTotals t;
  t.events.assign(static_cast<std::size_t>(o.shards), 0);
  t.inbox.assign(static_cast<std::size_t>(o.shards), 0);
  for (int c = 0; c < o.chains; ++c) {
    int node = static_cast<int>((static_cast<std::int64_t>(c) * o.nodes) /
                                o.chains);
    for (int h = 0; h < o.hops; ++h) {
      const int shard = layout.shard_of(node);
      ++t.events[static_cast<std::size_t>(shard)];
      const int next = (node + 1) % o.nodes;
      if (h + 1 < o.hops && layout.shard_of(next) != shard) {
        ++t.inbox[static_cast<std::size_t>(layout.shard_of(next))];
      }
      node = next;
    }
  }
  return t;
}

TEST(ParallelPool, RingsMatchSerialOnBothPaths) {
  // 64 chains on a 10k-node ring start 64 events wide, below the
  // crossover, so every era drains merged. 4096 chains start far above it,
  // so every era goes to the pool: its ordering rests on the horizon
  // protocol alone. Both must match the serial run and report exactly the
  // hops each shard ran and received.
  for (const int chains : {64, 4096}) {
    SCOPED_TRACE("chains " + std::to_string(chains));
    RingOpts o;
    o.nodes = 10'000;
    o.chains = chains;
    o.hops = 8;
    o.step = 50;
    o.lookahead = 1000;
    o.backend = sim::ExecBackend::kCoroutine;
    const RingResult serial = run_ring(o);

    o.backend = sim::ExecBackend::kParallel;
    o.shards = 16;
    obs::Registry registry;
    o.metrics = &registry;
    const RingResult par = run_ring(o);
    EXPECT_TRUE(par.same_simulation(serial));
    EXPECT_GT(par.pstats.windows, 0u);
    EXPECT_EQ(par.pstats.pool_eras, chains == 64 ? 0u : par.pstats.windows);
    const ShardTotals want = expected_ring_totals(o);
    for (int s = 0; s < o.shards; ++s) {
      const std::string id = "{shard=\"" + std::to_string(s) + "\"}";
      EXPECT_EQ(registry.counter_value("dacc_sim_shard_events_total" + id),
                want.events[static_cast<std::size_t>(s)])
          << "shard " << s;
      EXPECT_EQ(
          registry.counter_value("dacc_sim_shard_inbox_events_total" + id),
          want.inbox[static_cast<std::size_t>(s)])
          << "shard " << s;
    }
  }
}

/// Runs a 4096-chain ring (`wide`, every era on the pool) or a 64-chain one
/// (merged) twice on one engine with the profiler attached.
void profile_ring(obs::Profiler& prof, bool wide, int* workers) {
  sim::Engine engine(sim::ExecBackend::kParallel, 16);
  engine.set_node_count(10'000);
  engine.set_lookahead(1000);
  engine.set_wall_profiler(&prof);
  const int chains = wide ? 4096 : 64;
  for (int run = 0; run < 2; ++run) {
    for (int c = 0; c < chains; ++c) {
      const int node = static_cast<int>((static_cast<std::int64_t>(c) *
                                         10'000) / chains);
      engine.post(node, engine.now(), [&engine, node] {
        const int next = (node + 1) % 10'000;
        engine.post(next, engine.now() + 50, [] {});
      });
    }
    engine.run();
  }
  EXPECT_EQ(engine.parallel_stats().pool_eras,
            wide ? engine.parallel_stats().windows : 0u);
  *workers = engine.worker_count();
}

TEST(ParallelPool, ProfilerBooksEveryThreadOnce) {
  // Every clock read closes the previous interval of the thread that made
  // it, and a run's budget is its wallclock times the threads it occupied,
  // so attributed and measured time agree to the nanosecond.
  ScopedWorkers scoped(std::max(2, sim::default_parallel_workers()));
  obs::Profiler merged;
  int workers = 0;
  profile_ring(merged, /*wide=*/false, &workers);
  EXPECT_EQ(workers, 1);
  EXPECT_GT(merged.measured_ns(), 0u);
  EXPECT_EQ(merged.attributed_ns(), merged.measured_ns());
  EXPECT_EQ(merged.coordinator_wait_ns(), 0u);

  obs::Profiler pool;
  profile_ring(pool, /*wide=*/true, &workers);
  ASSERT_GE(workers, 2);
  EXPECT_GT(pool.measured_ns(), 0u);
  EXPECT_EQ(pool.attributed_ns(), pool.measured_ns());
  EXPECT_GT(pool.coordinator_wait_ns(), 0u);
  for (int i = 0; i < workers; ++i) EXPECT_GT(pool.worker_wait_ns(i), 0u);
}

}  // namespace
}  // namespace dacc
