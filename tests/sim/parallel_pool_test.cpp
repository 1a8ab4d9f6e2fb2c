// Which path the parallel backend takes (DESIGN.md §5.2): it runs the
// serial loop, with no era and no worker thread, until a run reaches its
// first node-homed event with at least Engine::kPoolCrossover of them
// queued; then it moves those events onto their shards and runs every era
// from there on on the worker pool. The path must never show in the
// results: the tests below hold the coroutine backend as the reference for
// every cluster size, worker count and shard count, including the whole
// metrics snapshot and the Chrome trace, for runs that are bounded with
// run_until, and for the records a failing pool run leaves. The per-shard
// era accounting in Engine::ParallelStats depends on the shard map alone.
// The wallclock profiler must book every thread a run occupies exactly
// once on either path, and a model's legality must not depend on the path.
//
// scripts/check_tsan.sh runs the ParallelPool tests with a four-worker
// pool: the 513-node cluster and the widened 129-node cluster keep real
// middleware on concurrent workers, the 4096-chain ring keeps the bare
// horizon protocol there, and the failing run replays its kept spans
// after an exception crossed the workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
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
#include "sim/trace.hpp"
#include "util/units.hpp"

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
  std::vector<std::uint64_t> wave_windows;  ///< eras each wave ran
  int workers = 0;
  std::string metrics;  ///< the whole snapshot, JSON
  std::string trace;    ///< Chrome trace JSON
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
  ChurnRun out;
  for (int w = 0; w < waves; ++w) {
    const std::uint64_t before = cluster.engine().parallel_stats().windows;
    cluster.submit(spec);
    if (w == widen_at) testing::widen_past_pool_crossover(cluster.engine());
    cluster.run();
    out.wave_windows.push_back(cluster.engine().parallel_stats().windows -
                               before);
  }

  out.events = cluster.engine().events_executed();
  out.switches = cluster.engine().process_switches();
  out.final_now = cluster.engine().now();
  out.pool = cluster.arm_stats();
  out.pstats = cluster.engine().parallel_stats();
  out.workers = cluster.engine().worker_count();
  if (observe) {
    out.metrics = cluster.metrics().json();
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

/// Sets the pool size the next engine starts when it moves to the pool,
/// for the scope of one run.
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
  EXPECT_EQ(par.pstats.windows, 0u)
      << "a 129-node cluster starts below the crossover and runs no era";
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
  EXPECT_EQ(par.workers, std::min(pool, 4));
  const ChurnRun serial =
      run_churn(sim::ExecBackend::kCoroutine, 0, 256, /*observe=*/false);
  EXPECT_EQ(par.events, serial.events);
  EXPECT_EQ(par.switches, serial.switches);
  EXPECT_EQ(par.final_now, serial.final_now);
  expect_same_pool(par.pool, serial.pool);
}

TEST(ParallelPool, MixedPathErasMatchTheCoroutineBackend) {
  // Two waves on a 129-node cluster: the first runs the serial loop and no
  // era, the second is widened past the crossover and runs every era on
  // the pool. Tracer and metrics records and ordering keys carry over from
  // one path to the other, and the queued events move onto the shards.
  //
  // The whole snapshot matches; the engine registers no series of its
  // own. Its per-shard era accounting (eras with and without events,
  // events, inbox events) depends on the shard map, never on the worker
  // count.
  const ChurnRun serial = run_churn(sim::ExecBackend::kCoroutine, 0, 64,
                                    /*observe=*/true, /*waves=*/2,
                                    /*widen_at=*/1);
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_FALSE(serial.trace.empty());
  EXPECT_EQ(serial.metrics.find("dacc_sim_"), std::string::npos);
  EXPECT_TRUE(serial.pstats.shards.empty());
  for (const int shards : {2, 4, 8}) {
    sim::Engine::ParallelStats pstats;
    for (const int workers : {1, 2, 4}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", workers " +
                   std::to_string(workers));
      ScopedWorkers scoped(workers);
      const ChurnRun par = run_churn(sim::ExecBackend::kParallel, shards, 64,
                                     /*observe=*/true, /*waves=*/2,
                                     /*widen_at=*/1);
      ASSERT_EQ(par.wave_windows.size(), 2u);
      EXPECT_EQ(par.wave_windows[0], 0u) << "the first wave runs no era";
      EXPECT_GT(par.wave_windows[1], 0u) << "the second runs on the pool";
      expect_same_simulation(par, serial);
      ASSERT_EQ(par.pstats.shards.size(), static_cast<std::size_t>(shards));
      std::uint64_t events = 0;
      for (const sim::Engine::ShardStats& s : par.pstats.shards) {
        EXPECT_EQ(s.windows + s.idle_windows, par.pstats.windows);
        events += s.events;
      }
      EXPECT_EQ(events, par.pstats.parallel_events);
      if (workers == 1) {
        pstats = par.pstats;
        continue;
      }
      EXPECT_EQ(par.pstats.windows, pstats.windows);
      EXPECT_EQ(par.pstats.parallel_events, pstats.parallel_events);
      EXPECT_EQ(par.pstats.critical_path_events, pstats.critical_path_events);
      EXPECT_EQ(par.pstats.shards, pstats.shards);
    }
  }
}

/// The per-shard era accounting a ring must report on the pool: every hop
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
  // crossover, so the engine keeps the serial loop, runs no era and
  // reports no shard. 4096 chains start far above it, so every era goes
  // to the pool: its ordering rests on the horizon protocol alone, and
  // the per-shard stats report exactly the hops each shard ran and
  // received. Both must match the serial run.
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
    const RingResult par = run_ring(o);
    EXPECT_TRUE(par.same_simulation(serial));
    if (chains == 64) {
      EXPECT_EQ(par.pstats.windows, 0u);
      EXPECT_TRUE(par.pstats.shards.empty());
      continue;
    }
    EXPECT_GT(par.pstats.windows, 0u);
    ASSERT_EQ(par.pstats.shards.size(), static_cast<std::size_t>(o.shards));
    const ShardTotals want = expected_ring_totals(o);
    for (int s = 0; s < o.shards; ++s) {
      const sim::Engine::ShardStats& got =
          par.pstats.shards[static_cast<std::size_t>(s)];
      EXPECT_EQ(got.events, want.events[static_cast<std::size_t>(s)])
          << "shard " << s;
      EXPECT_EQ(got.inbox_events, want.inbox[static_cast<std::size_t>(s)])
          << "shard " << s;
    }
  }
}

/// Runs a 4096-chain ring (`wide`, every era on the pool) or a 64-chain one
/// (the serial loop) twice on one engine with the profiler attached.
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
  if (wide) {
    EXPECT_GT(engine.parallel_stats().windows, 0u);
  } else {
    EXPECT_EQ(engine.parallel_stats().windows, 0u);
  }
  *workers = engine.worker_count();
}

TEST(ParallelPool, ProfilerBooksEveryThreadOnce) {
  // Every clock read closes the previous interval of the thread that made
  // it, and a run's budget is its wallclock times the threads it occupied,
  // so attributed and measured time agree to the nanosecond.
  ScopedWorkers scoped(std::max(2, sim::default_parallel_workers()));
  obs::Profiler serial_loop;
  int workers = 0;
  profile_ring(serial_loop, /*wide=*/false, &workers);
  EXPECT_EQ(workers, 1);
  EXPECT_GT(serial_loop.measured_ns(), 0u);
  EXPECT_EQ(serial_loop.attributed_ns(), serial_loop.measured_ns());
  EXPECT_EQ(serial_loop.coordinator_wait_ns(), 0u);

  obs::Profiler pool;
  profile_ring(pool, /*wide=*/true, &workers);
  ASSERT_GE(workers, 2);
  EXPECT_GT(pool.measured_ns(), 0u);
  EXPECT_EQ(pool.attributed_ns(), pool.measured_ns());
  EXPECT_GT(pool.coordinator_wait_ns(), 0u);
  for (int i = 0; i < workers; ++i) EXPECT_GT(pool.worker_wait_ns(i), 0u);
}

/// A 16-node ring of four hop chains plus a ticking process on every
/// node, either run to completion by one run() (`step` 0) or driven by
/// run_until in steps of `step`. It starts 20 node-homed events wide,
/// below the pool crossover; a global event at 5 us widens it past the
/// crossover, so a parallel engine moves to the pool inside a bounded run.
struct SteppedRing {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  SimTime final_now = 0;
  std::vector<std::uint64_t> visits;  ///< per node: order-sensitive digest
  std::uint64_t first_step_windows = 0;
  std::uint64_t windows = 0;
};

SteppedRing stepped_ring(sim::ExecBackend backend, SimDuration step) {
  constexpr int kNodes = 16;
  constexpr int kChains = 4;
  constexpr int kHops = 24;  // one per microsecond: the last lands at 23 us
  sim::Engine engine(backend, 4);
  engine.set_node_count(kNodes);
  engine.set_lookahead(1000);
  SteppedRing out;
  out.visits.assign(kNodes, 0);
  const auto visit = [&out](int node, SimTime t) {
    std::uint64_t& v = out.visits[static_cast<std::size_t>(node)];
    v = v * 0x100000001b3ULL + t;
  };
  std::function<void(int, int, int)> hop = [&](int chain, int node, int h) {
    visit(node, engine.now() + static_cast<SimTime>(chain));
    if (h + 1 == kHops) return;
    const int next = (node + 1) % kNodes;
    // Cross-node: the lookahead clamps the hop to exactly 1 us.
    engine.post(next, engine.now() + 10,
                [&hop, chain, next, h] { hop(chain, next, h + 1); });
  };
  for (int c = 0; c < kChains; ++c) {
    const int start = c * kNodes / kChains;
    engine.post(start, 0, [&hop, c, start] { hop(c, start, 0); });
  }
  for (int n = 0; n < kNodes; ++n) {
    engine.spawn_on(n, "tick", [&visit, n](sim::Context& ctx) {
      for (int i = 0; i < 8; ++i) {
        ctx.wait_for(2500);
        visit(n, ctx.now());
      }
    });
  }
  engine.schedule_at(5000, [&engine] {
    testing::widen_past_pool_crossover(engine);
  });
  if (step == 0) {
    engine.run();
  } else {
    SimTime until = step;
    bool more = engine.run_until(until);
    out.first_step_windows = engine.parallel_stats().windows;
    while (more) {
      until += step;
      more = engine.run_until(until);
    }
  }
  out.events = engine.events_executed();
  out.switches = engine.process_switches();
  out.final_now = engine.now();
  out.windows = engine.parallel_stats().windows;
  return out;
}

TEST(ParallelPool, BoundedRunsMoveToThePoolMidway) {
  const SteppedRing serial = stepped_ring(sim::ExecBackend::kCoroutine, 0);
  EXPECT_EQ(serial.final_now, 23'000u);
  EXPECT_GT(serial.switches, 0u);
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ScopedWorkers scoped(workers);
    const SteppedRing par =
        stepped_ring(sim::ExecBackend::kParallel, /*step=*/1000);
    EXPECT_EQ(par.first_step_windows, 0u) << "starts on the serial loop";
    EXPECT_GT(par.windows, 0u) << "ends on the pool";
    EXPECT_EQ(par.events, serial.events);
    EXPECT_EQ(par.switches, serial.switches);
    EXPECT_EQ(par.visits, serial.visits);
    EXPECT_EQ(par.final_now, serial.final_now);
  }
}

/// Eight nodes on four shards tick every microsecond and record two spans
/// per tick (two records in one event), so spans made on different shards
/// at one time interleave by the canonical key. A process on node 5
/// throws at kFailAt. Eras run a band gap of 4 us past their floor, so the
/// era that fails runs on to 8 us and the pool keeps spans from after the
/// failure before the run ends. Returns every span the tracer holds.
constexpr SimTime kFailAt = 5500;

std::vector<sim::Tracer::Span> failing_run_spans(sim::ExecBackend backend) {
  constexpr int kNodes = 8;
  sim::Tracer tracer;
  sim::Engine engine(backend, 4);
  engine.set_node_count(kNodes);
  engine.set_lookahead(1000);
  engine.set_band_gap(4000);
  engine.set_tracer(&tracer);
  for (int n = 0; n < kNodes; ++n) {
    engine.spawn_on(n, "tick", [&tracer, n](sim::Context& ctx) {
      const std::string track = "node-" + std::to_string(n);
      for (int i = 0; i < 30; ++i) {
        const SimTime begin = ctx.now();
        ctx.wait_for(1000);
        tracer.record(track, "tick-" + std::to_string(i), begin, ctx.now());
        tracer.record(track, "tock-" + std::to_string(i), begin, ctx.now());
      }
    });
  }
  engine.spawn_on(5, "fail", [](sim::Context& ctx) {
    ctx.wait_until(kFailAt);
    throw std::runtime_error("process body fails");
  });
  testing::widen_past_pool_crossover(engine);
  EXPECT_THROW(engine.run(), sim::SimError);
  if (backend == sim::ExecBackend::kParallel) {
    EXPECT_TRUE(testing::ran_all_eras_on_pool(engine));
  }
  return tracer.spans();
}

std::vector<std::string> spans_ending_before(
    const std::vector<sim::Tracer::Span>& spans, SimTime t) {
  std::vector<std::string> out;
  for (const sim::Tracer::Span& s : spans) {
    if (s.end >= t) continue;
    out.push_back(s.track + " " + s.name + " " + std::to_string(s.begin) +
                  "-" + std::to_string(s.end));
  }
  return out;
}

TEST(ParallelPool, FailedRunReplaysItsKeptRecordsInOrder) {
  // The pool keeps every span until its run ends, and a run that throws
  // ends too: the kept spans are applied in canonical order on the way
  // out, each once.
  ScopedWorkers scoped(std::max(2, sim::default_parallel_workers()));
  const std::vector<sim::Tracer::Span> serial =
      failing_run_spans(sim::ExecBackend::kCoroutine);
  const std::vector<sim::Tracer::Span> pool =
      failing_run_spans(sim::ExecBackend::kParallel);
  const std::vector<std::string> want = spans_ending_before(serial, kFailAt);
  ASSERT_EQ(want.size(), 80u) << "5 ticks on 8 nodes, two spans each";
  EXPECT_EQ(spans_ending_before(serial, kSimTimeNever), want);
  EXPECT_EQ(spans_ending_before(pool, kFailAt), want);
  EXPECT_GT(pool.size(), serial.size()) << "the failing era ran past it";
  const std::vector<std::string> all = spans_ending_before(pool, kSimTimeNever);
  EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(), all.size())
      << "a span was applied twice";
}

TEST(ParallelPool, NodeContextWakingANodelessProcessIsRefusedOnBothPaths) {
  // A node-homed event wakes a process homed on no node. A windowed run
  // refuses it below the crossover as on the pool, so a model's legality
  // never depends on how wide it runs; without a lookahead the serial loop
  // delivers it.
  for (const SimDuration lookahead : {SimDuration{1000}, SimDuration{0}}) {
    for (const bool wide : {false, true}) {
      SCOPED_TRACE("lookahead " + std::to_string(lookahead) +
                   (wide ? ", widened" : ", narrow"));
      sim::Engine engine(sim::ExecBackend::kParallel, 4);
      engine.set_node_count(8);
      engine.set_lookahead(lookahead);
      sim::Process& sleeper =
          engine.spawn_on(sim::kGlobalNode, "sleeper",
                          [](sim::Context& ctx) { ctx.suspend(); });
      engine.post(3, 5000, [&engine, &sleeper] { engine.wake(sleeper); });
      if (wide) testing::widen_past_pool_crossover(engine);
      if (lookahead == 0) {
        engine.run();
        EXPECT_TRUE(sleeper.finished());
        EXPECT_EQ(engine.parallel_stats().windows, 0u);
      } else {
        EXPECT_THROW(engine.run(), sim::SimError);
        // The widened run got to the pool: its first era ran before the
        // wake's.
        EXPECT_EQ(engine.parallel_stats().windows > 0, wide);
      }
    }
  }
}

TEST(ParallelPool, PromotedEngineWithoutAHorizonThrows) {
  sim::Engine engine(sim::ExecBackend::kParallel, 4);
  engine.set_node_count(8);
  engine.set_lookahead(1000);
  testing::widen_past_pool_crossover(engine);
  engine.run();
  ASSERT_GT(engine.parallel_stats().windows, 0u);
  // The shards hold the node events now; there is no serial order to fall
  // back to.
  engine.set_lookahead(0);
  engine.post(1, engine.now() + 10, [] {});
  EXPECT_THROW(engine.run(), sim::SimError);
  EXPECT_THROW((void)engine.run_until(engine.now() + 100), sim::SimError);
  EXPECT_EQ(engine.parallel_stats().merged_fallbacks, 0u);
}

}  // namespace
}  // namespace dacc
