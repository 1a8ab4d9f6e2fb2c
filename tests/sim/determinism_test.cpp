// Cross-backend determinism contract (sim/exec.hpp): the coroutine and
// parallel execution backends must produce bit-identical simulations —
// same event count, same final clock, same trace span sequence, same
// numerical results — every backend must reproduce itself exactly across
// runs, and the parallel backend must be invariant in its shard count.
//
// The workload deliberately mixes everything that exercises event ordering:
// a functional QR factorization on network-attached GPUs (bulk pipelined
// transfers + kernel streams), an MP2C fluid mini-run over two ranks
// (halo exchange, migration, collective reductions), and fault injection
// mid-transfer (error unwinding through the wire protocol).
//
// These clusters are small, so on the parallel backend they keep the
// serial loop and run no era unless a test widens them past the pool
// crossover (tests/common/pool.hpp); the tests that do run the same
// middleware on the worker pool under the horizon protocol and assert
// that eras ran there.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "core/api.hpp"
#include "la/factorizations.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "mdsim/mp2c.hpp"
#include "rt/cluster.hpp"
#include "sim/exec.hpp"
#include "util/units.hpp"

namespace dacc {
namespace {

struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  SimTime final_now = 0;
  SimDuration qr_time = 0;
  double qr_gflops = 0.0;
  SimDuration mp2c_elapsed = 0;
  double mp2c_ke = 0.0;
  double mp2c_px = 0.0;
  std::uint64_t mp2c_particles0 = 0;
  std::uint64_t mp2c_migrated0 = 0;
  bool fault_seen = false;
  std::vector<std::string> spans;
  // Recovery phase (heartbeats, revocation, transparent replacement).
  SimTime rec_final_now = 0;
  SimTime rec_replaced_at = 0;
  std::uint64_t rec_events = 0;
  std::uint64_t rec_heartbeats = 0;
  std::uint32_t rec_revocations = 0;
  std::uint32_t rec_replacements = 0;
  double rec_checksum = 0.0;
  // Batched command-stream phase (rpc kBatch frames on the wire).
  SimTime bat_final_now = 0;
  std::uint64_t bat_events = 0;
  std::uint64_t bat_msgs = 0;
  std::uint64_t bat_ops = 0;
  std::uint64_t bat_flushes = 0;
  double bat_checksum = 0.0;
  // Scheduling, not simulation: the eras each cluster's engine ran, all of
  // them on the worker pool.
  std::vector<std::uint64_t> eras;
};

void record_eras(Fingerprint& fp, const sim::Engine& engine) {
  fp.eras.push_back(engine.parallel_stats().windows);
}

/// Every cluster of a parallel run moved to the worker pool and ran eras
/// there.
void expect_ran_on_pool(const Fingerprint& fp) {
  ASSERT_EQ(fp.eras.size(), 3u);
  for (const std::uint64_t windows : fp.eras) EXPECT_GT(windows, 0u);
}

/// `pool`: widen every cluster past the pool crossover before its first
/// run (under every backend, so the simulations stay comparable).
Fingerprint run_mixed(sim::ExecBackend backend, int shards = 0,
                      bool pool = false) {
  auto registry = la::la_registry();
  mdsim::register_mdsim_kernels(*registry);

  rt::ClusterConfig config;
  config.compute_nodes = 3;
  config.accelerators = 3;
  config.functional_gpus = true;
  config.trace = true;
  config.registry = registry;
  config.sim_backend = backend;
  config.sim_shards = shards;
  rt::Cluster cluster(config);

  Fingerprint fp;

  // Phase 1: QR and MP2C run concurrently, contending for the fabric.
  la::FactorResult qr;
  rt::JobSpec qr_job;
  qr_job.name = "qr";
  qr_job.accelerators_per_rank = 1;
  qr_job.body = [&](rt::JobContext& job) {
    core::RemoteDeviceLink gpu(job.session()[0], job.ctx());
    std::vector<core::DeviceLink*> gpus{&gpu};
    la::HostMatrix a(96, 96, /*functional=*/true);
    qr = la::dgeqrf_hybrid(job.ctx(), gpus, a, /*nb=*/32);
  };
  cluster.submit(qr_job, /*first_cn=*/0);

  std::array<mdsim::Mp2cResult, 2> mp2c;
  rt::JobSpec mp2c_job;
  mp2c_job.name = "mp2c";
  mp2c_job.ranks = 2;
  mp2c_job.accelerators_per_rank = 1;
  mp2c_job.body = [&](rt::JobContext& job) {
    core::RemoteDeviceLink gpu(job.session()[0], job.ctx());
    mdsim::SrdParams srd;
    srd.steps = 6;
    mp2c[static_cast<std::size_t>(job.rank())] =
        mdsim::run_mp2c(job, &gpu, /*total_particles=*/2000, srd);
  };
  cluster.submit(mp2c_job, /*first_cn=*/1);
  if (pool) testing::widen_past_pool_crossover(cluster.engine());
  cluster.run();

  // Phase 2: fault injection — the leased accelerator breaks mid-D2H and
  // the error must unwind cleanly through the middleware.
  rt::JobSpec fault_job;
  fault_job.name = "fault";
  fault_job.accelerators_per_rank = 1;
  fault_job.body = [&](rt::JobContext& job) {
    core::Accelerator& ac = job.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(64_MiB);
    for (int i = 0; i < 3; ++i) {
      job.cluster().break_accelerator(i, job.ctx().now() + 5_ms);
    }
    try {
      (void)ac.memcpy_d2h(p, 64_MiB);
    } catch (const core::AcError&) {
      fp.fault_seen = true;
    }
  };
  cluster.submit(fault_job, /*first_cn=*/2);
  cluster.run();

  fp.events = cluster.engine().events_executed();
  fp.switches = cluster.engine().process_switches();
  fp.final_now = cluster.engine().now();
  record_eras(fp, cluster.engine());
  fp.qr_time = qr.factor_time;
  fp.qr_gflops = qr.gflops;
  fp.mp2c_elapsed = mp2c[0].elapsed;
  fp.mp2c_ke = mp2c[0].kinetic_energy;
  fp.mp2c_px = mp2c[0].momentum[0];
  fp.mp2c_particles0 = mp2c[0].local_particles;
  fp.mp2c_migrated0 = mp2c[0].migrated_out;
  fp.spans.reserve(cluster.tracer().spans().size());
  for (const auto& s : cluster.tracer().spans()) {
    std::ostringstream os;
    os << s.track << '|' << s.name << '|' << s.begin << '|' << s.end;
    fp.spans.push_back(os.str());
  }

  // Phase 3: failure recovery on a fresh cluster — heartbeat-driven
  // revocation plus transparent replacement must replay identically under
  // either backend (timer events from pacers, sweeps, timeouts and the
  // retry/backoff ladder all interleave here).
  rt::ClusterConfig rec_config;
  rec_config.compute_nodes = 1;
  rec_config.accelerators = 2;
  rec_config.functional_gpus = true;
  rec_config.sim_backend = backend;
  rec_config.heartbeat.enabled = true;
  rec_config.heartbeat.period = 1_ms;
  rec_config.heartbeat.miss_threshold = 3;
  rec_config.retry.request_timeout = 5_ms;
  rec_config.retry.replace_on_failure = true;
  rec_config.sim_shards = shards;
  rt::Cluster rec(rec_config);
  rt::JobSpec rec_job;
  rec_job.name = "recovery";
  rec_job.body = [&](rt::JobContext& job) {
    auto accs = job.session().acquire(1);
    core::Accelerator& ac = *accs[0];
    const std::int64_t n = 4096;
    const gpu::DevPtr p = ac.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    ac.launch("fill_f64", {}, {p, n, 1.5});
    job.cluster().fail_accelerator_link(0, job.ctx().now());
    job.ctx().wait_for(10_ms);  // let the sweep revoke and notify
    ac.launch("dscal", {}, {n, 2.0, p});  // consumed notice -> replacement
    fp.rec_replaced_at = job.ctx().now();
    const util::Buffer out =
        ac.memcpy_d2h(p, static_cast<std::uint64_t>(n) * 8);
    for (const double v : out.as<double>()) fp.rec_checksum += v;
    ac.mem_free(p);
  };
  rec.submit(rec_job);
  if (pool) testing::widen_past_pool_crossover(rec.engine());
  rec.run();
  fp.rec_final_now = rec.engine().now();
  fp.rec_events = rec.engine().events_executed();
  record_eras(fp, rec.engine());
  const arm::PoolStats rec_stats = rec.arm_stats();
  fp.rec_heartbeats = rec_stats.heartbeats;
  fp.rec_revocations = rec_stats.revocations;
  fp.rec_replacements = rec_stats.replacements;

  // Phase 4: batched command streams. An async launch burst coalesces into
  // kBatch frames; the frame boundaries (visible as flush counts and message
  // totals) and the simulated results must be bit-identical across backends
  // and shard counts.
  rt::ClusterConfig bat_config;
  bat_config.compute_nodes = 1;
  bat_config.accelerators = 1;
  bat_config.functional_gpus = true;
  bat_config.metrics = true;
  bat_config.sim_backend = backend;
  bat_config.sim_shards = shards;
  bat_config.batch = {/*enabled=*/true, /*watermark=*/8};
  rt::Cluster bat(bat_config);
  rt::JobSpec bat_job;
  bat_job.name = "batched";
  bat_job.accelerators_per_rank = 1;
  bat_job.body = [&](rt::JobContext& job) {
    core::Accelerator& ac = job.session()[0];
    const std::int64_t n = 256;
    const auto bytes = static_cast<std::uint64_t>(n) * 8;
    const gpu::DevPtr p = ac.mem_alloc(bytes);
    ac.launch("fill_f64", {}, {p, n, 1.0});
    std::vector<core::Future> burst;
    for (int i = 0; i < 20; ++i) {
      burst.push_back(ac.launch_async("dscal", {}, {n, 1.0 + 0.05 * i, p}));
    }
    job.session().wait_all(burst);
    const util::Buffer out = ac.memcpy_d2h(p, bytes);
    for (const double v : out.as<double>()) fp.bat_checksum += v;
    ac.mem_free(p);
  };
  bat.submit(bat_job);
  if (pool) testing::widen_past_pool_crossover(bat.engine());
  bat.run();
  fp.bat_final_now = bat.engine().now();
  fp.bat_events = bat.engine().events_executed();
  record_eras(fp, bat.engine());
  const std::string chan =
      "{chan=\"fe-r" + std::to_string(bat.cn_rank(0)) + "\"}";
  fp.bat_msgs = bat.metrics().counter_value("dacc_rpc_msgs_total" + chan);
  fp.bat_ops = bat.metrics().counter_value("dacc_rpc_ops_total" + chan);
  fp.bat_flushes = bat.metrics().histogram_count("dacc_rpc_batch_size" + chan);
  return fp;
}

void expect_identical(const Fingerprint& a, const Fingerprint& b,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.qr_time, b.qr_time);
  EXPECT_EQ(a.qr_gflops, b.qr_gflops);  // bit-identical, not approximate
  EXPECT_EQ(a.mp2c_elapsed, b.mp2c_elapsed);
  EXPECT_EQ(a.mp2c_ke, b.mp2c_ke);
  EXPECT_EQ(a.mp2c_px, b.mp2c_px);
  EXPECT_EQ(a.mp2c_particles0, b.mp2c_particles0);
  EXPECT_EQ(a.mp2c_migrated0, b.mp2c_migrated0);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.rec_final_now, b.rec_final_now);
  EXPECT_EQ(a.rec_replaced_at, b.rec_replaced_at);
  EXPECT_EQ(a.rec_events, b.rec_events);
  EXPECT_EQ(a.rec_heartbeats, b.rec_heartbeats);
  EXPECT_EQ(a.rec_revocations, b.rec_revocations);
  EXPECT_EQ(a.rec_replacements, b.rec_replacements);
  EXPECT_EQ(a.rec_checksum, b.rec_checksum);  // bit-identical
  EXPECT_EQ(a.bat_final_now, b.bat_final_now);
  EXPECT_EQ(a.bat_events, b.bat_events);
  EXPECT_EQ(a.bat_msgs, b.bat_msgs);  // identical frame coalescing
  EXPECT_EQ(a.bat_ops, b.bat_ops);
  EXPECT_EQ(a.bat_flushes, b.bat_flushes);
  EXPECT_EQ(a.bat_checksum, b.bat_checksum);  // bit-identical
}

void expect_sane(const Fingerprint& fp) {
  EXPECT_GT(fp.events, 1000u);
  EXPECT_GT(fp.switches, 100u);
  EXPECT_GT(fp.qr_time, 0);
  EXPECT_GT(fp.mp2c_elapsed, 0);
  EXPECT_TRUE(fp.fault_seen);
  EXPECT_FALSE(fp.spans.empty());
  EXPECT_EQ(fp.rec_revocations, 1u);
  EXPECT_EQ(fp.rec_replacements, 1u);
  EXPECT_GT(fp.rec_heartbeats, 0u);
  EXPECT_GT(fp.rec_replaced_at, 10'000'000u);  // after the idle wait
  EXPECT_DOUBLE_EQ(fp.rec_checksum, 4096 * 3.0);  // 1.5 * 2.0 per element
  // Batched phase: 24 ops (alloc + fill + 20 dscal + d2h + free), with the
  // async burst coalesced so the wire carries fewer messages than 2x ops.
  EXPECT_EQ(fp.bat_ops, 24u);
  EXPECT_GT(fp.bat_flushes, 0u);
  EXPECT_LT(fp.bat_msgs, 2 * fp.bat_ops);
  EXPECT_GT(fp.bat_checksum, 0.0);
}

TEST(Determinism, CoroutineBackendReplaysExactly) {
  const Fingerprint a = run_mixed(sim::ExecBackend::kCoroutine);
  const Fingerprint b = run_mixed(sim::ExecBackend::kCoroutine);
  expect_sane(a);
  expect_identical(a, b, "coroutine vs coroutine");
}

TEST(Determinism, ParallelBackendReplaysExactly) {
  const Fingerprint a = run_mixed(sim::ExecBackend::kParallel, /*shards=*/4);
  const Fingerprint b = run_mixed(sim::ExecBackend::kParallel, /*shards=*/4);
  expect_sane(a);
  expect_identical(a, b, "parallel vs parallel");
}

TEST(Determinism, BackendsProduceIdenticalSimulations) {
  // Both backends replay the same simulation, bit for bit: once as the
  // small clusters run by default (the serial loop, no era), and once
  // widened onto the worker pool, where four shards put the horizon
  // protocol, staged inboxes and era barriers on the line.
  const Fingerprint coro = run_mixed(sim::ExecBackend::kCoroutine);
  const Fingerprint par = run_mixed(sim::ExecBackend::kParallel, /*shards=*/4);
  expect_sane(coro);
  expect_identical(coro, par, "coroutine vs parallel, serial loop");
  for (const std::uint64_t windows : par.eras) EXPECT_EQ(windows, 0u);

  const Fingerprint coro_wide =
      run_mixed(sim::ExecBackend::kCoroutine, 0, /*pool=*/true);
  const Fingerprint par_wide =
      run_mixed(sim::ExecBackend::kParallel, /*shards=*/4, /*pool=*/true);
  expect_sane(coro_wide);
  expect_ran_on_pool(par_wide);
  expect_identical(coro_wide, par_wide, "coroutine vs parallel, pool eras");
}

TEST(Determinism, ShardCountInvariance) {
  // Shard topology must be invisible in the results: one shard per node,
  // two nodes per shard, everything on one shard, more shards than nodes —
  // identical simulations, every era on the worker pool (one shard runs
  // the horizon protocol inline).
  std::vector<Fingerprint> runs;
  for (const int shards : {1, 2, 4, 8, 16}) {
    runs.push_back(
        run_mixed(sim::ExecBackend::kParallel, shards, /*pool=*/true));
    SCOPED_TRACE("shards " + std::to_string(shards));
    expect_ran_on_pool(runs.back());
  }
  expect_sane(runs[0]);
  expect_identical(runs[0], runs[1], "1 shard vs 2 shards");
  expect_identical(runs[0], runs[2], "1 shard vs 4 shards");
  expect_identical(runs[0], runs[3], "1 shard vs 8 shards");
  expect_identical(runs[0], runs[4], "1 shard vs 16 shards");
}

// ---------------------------------------------------------------------------
// Skewed, heterogeneous-latency topology: one short link plus several
// long links. The per-node-pair overrides are semantic (they move clamp
// floors in every backend), the per-shard-pair lookahead matrix and the
// topology partitioner only consume them — so results must stay invariant
// across backends AND shard counts even when the placement changes.
// ---------------------------------------------------------------------------

struct SkewedFingerprint {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  SimTime final_now = 0;
  double checksum = 0.0;

  bool operator==(const SkewedFingerprint& other) const = default;
};

/// Runs the skewed cluster widened past the pool crossover, so under the
/// parallel backend it runs its eras on the worker pool, bounded by the
/// per-shard-pair lookahead matrix.
SkewedFingerprint run_skewed(sim::ExecBackend backend, int shards,
                             sim::Engine::ParallelStats* pstats = nullptr) {
  rt::ClusterConfig config;
  config.compute_nodes = 4;
  config.accelerators = 4;
  config.functional_gpus = true;
  config.sim_backend = backend;
  config.sim_shards = shards;
  // 9 fabric nodes (4 CN + 4 AC + ARM). One fast link, many slow ones:
  // the partitioner co-locates the fast pair and the pair matrix keeps
  // every other shard pair at its (long) latency floor.
  config.fabric.link_latency_overrides = {
      {0, 1, 300},    // the short link
      {2, 3, 4800},   // long links, skewing the latency spread
      {4, 5, 9600},
      {6, 7, 7200},
      {0, 8, 4800},
  };
  rt::Cluster cluster(config);

  SkewedFingerprint fp;
  rt::JobSpec job;
  job.name = "skewed";
  job.ranks = 4;
  job.accelerators_per_rank = 1;
  job.body = [&fp](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const std::int64_t n = 512;
    const auto bytes = static_cast<std::uint64_t>(n) * 8;
    const gpu::DevPtr p = ac.mem_alloc(bytes);
    ac.launch("fill_f64", {}, {p, n, 1.0 + ctx.rank()});
    ac.launch("dscal", {}, {n, 0.5, p});
    // Ring exchange over the skewed fabric (even ranks send first so the
    // rendezvous pairs up): every rank's traffic crosses short and long
    // links.
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
    if (ctx.rank() % 2 == 0) {
      ctx.mpi().send(ctx.job_comm(), next, 11, util::Buffer::phantom(32_KiB));
      (void)ctx.mpi().recv(ctx.job_comm(), prev, 11);
    } else {
      (void)ctx.mpi().recv(ctx.job_comm(), prev, 11);
      ctx.mpi().send(ctx.job_comm(), next, 11, util::Buffer::phantom(32_KiB));
    }
    const util::Buffer out = ac.memcpy_d2h(p, bytes);
    if (ctx.rank() == 0) {
      for (const double v : out.as<double>()) fp.checksum += v;
    }
    ac.mem_free(p);
  };
  cluster.submit(job);
  testing::widen_past_pool_crossover(cluster.engine());
  cluster.run();
  fp.events = cluster.engine().events_executed();
  fp.switches = cluster.engine().process_switches();
  fp.final_now = cluster.engine().now();
  if (pstats != nullptr) *pstats = cluster.engine().parallel_stats();
  return fp;
}

void expect_ran_on_pool(const sim::Engine::ParallelStats& s) {
  EXPECT_GT(s.windows, 0u);
}

TEST(Determinism, SkewedTopologyBackendInvariance) {
  const SkewedFingerprint coro = run_skewed(sim::ExecBackend::kCoroutine, 0);
  EXPECT_GT(coro.events, 100u);
  EXPECT_DOUBLE_EQ(coro.checksum, 512 * 0.5);  // rank 0: fill 1.0, scale
  sim::Engine::ParallelStats pstats;
  EXPECT_EQ(run_skewed(sim::ExecBackend::kParallel, 4, &pstats), coro);
  expect_ran_on_pool(pstats);
}

TEST(Determinism, SkewedTopologyShardCountInvariance) {
  sim::Engine::ParallelStats pstats;
  const SkewedFingerprint one =
      run_skewed(sim::ExecBackend::kParallel, 1, &pstats);
  expect_ran_on_pool(pstats);
  for (const int shards : {2, 4, 8, 16}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    EXPECT_EQ(run_skewed(sim::ExecBackend::kParallel, shards, &pstats), one);
    expect_ran_on_pool(pstats);
  }
}

TEST(Determinism, DefaultBackendReplaysExactly) {
  // Replays under whatever DACC_SIM_BACKEND / DACC_SIM_PARALLEL_WORKERS
  // selects — this is the variant ctest registers once per backend label.
  const Fingerprint a =
      run_mixed(sim::default_exec_backend(), sim::default_parallel_shards());
  const Fingerprint b =
      run_mixed(sim::default_exec_backend(), sim::default_parallel_shards());
  expect_sane(a);
  expect_identical(a, b, "default backend replay");
}

}  // namespace
}  // namespace dacc
