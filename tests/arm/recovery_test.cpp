// Failure detection and recovery end to end: heartbeat-driven lease
// revocation at the ARM, front-end request timeouts with retry, and the
// opt-in transparent accelerator replacement (paper Section III.A — a
// failed accelerator leaves the pool without taking the compute node or,
// with replacement enabled, even the job down).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "arm/arm.hpp"
#include "common/pool.hpp"
#include "common/testbed.hpp"
#include "core/api.hpp"
#include "la/factorizations.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

namespace dacc::arm {
namespace {

using dacc::testing::small_cluster;
using gpu::Result;

rt::ClusterConfig hb_cluster(int cns, int acs) {
  rt::ClusterConfig c = small_cluster(cns, acs);
  c.heartbeat.enabled = true;
  c.heartbeat.period = 1_ms;
  c.heartbeat.miss_threshold = 3;
  return c;
}

TEST(Recovery, MissedHeartbeatsRevokeLease) {
  // ac0's NIC dies at 2 ms: beats stop, the sweep revokes its lease once
  // the last beat is older than period * miss_threshold.
  rt::Cluster cluster(hb_cluster(/*cns=*/1, /*acs=*/2));
  cluster.fail_accelerator_link(0, 2_ms);
  PoolStats stats;
  ArmResult late_release = ArmResult::kOk;
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto leases =
        arm.acquire(ResourceRequest{}.with_job(1).with_count(2));
    ASSERT_EQ(leases.size(), 2u);
    const Lease on_ac0 =
        leases[0].daemon_rank == job.cluster().daemon_rank(0) ? leases[0]
                                                              : leases[1];
    job.ctx().wait_for(20_ms);  // several sweeps past the threshold
    stats = arm.stats();
    // Releasing the revoked lease reports the revocation, not a bad handle.
    late_release = arm.release(1, on_ac0);
  };
  cluster.submit(spec);
  cluster.run();
  EXPECT_EQ(stats.revocations, 1u);
  EXPECT_EQ(stats.broken, 1u);
  EXPECT_EQ(stats.assigned, 1u);  // the healthy lease survived
  EXPECT_GT(stats.heartbeats, 10u);
  EXPECT_EQ(late_release, ArmResult::kRevoked);
}

TEST(Recovery, RevocationRequeuesAndFailsUnsatisfiable) {
  // Three single-rank jobs against a 2-slot pool. Job A holds both; ac0
  // falls silent. A waiting 1-slot acquire must be served from A's healthy
  // release; a waiting 2-slot acquire becomes unsatisfiable the moment the
  // pool shrinks and must fail instead of hanging forever.
  rt::Cluster cluster(hb_cluster(/*cns=*/3, /*acs=*/2));
  cluster.fail_accelerator_link(0, 2_ms);
  const dmpi::Rank ac0 = cluster.daemon_rank(0);

  SimTime b_granted_at = 0;
  dmpi::Rank b_rank = -1;
  SimTime c_failed_at = 0;
  bool c_empty = false;

  rt::JobSpec a;
  a.name = "holder";
  a.body = [&](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto leases =
        arm.acquire(ResourceRequest{}.with_job(101).with_count(2));
    ASSERT_EQ(leases.size(), 2u);
    job.ctx().wait_for(10_ms);
    (void)arm.release_job(101);  // frees the healthy slot (+ revoked no-op)
    job.ctx().wait_for(5_ms);    // keep heartbeats flowing for the others
  };
  rt::JobSpec b;
  b.name = "wait-one";
  b.body = [&](rt::JobContext& job) {
    job.ctx().wait_for(100_us);  // queue behind the holder
    const auto leases = job.session().arm().acquire(
        ResourceRequest{}.with_job(102).with_count(1).with_wait());
    ASSERT_EQ(leases.size(), 1u);
    b_granted_at = job.ctx().now();
    b_rank = leases[0].daemon_rank;
    (void)job.session().arm().release_job(102);
  };
  rt::JobSpec c;
  c.name = "wait-two";
  c.body = [&](rt::JobContext& job) {
    job.ctx().wait_for(200_us);
    const auto leases = job.session().arm().acquire(
        ResourceRequest{}.with_job(103).with_count(2).with_wait());
    c_empty = leases.empty();
    c_failed_at = job.ctx().now();
  };
  cluster.submit(a, 0);
  cluster.submit(b, 1);
  cluster.submit(c, 2);
  cluster.run();

  EXPECT_GE(b_granted_at, 10_ms);  // served from the holder's release
  EXPECT_NE(b_rank, ac0);          // never the dead accelerator
  EXPECT_TRUE(c_empty);            // 2 > 1 surviving slot: unsatisfiable
  EXPECT_LT(c_failed_at, 10_ms);   // failed at revocation, no deadlock
  EXPECT_GT(c_failed_at, 3_ms);    // ...but only after the miss threshold
}

TEST(Recovery, ReplacementReplaysAllocationsAndPayloads) {
  // Device death with replace_on_failure: the front-end re-acquires, replays
  // the allocation map and payloads on the new device, and the job's data
  // survives intact — alloc/free interleavings included.
  rt::ClusterConfig cfg = small_cluster(/*cns=*/1, /*acs=*/2);
  cfg.retry.replace_on_failure = true;
  rt::Cluster cluster(cfg);
  const std::int64_t n = 1024;
  const auto bytes = static_cast<std::uint64_t>(n) * 8;

  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    auto accs = job.session().acquire(1);
    ASSERT_EQ(accs.size(), 1u);
    core::Accelerator& ac = *accs[0];
    ASSERT_EQ(ac.daemon_rank(), job.cluster().daemon_rank(0));

    // A scratch allocation that is freed again: replay must re-drive the
    // free too, or the replacement device leaks it.
    const gpu::DevPtr scratch = ac.mem_alloc(4096);
    const gpu::DevPtr a = ac.mem_alloc(bytes);
    const gpu::DevPtr b = ac.mem_alloc(bytes);
    const gpu::DevPtr c = ac.mem_alloc(bytes);
    ac.mem_free(scratch);

    std::vector<double> host(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = static_cast<double>(i);
    }
    ac.memcpy_h2d(a, util::Buffer::of<double>(host));
    ac.launch("fill_f64", {}, {b, n, 5.0});

    // Kill the device *now*; the next operation hits kEccError and must be
    // transparently re-executed on the replacement.
    job.cluster().break_accelerator(0, job.ctx().now());
    ac.launch("vector_add_f64", {}, {a, b, c, n});
    EXPECT_EQ(ac.daemon_rank(), job.cluster().daemon_rank(1));

    util::Buffer out = ac.memcpy_d2h(c, bytes);
    const auto vals = out.as<double>();
    for (std::size_t i = 0; i < vals.size(); ++i) {
      ASSERT_DOUBLE_EQ(vals[i], static_cast<double>(i) + 5.0);
    }
    ac.mem_free(a);
    ac.mem_free(b);
    ac.mem_free(c);
    // Everything the replay allocated has been returned.
    EXPECT_EQ(job.cluster().accelerator_device(1).memory_used(), 0u);
  };
  cluster.submit(spec);
  cluster.run();
  const PoolStats stats = cluster.arm_stats();
  EXPECT_EQ(stats.replacements, 1u);
  EXPECT_EQ(stats.broken, 1u);
}

TEST(Recovery, TimeoutRetriesThenReplacesOnSilentDaemon) {
  // The daemon's NIC dies mid-job (the device itself is fine, it is just
  // unreachable): requests time out, retries burn out, and the session
  // replaces the accelerator.
  rt::ClusterConfig cfg = small_cluster(/*cns=*/1, /*acs=*/2);
  cfg.retry.request_timeout = 2_ms;
  cfg.retry.max_retries = 2;
  cfg.retry.replace_on_failure = true;
  rt::Cluster cluster(cfg);

  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    auto accs = job.session().acquire(1);
    ASSERT_EQ(accs.size(), 1u);
    core::Accelerator& ac = *accs[0];
    const gpu::DevPtr p = ac.mem_alloc(1_MiB);
    ac.memcpy_h2d(p, util::Buffer::backed_zero(1_MiB));

    job.cluster().fail_accelerator_link(0, job.ctx().now());
    const SimTime before = job.ctx().now();
    util::Buffer out = ac.memcpy_d2h(p, 1_MiB);  // must survive the outage
    EXPECT_EQ(out.size(), 1_MiB);
    EXPECT_EQ(ac.daemon_rank(), job.cluster().daemon_rank(1));
    // At least one full timeout elapsed before the replacement kicked in.
    EXPECT_GE(job.ctx().now() - before, 2_ms);
    ac.mem_free(p);
  };
  cluster.submit(spec);
  cluster.run();
  EXPECT_EQ(cluster.arm_stats().replacements, 1u);
}

TEST(Recovery, TimeoutWithoutReplacementReportsUnavailable) {
  rt::ClusterConfig cfg = small_cluster(/*cns=*/1, /*acs=*/1);
  cfg.retry.request_timeout = 1_ms;
  cfg.retry.max_retries = 1;
  rt::Cluster cluster(cfg);
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    auto accs = job.session().acquire(1);
    ASSERT_EQ(accs.size(), 1u);
    core::Accelerator& ac = *accs[0];
    job.cluster().fail_accelerator_link(0, job.ctx().now());
    bool failed = false;
    try {
      (void)ac.mem_alloc(64);
    } catch (const core::AcError& e) {
      failed = true;
      EXPECT_EQ(e.code(), Result::kUnavailable);
    }
    EXPECT_TRUE(failed);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Recovery, RevocationNoticeTriggersProactiveReplacement) {
  // Heartbeats + replacement: the sweep revokes the silent accelerator and
  // pushes a notice; the front-end consumes it on its next operation and
  // replaces *before* wasting a timeout on the dead daemon.
  rt::ClusterConfig cfg = hb_cluster(/*cns=*/1, /*acs=*/2);
  cfg.retry.request_timeout = 50_ms;  // generous: must not be what saves us
  cfg.retry.replace_on_failure = true;
  rt::Cluster cluster(cfg);

  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    auto accs = job.session().acquire(1);
    ASSERT_EQ(accs.size(), 1u);
    core::Accelerator& ac = *accs[0];
    const gpu::DevPtr p = ac.mem_alloc(64_KiB);
    job.cluster().fail_accelerator_link(0, job.ctx().now());
    job.ctx().wait_for(10_ms);  // sweep revokes and notifies meanwhile
    const SimTime before = job.ctx().now();
    ac.memcpy_h2d(p, util::Buffer::backed_zero(64_KiB));
    EXPECT_EQ(ac.daemon_rank(), job.cluster().daemon_rank(1));
    // Proactive: far quicker than the 50 ms timeout path.
    EXPECT_LT(job.ctx().now() - before, 10_ms);
  };
  cluster.submit(spec);
  cluster.run();
  const PoolStats stats = cluster.arm_stats();
  EXPECT_EQ(stats.revocations, 1u);
  EXPECT_EQ(stats.replacements, 1u);
}

// Runs a functional QR on one leased accelerator; with `die_at` set, the
// device breaks that long after the job starts and the session's
// replacement policy must carry the factorization to completion.
struct QrOutcome {
  std::vector<double> factored;
  SimDuration factor_time = 0;
  SimTime final_now = 0;
  std::uint32_t replacements = 0;
};

QrOutcome qr_with_death(SimDuration die_at, sim::ExecBackend backend) {
  rt::ClusterConfig cfg = small_cluster(/*cns=*/1, /*acs=*/2);
  cfg.registry = la::la_registry();
  cfg.sim_backend = backend;
  cfg.retry.replace_on_failure = true;
  rt::Cluster cluster(cfg);
  const int n = 96;
  QrOutcome out;
  rt::JobSpec spec;
  spec.accelerators_per_rank = 1;
  spec.body = [&](rt::JobContext& job) {
    if (die_at > 0) {
      job.cluster().break_accelerator(0, job.ctx().now() + die_at);
    }
    core::RemoteDeviceLink gpu(job.session()[0], job.ctx());
    std::vector<core::DeviceLink*> gpus{&gpu};
    la::HostMatrix a(n, n, /*functional=*/true);
    // Deterministic, well-conditioned test matrix.
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        a.at(i, j) = (i == j ? 10.0 : 0.0) + 1.0 / (1.0 + i + j);
      }
    }
    const la::FactorResult r = la::dgeqrf_hybrid(job.ctx(), gpus, a, 32);
    out.factor_time = r.factor_time;
    out.factored.assign(a.data(), a.data() + n * n);
  };
  cluster.submit(spec);
  // Widened under every backend, so a parallel run replays the device
  // state on the worker pool.
  dacc::testing::widen_past_pool_crossover(cluster.engine());
  cluster.run();
  if (backend == sim::ExecBackend::kParallel) {
    EXPECT_TRUE(dacc::testing::ran_all_eras_on_pool(cluster.engine()));
  }
  out.final_now = cluster.engine().now();
  out.replacements = cluster.arm_stats().replacements;
  return out;
}

TEST(Recovery, QrCompletesDespiteMidRunDeviceDeath) {
  const auto backend = sim::default_exec_backend();
  const QrOutcome clean = qr_with_death(0, backend);
  ASSERT_GT(clean.factor_time, 0u);
  // Kill the device a quarter of the way through the clean run's schedule:
  // unambiguously mid-factorization.
  const QrOutcome faulty = qr_with_death(clean.factor_time / 4, backend);
  EXPECT_EQ(faulty.replacements, 1u);
  EXPECT_GT(faulty.factor_time, clean.factor_time);  // replay is not free
  // Replay reconstructed the device state exactly: the factorization result
  // is bit-identical to the fault-free run.
  ASSERT_EQ(faulty.factored.size(), clean.factored.size());
  for (std::size_t i = 0; i < clean.factored.size(); ++i) {
    ASSERT_EQ(faulty.factored[i], clean.factored[i]) << "element " << i;
  }
}

TEST(Recovery, QrRecoveryIsDeterministicAcrossBackends) {
  const QrOutcome clean = qr_with_death(0, sim::ExecBackend::kCoroutine);
  const SimDuration die_at = clean.factor_time / 4;
  const QrOutcome coro = qr_with_death(die_at, sim::ExecBackend::kCoroutine);
  EXPECT_EQ(coro.replacements, 1u);
  const QrOutcome par = qr_with_death(die_at, sim::ExecBackend::kParallel);
  EXPECT_EQ(par.replacements, coro.replacements);
  EXPECT_EQ(par.factor_time, coro.factor_time);
  EXPECT_EQ(par.final_now, coro.final_now);
  EXPECT_EQ(par.factored, coro.factored);
}

TEST(Recovery, HeartbeatOverheadNegligibleOnFigure9Qr) {
  // Liveness must be cheap enough to leave on: the Figure-9 QR point
  // (N = 8064, three network-attached GPUs) may shift by at most 0.5% in
  // simulated time when every accelerator beats at the default 1 ms period.
  auto qr_time = [](bool heartbeats) {
    rt::ClusterConfig cc;
    cc.compute_nodes = 1;
    cc.accelerators = 3;
    cc.functional_gpus = false;
    cc.registry = la::la_registry();
    cc.heartbeat.enabled = heartbeats;
    rt::Cluster cluster(cc);
    la::FactorResult result;
    rt::JobSpec spec;
    spec.accelerators_per_rank = 3;
    spec.body = [&](rt::JobContext& job) {
      std::vector<std::unique_ptr<core::DeviceLink>> links;
      std::vector<core::DeviceLink*> gpus;
      for (std::size_t i = 0; i < job.session().size(); ++i) {
        links.push_back(std::make_unique<core::RemoteDeviceLink>(
            job.session()[i], job.ctx()));
      }
      for (auto& link : links) gpus.push_back(link.get());
      la::HostMatrix a(8064, 8064, /*functional=*/false);
      result = la::dgeqrf_hybrid(job.ctx(), gpus, a, /*nb=*/128);
    };
    cluster.submit(spec);
    cluster.run();
    return result.factor_time;
  };
  const SimDuration off = qr_time(false);
  const SimDuration on = qr_time(true);
  ASSERT_GT(off, 0u);
  const double shift =
      std::abs(static_cast<double>(on) - static_cast<double>(off)) /
      static_cast<double>(off);
  EXPECT_LT(shift, 0.005) << "off=" << off << " on=" << on;
}

TEST(Recovery, ReplacementFlowIsDeterministicAcrossBackends) {
  auto fingerprint = [](sim::ExecBackend backend) {
    rt::ClusterConfig cfg = hb_cluster(/*cns=*/1, /*acs=*/2);
    cfg.sim_backend = backend;
    cfg.retry.request_timeout = 2_ms;
    cfg.retry.replace_on_failure = true;
    rt::Cluster cluster(cfg);
    SimTime replaced_done = 0;
    rt::JobSpec spec;
    spec.body = [&](rt::JobContext& job) {
      auto accs = job.session().acquire(1);
      core::Accelerator& ac = *accs[0];
      const gpu::DevPtr p = ac.mem_alloc(1_MiB);
      ac.memcpy_h2d(p, util::Buffer::backed_zero(1_MiB));
      job.cluster().fail_accelerator_link(0, job.ctx().now());
      (void)ac.memcpy_d2h(p, 1_MiB);
      replaced_done = job.ctx().now();
      ac.mem_free(p);
    };
    cluster.submit(spec);
    dacc::testing::widen_past_pool_crossover(cluster.engine());
    cluster.run();
    if (backend == sim::ExecBackend::kParallel) {
      EXPECT_TRUE(dacc::testing::ran_all_eras_on_pool(cluster.engine()));
    }
    return std::pair<SimTime, SimTime>(replaced_done, cluster.engine().now());
  };
  const auto coro = fingerprint(sim::ExecBackend::kCoroutine);
  EXPECT_GT(coro.first, 0u);
  EXPECT_EQ(fingerprint(sim::ExecBackend::kParallel), coro);
}

}  // namespace
}  // namespace dacc::arm
