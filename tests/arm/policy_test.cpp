// Heterogeneous pools (device-kind constraints) and queue policies
// (FCFS vs backfill) of the resource manager.
#include <gtest/gtest.h>

#include "arm/arm.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

namespace dacc::arm {
namespace {

rt::ClusterConfig mixed_pool_cluster() {
  rt::ClusterConfig c;
  c.compute_nodes = 2;
  c.accelerator_devices = {gpu::tesla_c1060(), gpu::tesla_c1060(),
                           gpu::mic_knc()};
  return c;
}

TEST(Heterogeneous, PoolMixesDeviceKinds) {
  rt::Cluster cluster(mixed_pool_cluster());
  EXPECT_EQ(cluster.accelerator_device(0).params().kind, "gpu");
  EXPECT_EQ(cluster.accelerator_device(2).params().kind, "mic");
  EXPECT_EQ(cluster.arm_stats().total, 3u);
}

TEST(Heterogeneous, AcquireByKind) {
  rt::Cluster cluster(mixed_pool_cluster());
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    auto mics = job.session().acquire(1, false, "mic");
    ASSERT_EQ(mics.size(), 1u);
    EXPECT_EQ(mics[0]->info().name, "Xeon Phi KNC (simulated)");
    // Only one MIC exists.
    EXPECT_TRUE(job.session().acquire(1, false, "mic").empty());
    // GPUs are still available.
    auto gpus = job.session().acquire(2, false, "gpu");
    EXPECT_EQ(gpus.size(), 2u);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Heterogeneous, UnconstrainedAcquireTakesAnything) {
  rt::Cluster cluster(mixed_pool_cluster());
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    EXPECT_EQ(job.session().acquire(3).size(), 3u);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Heterogeneous, UnknownKindNeverGrants) {
  rt::Cluster cluster(mixed_pool_cluster());
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    EXPECT_TRUE(job.session().acquire(1, false, "fpga").empty());
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Heterogeneous, MixedWorkOnGpuAndMic) {
  // The same kernels run on both device personalities (the "extensible to
  // any accelerator programming interface" claim).
  rt::Cluster cluster(mixed_pool_cluster());
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    auto gpus = job.session().acquire(1, false, "gpu");
    auto mics = job.session().acquire(1, false, "mic");
    ASSERT_EQ(gpus.size(), 1u);
    ASSERT_EQ(mics.size(), 1u);
    for (core::Accelerator* ac : {gpus[0], mics[0]}) {
      const gpu::DevPtr p = ac->mem_alloc(64);
      ac->launch("fill_f64", {}, {p, std::int64_t{8}, 4.5});
      EXPECT_EQ(ac->memcpy_d2h(p, 64).as<double>()[0], 4.5);
    }
  };
  cluster.submit(spec);
  cluster.run();
}

// --- queue policies ---------------------------------------------------------

struct PolicyTimes {
  SimTime big_granted = 0;
  SimTime small_granted = 0;
};

PolicyTimes run_policy(QueuePolicy policy) {
  rt::ClusterConfig c;
  c.compute_nodes = 3;
  c.accelerators = 2;
  c.arm_policy = policy;
  rt::Cluster cluster(c);
  PolicyTimes times;

  // Holder: takes both accelerators for 10 ms.
  rt::JobSpec holder;
  holder.name = "holder";
  holder.body = [](rt::JobContext& job) {
    auto acs = job.session().acquire(2, true);
    ASSERT_EQ(acs.size(), 2u);
    job.ctx().wait_for(10_ms);
  };
  // Big: queued first, needs the whole pool again.
  rt::JobSpec big;
  big.name = "big";
  big.body = [&](rt::JobContext& job) {
    job.ctx().wait_for(1_ms);
    auto acs = job.session().acquire(2, true);
    ASSERT_EQ(acs.size(), 2u);
    times.big_granted = job.ctx().now();
    job.ctx().wait_for(5_ms);
  };
  // Small: queued second, needs one; releases one slot early.
  rt::JobSpec small;
  small.name = "small";
  small.body = [&](rt::JobContext& job) {
    job.ctx().wait_for(2_ms);
    // The holder frees one accelerator at t=6ms by releasing it early...
    auto acs = job.session().acquire(1, true);
    ASSERT_EQ(acs.size(), 1u);
    times.small_granted = job.ctx().now();
    job.ctx().wait_for(1_ms);
  };
  // Early releaser: modify holder to drop one accelerator at 6 ms.
  holder.body = [](rt::JobContext& job) {
    auto acs = job.session().acquire(2, true);
    ASSERT_EQ(acs.size(), 2u);
    job.ctx().wait_for(6_ms);
    job.session().release(acs[1]);  // one comes back early
    job.ctx().wait_for(4_ms);
  };

  cluster.submit(holder, 0);
  cluster.submit(big, 1);
  cluster.submit(small, 2);
  cluster.run();
  return times;
}

TEST(QueuePolicy, FcfsHeadBlocksSmallRequest) {
  const PolicyTimes t = run_policy(QueuePolicy::kFcfs);
  // One accelerator frees at ~6 ms, but FCFS keeps it idle for the queued
  // big request; small waits until big ran (after full release at ~10 ms).
  EXPECT_GE(t.big_granted, 10_ms);
  EXPECT_GT(t.small_granted, t.big_granted);
}

TEST(QueuePolicy, BackfillLetsSmallRequestJumpIn) {
  const PolicyTimes t = run_policy(QueuePolicy::kBackfill);
  // Backfill hands the early-released accelerator to the small request at
  // ~6 ms while big keeps waiting for the pair.
  EXPECT_GE(t.small_granted, 6_ms);
  EXPECT_LT(t.small_granted, 8_ms);
  EXPECT_LT(t.small_granted, t.big_granted);
}

TEST(QueuePolicy, BackfillStillServesEveryone) {
  const PolicyTimes t = run_policy(QueuePolicy::kBackfill);
  EXPECT_GT(t.big_granted, 0u);
  EXPECT_GT(t.small_granted, 0u);
}

}  // namespace
}  // namespace dacc::arm
