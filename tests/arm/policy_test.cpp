// Heterogeneous pools (device-kind constraints) and queue policies
// (FCFS vs backfill) of the resource manager.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "arm/arm.hpp"
#include "dmpi/mpi.hpp"
#include "net/fabric.hpp"
#include "rt/cluster.hpp"
#include "sim/engine.hpp"
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

/// A bare single ARM over a two-slot pool, built as bench/abl_scheduler's
/// run_dynamic builds one, with three clients on ranks of their own: a
/// holder takes both slots and hands one back at 6 ms, a big request for
/// both queues at 1 ms, and a small request for one queues at 2 ms.
PolicyTimes run_policy(QueuePolicy policy) {
  constexpr dmpi::Rank kArmRank = 3;
  sim::Engine engine;
  net::Fabric fabric(engine, 6);
  dmpi::World world(engine, fabric, {0, 1, 2, kArmRank, 4, 5});
  // The slots name ranks 4 and 5; no daemon runs there, the ARM only
  // schedules them.
  Arm arm(world, kArmRank,
          {AcceleratorInfo{4, "ac0"}, AcceleratorInfo{5, "ac1"}}, policy);
  sim::Process& armp =
      engine.spawn("arm", [&](sim::Context& ctx) { arm.run(ctx); });
  engine.set_daemon(armp);

  PolicyTimes times;
  auto client = [&](dmpi::Rank rank,
                    std::function<void(sim::Context&, ArmClient&)> body) {
    engine.spawn("client-r" + std::to_string(rank),
                 [&world, rank, body](sim::Context& ctx) {
                   dmpi::Mpi mpi(world, ctx, rank);
                   ArmClient arm_client(mpi, world.world_comm(), {kArmRank});
                   body(ctx, arm_client);
                 });
  };
  // Holder: takes both accelerators, releases one early at 6 ms and the
  // other at 10 ms.
  client(0, [](sim::Context& ctx, ArmClient& arm_client) {
    const auto leases = arm_client.acquire(
        ResourceRequest{}.with_job(1).with_count(2).with_wait());
    ASSERT_EQ(leases.size(), 2u);
    ctx.wait_for(6_ms);
    (void)arm_client.release(1, leases[1]);
    ctx.wait_for(4_ms);
    (void)arm_client.release_job(1);
  });
  // Big: queued first, needs the whole pool again.
  client(1, [&times](sim::Context& ctx, ArmClient& arm_client) {
    ctx.wait_for(1_ms);
    const auto leases = arm_client.acquire(
        ResourceRequest{}.with_job(2).with_count(2).with_wait());
    ASSERT_EQ(leases.size(), 2u);
    times.big_granted = ctx.now();
    ctx.wait_for(5_ms);
    (void)arm_client.release_job(2);
  });
  // Small: queued second, needs one.
  client(2, [&times](sim::Context& ctx, ArmClient& arm_client) {
    ctx.wait_for(2_ms);
    const auto leases = arm_client.acquire(
        ResourceRequest{}.with_job(3).with_count(1).with_wait());
    ASSERT_EQ(leases.size(), 1u);
    times.small_granted = ctx.now();
    ctx.wait_for(1_ms);
    (void)arm_client.release_job(3);
  });
  engine.run();
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
