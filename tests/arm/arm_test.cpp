#include "arm/arm.hpp"

#include <gtest/gtest.h>

#include "common/testbed.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

namespace dacc::arm {
namespace {

using dacc::testing::run_job;
using dacc::testing::small_cluster;

TEST(Arm, AcquireGrantsExclusiveLeases) {
  run_job(small_cluster(), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto a = arm.acquire(ResourceRequest{}.with_job(1).with_count(2));
    ASSERT_EQ(a.size(), 2u);
    EXPECT_NE(a[0].daemon_rank, a[1].daemon_rank);
    EXPECT_NE(a[0].lease_id, a[1].lease_id);
    const PoolStats s = arm.stats();
    EXPECT_EQ(s.total, 3u);
    EXPECT_EQ(s.assigned, 2u);
    EXPECT_EQ(s.free, 1u);
  });
}

TEST(Arm, OverAcquireFailsWithoutWait) {
  run_job(small_cluster(), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    EXPECT_TRUE(  // only 3 in the pool
        arm.acquire(ResourceRequest{}.with_job(1).with_count(4)).empty());
    // A failed acquire must not leak partial assignments.
    EXPECT_EQ(arm.stats().free, 3u);
  });
}

TEST(Arm, ReleaseReturnsToPool) {
  run_job(small_cluster(), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto leases =
        arm.acquire(ResourceRequest{}.with_job(1).with_count(3));
    ASSERT_EQ(leases.size(), 3u);
    EXPECT_EQ(arm.release(1, leases[1]), ArmResult::kOk);
    EXPECT_EQ(arm.stats().free, 1u);
    // The released accelerator is reacquirable.
    const auto again = arm.acquire(ResourceRequest{}.with_job(1).with_count(1));
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].daemon_rank, leases[1].daemon_rank);
    EXPECT_NE(again[0].lease_id, leases[1].lease_id);  // fresh lease id
  });
}

TEST(Arm, StaleLeaseReleaseRejected) {
  run_job(small_cluster(), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto leases =
        arm.acquire(ResourceRequest{}.with_job(1).with_count(1));
    ASSERT_EQ(leases.size(), 1u);
    EXPECT_EQ(arm.release(1, leases[0]), ArmResult::kOk);
    // Releasing again with the stale lease id fails.
    EXPECT_EQ(arm.release(1, leases[0]), ArmResult::kUnknownHandle);
  });
}

TEST(Arm, ReleaseByNonOwnerRejected) {
  run_job(small_cluster(), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto leases =
        arm.acquire(ResourceRequest{}.with_job(1).with_count(1));
    ASSERT_EQ(leases.size(), 1u);
    EXPECT_EQ(arm.release(/*job=*/2, leases[0]), ArmResult::kNotOwner);
    EXPECT_EQ(arm.stats().assigned, 1u);
  });
}

TEST(Arm, ReleaseJobFreesEverything) {
  run_job(small_cluster(), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    (void)arm.acquire(ResourceRequest{}.with_job(7).with_count(3));
    EXPECT_EQ(arm.release_job(7), ArmResult::kOk);
    EXPECT_EQ(arm.stats().free, 3u);
  });
}

TEST(Arm, BrokenAcceleratorLeavesPool) {
  rt::Cluster cluster(small_cluster());
  const dmpi::Rank broken = cluster.daemon_rank(1);
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    EXPECT_EQ(arm.report_broken(broken), ArmResult::kOk);
    const PoolStats s = arm.stats();
    EXPECT_EQ(s.broken, 1u);
    EXPECT_EQ(s.free, 2u);
    // Acquiring everything left never returns the broken one.
    const auto leases =
        arm.acquire(ResourceRequest{}.with_job(1).with_count(2));
    ASSERT_EQ(leases.size(), 2u);
    for (const Lease& l : leases) EXPECT_NE(l.daemon_rank, broken);
    // A third is now impossible.
    EXPECT_TRUE(
        arm.acquire(ResourceRequest{}.with_job(1).with_count(1)).empty());
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Arm, ReportUnknownAcceleratorRejected) {
  run_job(small_cluster(), [](rt::JobContext& job) {
    EXPECT_EQ(job.session().arm().report_broken(999),
              ArmResult::kUnknownHandle);
  });
}

TEST(Arm, WaitingAcquireQueuesFcfs) {
  // Rank 0 grabs the whole pool, holds it 1 ms, then releases; rank 1's
  // waiting acquire is granted exactly then.
  rt::Cluster cluster(small_cluster(/*cns=*/2, /*acs=*/2));
  std::vector<SimTime> granted_at(2, 0);
  rt::JobSpec spec;
  spec.ranks = 2;
  spec.body = [&](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const std::uint64_t jid = 100 + static_cast<std::uint64_t>(job.rank());
    if (job.rank() == 0) {
      const auto leases =
          arm.acquire(ResourceRequest{}.with_job(jid).with_count(2));
      ASSERT_EQ(leases.size(), 2u);
      job.ctx().wait_for(1_ms);
      EXPECT_EQ(arm.release_job(jid), ArmResult::kOk);
    } else {
      job.ctx().wait_for(10_us);  // ensure rank 0 wins the race
      const auto leases = arm.acquire(
          ResourceRequest{}.with_job(jid).with_count(2).with_wait());
      ASSERT_EQ(leases.size(), 2u);
      granted_at[1] = job.ctx().now();
    }
  };
  cluster.submit(spec);
  cluster.run();
  EXPECT_GE(granted_at[1], 1_ms);
}

TEST(Arm, UtilizationAccounting) {
  rt::Cluster cluster(small_cluster(1, 2));
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto leases =
        arm.acquire(ResourceRequest{}.with_job(1).with_count(1));
    ASSERT_EQ(leases.size(), 1u);
    job.ctx().wait_for(10_ms);
    EXPECT_EQ(arm.release_job(1), ArmResult::kOk);
    job.ctx().wait_for(10_ms);
  };
  cluster.submit(spec);
  cluster.run();
  const auto util = cluster.arm_utilization(cluster.engine().now());
  // One accelerator was held ~half the time, the other never.
  const double hi = std::max(util[0], util[1]);
  const double lo = std::min(util[0], util[1]);
  EXPECT_NEAR(hi, 0.5, 0.05);
  EXPECT_NEAR(lo, 0.0, 0.01);
}

TEST(Arm, StatsCountAcquisitions) {
  run_job(small_cluster(), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    (void)arm.acquire(ResourceRequest{}.with_job(1).with_count(2));
    (void)arm.acquire(ResourceRequest{}.with_job(1).with_count(1));
    EXPECT_EQ(arm.stats().acquisitions, 3u);
  });
}

}  // namespace
}  // namespace dacc::arm
