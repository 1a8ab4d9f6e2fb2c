// Typed resource scheduler (DESIGN.md §13): device-class and memory
// constraints, gang vs partial grants, priority-ordered waiting, and
// topology-aware placement. Registered per backend (coroutine / parallel)
// so every scheduling decision is exercised under both execution models.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "arm/arm.hpp"
#include "common/testbed.hpp"
#include "gpu/device.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

namespace dacc::arm {
namespace {

using dacc::testing::run_job;
using dacc::testing::small_cluster;

/// Two C1060s (kind "gpu", 4 GiB) plus one MIC (kind "mic", 8 GiB).
rt::ClusterConfig mixed_pool_cluster() {
  rt::ClusterConfig c = small_cluster(/*cns=*/1, /*acs=*/3);
  c.accelerator_devices = {gpu::tesla_c1060(), gpu::tesla_c1060(),
                           gpu::mic_knc()};
  return c;
}

TEST(Sched, KindConstraintSelectsDeviceClass) {
  rt::Cluster cluster(mixed_pool_cluster());
  const dmpi::Rank mic_rank = cluster.daemon_rank(2);
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto leases =
        arm.acquire(ResourceRequest{}.with_job(1).with_kind("mic"));
    ASSERT_EQ(leases.size(), 1u);
    EXPECT_EQ(leases[0].daemon_rank, mic_rank);
    // No MIC left: the kind filter must not fall back to the free GPUs.
    EXPECT_TRUE(arm.acquire(ResourceRequest{}.with_job(1).with_kind("mic"))
                    .empty());
    EXPECT_EQ(arm.stats().free, 2u);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Sched, MemoryConstraintSkipsSmallDevices) {
  rt::Cluster cluster(mixed_pool_cluster());
  const dmpi::Rank mic_rank = cluster.daemon_rank(2);
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    // 6 GiB rules out the 4 GiB C1060s; only the 8 GiB MIC qualifies.
    const auto big =
        arm.acquire(ResourceRequest{}.with_job(1).with_memory(6_GiB));
    ASSERT_EQ(big.size(), 1u);
    EXPECT_EQ(big[0].daemon_rank, mic_rank);
    // A small request is satisfied from the smallest adequate class.
    const auto small =
        arm.acquire(ResourceRequest{}.with_job(1).with_memory(1_GiB));
    ASSERT_EQ(small.size(), 1u);
    EXPECT_NE(small[0].daemon_rank, mic_rank);
    // More memory than any device exists: clean immediate failure.
    EXPECT_TRUE(
        arm.acquire(ResourceRequest{}.with_job(1).with_memory(64_GiB))
            .empty());
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Sched, GangAcquireIsAllOrNothing) {
  run_job(small_cluster(/*cns=*/1, /*acs=*/3), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    // Pin one slot so only 2 of 3 are free; a gang of 3 must not grab them.
    const auto pin = arm.acquire(ResourceRequest{}.with_job(7).with_count(1));
    ASSERT_EQ(pin.size(), 1u);
    EXPECT_TRUE(
        arm.acquire(ResourceRequest{}.with_job(1).with_count(3)).empty());
    const PoolStats s = arm.stats();
    EXPECT_EQ(s.free, 2u);  // the failed gang held nothing back
    EXPECT_EQ(s.assigned, 1u);
  });
}

TEST(Sched, NonGangAcquireGrantsPartially) {
  run_job(small_cluster(/*cns=*/1, /*acs=*/3), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto leases = arm.acquire(
        ResourceRequest{}.with_job(1).with_count(4).with_gang(false));
    EXPECT_EQ(leases.size(), 3u);  // everything available, not nothing
    EXPECT_EQ(arm.stats().free, 0u);
  });
}

TEST(Sched, UnsatisfiableGangFailsFastEvenWhenWaiting) {
  run_job(small_cluster(/*cns=*/1, /*acs=*/3), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    // 5 > pool size: waiting would hang forever, so the ARM answers
    // kInsufficient at arrival instead of queueing.
    EXPECT_TRUE(
        arm.acquire(
               ResourceRequest{}.with_job(1).with_count(5).with_wait(true))
            .empty());
    EXPECT_EQ(arm.stats().queued_requests, 0u);
  });
}

TEST(Sched, RawPrioritiesAboveTheNamedClassesKeepStrictOrder) {
  // The wire allows any priority up to kMaxPriority, not just the four
  // labelled classes; the victim index buckets the full range, so strict
  // ordering must hold among raw values too.
  run_job(small_cluster(/*cns=*/1, /*acs=*/2), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto held = arm.acquire(
        ResourceRequest{}.with_job(1).with_count(2).with_priority(5));
    ASSERT_EQ(held.size(), 2u);
    // 4 < 5: no victim; with wait == false the arrival fails clean.
    EXPECT_TRUE(
        arm.acquire(ResourceRequest{}.with_job(2).with_priority(4)).empty());
    EXPECT_EQ(arm.stats().preemptions, 0u);
    // kMaxPriority > 5: a strictly-lower-priority owner is evicted.
    const auto urgent = arm.acquire(
        ResourceRequest{}.with_job(3).with_priority(kMaxPriority));
    ASSERT_EQ(urgent.size(), 1u);
    EXPECT_EQ(arm.stats().preemptions, 1u);
  });
}

TEST(Sched, PriorityOrdersTheWaitQueue) {
  // Rank 0 holds the whole pool and releases one slot at 1 ms and the other
  // at 3 ms. Rank 1 queues a batch-class request first; rank 2 queues a
  // high-class request later. The high request must still be served first.
  rt::Cluster cluster(small_cluster(/*cns=*/3, /*acs=*/2));
  std::vector<SimTime> granted_at(3, 0);
  rt::JobSpec spec;
  spec.ranks = 3;
  spec.body = [&](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const std::uint64_t jid = 100 + static_cast<std::uint64_t>(job.rank());
    if (job.rank() == 0) {
      // Hold at urgent so the high-class waiter queues instead of
      // preempting (preemption has its own suite, preempt_test.cpp).
      const auto leases = arm.acquire(ResourceRequest{}
                                          .with_job(jid)
                                          .with_count(2)
                                          .with_priority(kPriorityUrgent));
      ASSERT_EQ(leases.size(), 2u);
      job.ctx().wait_for(1_ms);
      EXPECT_EQ(arm.release(jid, leases[0]), ArmResult::kOk);
      job.ctx().wait_for(2_ms);
      EXPECT_EQ(arm.release(jid, leases[1]), ArmResult::kOk);
    } else if (job.rank() == 1) {
      job.ctx().wait_for(100_us);  // queues first...
      const auto leases = arm.acquire(ResourceRequest{}
                                          .with_job(jid)
                                          .with_wait(true)
                                          .with_priority(kPriorityBatch));
      ASSERT_EQ(leases.size(), 1u);
      granted_at[1] = job.ctx().now();
      EXPECT_EQ(arm.release_job(jid), ArmResult::kOk);
    } else {
      job.ctx().wait_for(200_us);  // ...but loses to the higher class
      const auto leases = arm.acquire(ResourceRequest{}
                                          .with_job(jid)
                                          .with_wait(true)
                                          .with_priority(kPriorityHigh));
      ASSERT_EQ(leases.size(), 1u);
      granted_at[2] = job.ctx().now();
      job.ctx().wait_for(1_ms);  // hold, so batch can't ride this slot
      EXPECT_EQ(arm.release_job(jid), ArmResult::kOk);
    }
  };
  cluster.submit(spec);
  cluster.run();
  EXPECT_GE(granted_at[2], 1_ms);
  EXPECT_LT(granted_at[2], 2_ms);  // high rode the first release
  // Batch arrived first but was served second: the next slot frees at
  // 2 ms (rank 2's release), so priority order inverted arrival order.
  EXPECT_GE(granted_at[1], 2_ms);
  EXPECT_GT(granted_at[1], granted_at[2]);
}

/// Topology with accelerator 0 behind slow links: nodes are CN0=0, ac0=1,
/// ac1=2, ARM=3; every link touching node 1 is 5x the wire latency, so the
/// latency zones are {CN0, ac1, ARM} and {ac0}.
rt::ClusterConfig far_ac0_cluster() {
  rt::ClusterConfig c = small_cluster(/*cns=*/1, /*acs=*/2);
  const SimDuration slow = 5 * c.fabric.wire_latency;
  c.fabric.link_latency_overrides = {{0, 1, slow}, {1, 2, slow}, {1, 3, slow}};
  return c;
}

TEST(Sched, PlacementPrefersTheRequestersZone) {
  rt::Cluster cluster(far_ac0_cluster());
  const dmpi::Rank near_rank = cluster.daemon_rank(1);  // ac1, same zone
  const dmpi::Rank far_rank = cluster.daemon_rank(0);   // ac0, remote zone
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const auto first = arm.acquire(ResourceRequest{}.with_job(1));
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].daemon_rank, near_rank);
    // Only the far accelerator remains; placement is a preference, not a
    // constraint.
    const auto second = arm.acquire(ResourceRequest{}.with_job(1));
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].daemon_rank, far_rank);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Sched, LocalityHintOverridesTheRequesterNode) {
  // The requester sits in the fast zone but asks to be placed near ac0's
  // node; the hint, not the origin, drives zone selection.
  rt::Cluster cluster(far_ac0_cluster());
  const dmpi::Rank far_rank = cluster.daemon_rank(0);
  rt::JobSpec spec;
  spec.body = [&](rt::JobContext& job) {
    const auto leases = job.session().arm().acquire(
        ResourceRequest{}.with_job(1).with_locality(1));  // ac0's fabric node
    ASSERT_EQ(leases.size(), 1u);
    EXPECT_EQ(leases[0].daemon_rank, far_rank);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Sched, SessionAcquireThreadsTypedRequests) {
  // The front-end path: a typed request through Session::acquire yields a
  // live, computable accelerator proxy of the requested class.
  run_job(mixed_pool_cluster(), [](rt::JobContext& job) {
    auto accs = job.session().acquire(
        ResourceRequest{}.with_count(1).with_kind("mic"));
    ASSERT_EQ(accs.size(), 1u);
    core::Accelerator& acc = *accs[0];
    const gpu::DevPtr d = acc.mem_alloc(64_KiB);
    std::vector<std::byte> host(64_KiB);
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = static_cast<std::byte>(i * 31u);
    }
    acc.memcpy_h2d(d, util::Buffer::backed_copy(
                          std::span<const std::byte>(host)));
    const util::Buffer back = acc.memcpy_d2h(d, 64_KiB);
    ASSERT_EQ(back.size(), host.size());
    EXPECT_EQ(std::memcmp(back.bytes().data(), host.data(), host.size()), 0);
    acc.mem_free(d);
    job.session().release(accs[0]);
    EXPECT_EQ(job.session().arm().stats().free, 3u);
  });
}

TEST(Sched, LegacyFlatAcquireStillWorks) {
  // The pre-scheduler flat request (job, count, wait, kind), every other
  // field at its default, must behave as a gang, normal-priority request
  // with no memory constraint.
  run_job(mixed_pool_cluster(), [](rt::JobContext& job) {
    ArmClient& arm = job.session().arm();
    const ResourceRequest two_gpus =
        ResourceRequest{}.with_job(1).with_count(2).with_kind("gpu");
    const auto gpus = arm.acquire(two_gpus);
    ASSERT_EQ(gpus.size(), 2u);
    EXPECT_TRUE(arm.acquire(two_gpus).empty());  // gang
    const auto any = arm.acquire(ResourceRequest{}.with_job(1).with_count(1));
    ASSERT_EQ(any.size(), 1u);  // the MIC, via the unconstrained path
    EXPECT_EQ(arm.stats().free, 0u);
  });
}

}  // namespace
}  // namespace dacc::arm
