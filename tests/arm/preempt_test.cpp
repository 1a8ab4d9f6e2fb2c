// Priority preemption end to end (DESIGN.md §13): an urgent job arriving at
// a full pool revokes a batch job's lease, the preempted front-end replays
// its operation log onto a re-acquired accelerator transparently (no data
// loss, no compute-node failure), and the healthy preempted slot is never
// reported broken. Runs against both the single ARM and the replicated
// deployment; per-backend ctest registration covers both engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "arm/arm.hpp"
#include "common/testbed.hpp"
#include "rt/cluster.hpp"
#include "util/buffer.hpp"
#include "util/units.hpp"

namespace dacc::arm {
namespace {

using dacc::testing::replicated_cluster;
using dacc::testing::small_cluster;

constexpr std::uint64_t kBytes = 4_KiB;

std::vector<std::byte> pattern(int iter, int acc) {
  std::vector<std::byte> host(kBytes);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = static_cast<std::byte>((i * 31u) ^ (iter * 7u) ^ (acc * 131u));
  }
  return host;
}

/// Batch job holding the whole pool, continuously writing and verifying
/// device memory; survives a mid-run preemption via transparent replacement.
void batch_body(rt::JobContext& job) {
  auto accs = job.session().acquire(
      ResourceRequest{}.with_count(2).with_wait(true));
  ASSERT_EQ(accs.size(), 2u);
  std::vector<gpu::DevPtr> ptrs;
  for (core::Accelerator* acc : accs) ptrs.push_back(acc->mem_alloc(kBytes));
  for (int iter = 0; iter < 24; ++iter) {
    for (int a = 0; a < 2; ++a) {
      const std::vector<std::byte> host = pattern(iter, a);
      accs[static_cast<std::size_t>(a)]->memcpy_h2d(
          ptrs[static_cast<std::size_t>(a)],
          util::Buffer::backed_copy(std::span<const std::byte>(host)));
    }
    job.ctx().wait_for(150_us);
    for (int a = 0; a < 2; ++a) {
      const std::vector<std::byte> want = pattern(iter, a);
      const util::Buffer back = accs[static_cast<std::size_t>(a)]->memcpy_d2h(
          ptrs[static_cast<std::size_t>(a)], kBytes);
      ASSERT_EQ(back.size(), want.size());
      EXPECT_EQ(std::memcmp(back.bytes().data(), want.data(), want.size()), 0)
          << "iter " << iter << " acc " << a;
    }
  }
  for (core::Accelerator* acc : accs) job.session().release(acc);
}

/// Urgent latecomer: preempts one batch lease, computes briefly, leaves.
void urgent_body(rt::JobContext& job) {
  job.ctx().wait_for(1_ms);
  auto accs = job.session().acquire(
      ResourceRequest{}.with_count(1).with_wait(true));
  ASSERT_EQ(accs.size(), 1u);
  const gpu::DevPtr d = accs[0]->mem_alloc(kBytes);
  const std::vector<std::byte> host = pattern(99, 0);
  accs[0]->memcpy_h2d(d, util::Buffer::backed_copy(
                             std::span<const std::byte>(host)));
  const util::Buffer back = accs[0]->memcpy_d2h(d, kBytes);
  EXPECT_EQ(std::memcmp(back.bytes().data(), host.data(), host.size()), 0);
  job.ctx().wait_for(1_ms);
  accs[0]->mem_free(d);
  job.session().release(accs[0]);
}

void run_preemption_scenario(rt::ClusterConfig config) {
  config.retry.replace_on_failure = true;
  rt::Cluster cluster(std::move(config));
  dacc::testing::FlightOnFailure post_mortem(cluster);
  rt::JobSpec batch;
  batch.name = "batch";
  batch.priority = kPriorityBatch;
  batch.body = batch_body;
  rt::JobSpec urgent;
  urgent.name = "urgent";
  urgent.priority = kPriorityUrgent;
  urgent.body = urgent_body;
  cluster.submit(batch, /*first_cn=*/0);
  cluster.submit(urgent, /*first_cn=*/1);
  cluster.run();

  const PoolStats s = cluster.arm_stats();
  EXPECT_EQ(s.preemptions, 1u);   // exactly one lease was revoked for B
  EXPECT_EQ(s.replacements, 1u);  // and replayed onto a fresh lease
  EXPECT_EQ(s.revocations, 0u);   // no liveness revocation happened
  EXPECT_EQ(s.broken, 0u);  // the preempted slot is healthy, never reported
  EXPECT_EQ(s.total, 2u);
  EXPECT_EQ(s.free, 2u);
}

TEST(Preempt, UrgentEvictsBatchAndReplayRestoresState) {
  run_preemption_scenario(small_cluster(/*cns=*/2, /*acs=*/2));
}

TEST(Preempt, ReplayIntegritySurvivesTheReplicatedArm) {
  run_preemption_scenario(
      replicated_cluster(/*cns=*/2, /*acs=*/2, /*replicas=*/3));
}

TEST(Preempt, EqualPriorityNeverPreempts) {
  // Two normal-class jobs: the latecomer waits for a release instead of
  // evicting anyone.
  rt::Cluster cluster(small_cluster(/*cns=*/2, /*acs=*/2));
  SimTime granted_at = 0;
  rt::JobSpec holder;
  holder.body = [](rt::JobContext& job) {
    auto accs = job.session().acquire(
        ResourceRequest{}.with_count(2).with_wait(true));
    ASSERT_EQ(accs.size(), 2u);
    job.ctx().wait_for(2_ms);
    for (core::Accelerator* acc : accs) job.session().release(acc);
  };
  rt::JobSpec latecomer;
  latecomer.body = [&](rt::JobContext& job) {
    job.ctx().wait_for(500_us);
    auto accs = job.session().acquire(
        ResourceRequest{}.with_count(1).with_wait(true));
    ASSERT_EQ(accs.size(), 1u);
    granted_at = job.ctx().now();
    job.session().release(accs[0]);
  };
  cluster.submit(holder, /*first_cn=*/0);
  cluster.submit(latecomer, /*first_cn=*/1);
  cluster.run();
  EXPECT_EQ(cluster.arm_stats().preemptions, 0u);
  EXPECT_GE(granted_at, 2_ms);  // served by the release, not by eviction
}

}  // namespace
}  // namespace dacc::arm
