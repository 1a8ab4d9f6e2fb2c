#include "rt/cluster.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/units.hpp"

namespace dacc::rt {
namespace {

TEST(Cluster, TopologyRanksAreDisjoint) {
  ClusterConfig c;
  c.compute_nodes = 4;
  c.accelerators = 3;
  Cluster cluster(c);
  EXPECT_EQ(cluster.cn_rank(0), 0);
  EXPECT_EQ(cluster.cn_rank(3), 3);
  EXPECT_EQ(cluster.daemon_rank(0), 4);
  EXPECT_EQ(cluster.daemon_rank(2), 6);
  EXPECT_EQ(cluster.arm_rank(), 7);
  EXPECT_EQ(cluster.world().size(), 8);
  EXPECT_THROW((void)cluster.cn_rank(4), std::out_of_range);
  EXPECT_THROW((void)cluster.daemon_rank(3), std::out_of_range);
}

TEST(Cluster, ZeroAcceleratorClusterIsValid) {
  ClusterConfig c;
  c.compute_nodes = 2;
  c.accelerators = 0;
  Cluster cluster(c);
  bool ran = false;
  JobSpec spec;
  spec.body = [&](JobContext& job) {
    ran = true;
    EXPECT_TRUE(job.session()
                    .arm()
                    .acquire(arm::ResourceRequest{}.with_job(1).with_count(1))
                    .empty());
  };
  cluster.submit(spec);
  cluster.run();
  EXPECT_TRUE(ran);
}

TEST(Cluster, MultiRankJobGetsCommunicator) {
  ClusterConfig c;
  c.compute_nodes = 3;
  c.accelerators = 0;
  Cluster cluster(c);
  std::vector<int> sums(3, -1);
  JobSpec spec;
  spec.ranks = 3;
  spec.body = [&](JobContext& job) {
    EXPECT_EQ(job.size(), 3);
    const double total = job.mpi().allreduce_sum(
        job.job_comm(), static_cast<double>(job.rank()));
    sums[static_cast<std::size_t>(job.rank())] = static_cast<int>(total);
  };
  cluster.submit(spec);
  cluster.run();
  for (int s : sums) EXPECT_EQ(s, 3);  // 0+1+2
}

TEST(Cluster, JobsOnDisjointNodesRunConcurrently) {
  ClusterConfig c;
  c.compute_nodes = 2;
  c.accelerators = 0;
  Cluster cluster(c);
  std::vector<SimTime> finished(2, 0);
  for (int j = 0; j < 2; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.body = [&finished, j](JobContext& job) {
      job.ctx().wait_for(10_ms);
      finished[static_cast<std::size_t>(j)] = job.ctx().now();
    };
    cluster.submit(spec, /*first_cn=*/j);
  }
  cluster.run();
  // Concurrent, not serialized: both finish around 10 ms.
  EXPECT_LT(finished[0], 11_ms);
  EXPECT_LT(finished[1], 11_ms);
}

TEST(Cluster, StaticAssignmentWaitsForPool) {
  // Job A holds the only accelerator for 5 ms; job B's static allocation
  // queues and B starts only after A ends.
  ClusterConfig c;
  c.compute_nodes = 2;
  c.accelerators = 1;
  Cluster cluster(c);
  SimTime b_started = 0;
  JobSpec a;
  a.name = "a";
  a.accelerators_per_rank = 1;
  a.body = [](JobContext& job) { job.ctx().wait_for(5_ms); };
  JobSpec b;
  b.name = "b";
  b.accelerators_per_rank = 1;
  b.body = [&](JobContext& job) { b_started = job.ctx().now(); };
  cluster.submit(a, 0);
  cluster.submit(b, 1);
  cluster.run();
  EXPECT_GE(b_started, 5_ms);
}

TEST(Cluster, JobHandleSignalsCompletion) {
  ClusterConfig c;
  c.compute_nodes = 2;
  c.accelerators = 0;
  Cluster cluster(c);
  JobSpec inner;
  inner.name = "inner";
  inner.body = [](JobContext& job) { job.ctx().wait_for(1_ms); };
  JobHandle handle = cluster.submit(inner, 1);
  SimTime observed = 0;
  JobSpec outer;
  outer.name = "outer";
  outer.body = [&](JobContext& job) {
    handle.wait(job.ctx());
    observed = job.ctx().now();
  };
  cluster.submit(outer, 0);
  cluster.run();
  EXPECT_GE(observed, 1_ms);
  EXPECT_TRUE(handle.done());
}

TEST(Cluster, SubmitValidation) {
  ClusterConfig c;
  c.compute_nodes = 2;
  c.accelerators = 0;
  Cluster cluster(c);
  JobSpec spec;
  spec.body = [](JobContext&) {};
  spec.ranks = 3;
  EXPECT_THROW(cluster.submit(spec), std::invalid_argument);
  spec.ranks = 1;
  EXPECT_THROW(cluster.submit(spec, 2), std::invalid_argument);
  JobSpec empty;
  EXPECT_THROW(cluster.submit(empty), std::invalid_argument);
}

TEST(Cluster, LocalGpuAvailableWhenConfigured) {
  ClusterConfig c;
  c.compute_nodes = 1;
  c.accelerators = 0;
  c.local_gpus = true;
  Cluster cluster(c);
  JobSpec spec;
  spec.body = [](JobContext& job) {
    gpu::Driver drv = job.local_gpu();
    const gpu::DevPtr p = drv.mem_alloc(1024);
    drv.memcpy_htod(p, util::Buffer::backed_zero(1024));
    EXPECT_EQ(drv.memcpy_dtoh(p, 1024).size(), 1024u);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Cluster, LocalGpuThrowsWhenAbsent) {
  ClusterConfig c;
  c.compute_nodes = 1;
  c.accelerators = 0;
  Cluster cluster(c);
  JobSpec spec;
  spec.body = [](JobContext& job) {
    EXPECT_THROW((void)job.local_gpu(), std::logic_error);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Cluster, SequentialJobsReuseAccelerators) {
  ClusterConfig c;
  c.compute_nodes = 1;
  c.accelerators = 1;
  Cluster cluster(c);
  int jobs_ran = 0;
  for (int j = 0; j < 3; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.accelerators_per_rank = 1;  // queues on the single accelerator
    spec.body = [&](JobContext& job) {
      (void)job.session()[0].mem_alloc(64);
      ++jobs_ran;
    };
    cluster.submit(spec);
  }
  cluster.run();
  EXPECT_EQ(jobs_ran, 3);
  EXPECT_EQ(cluster.arm_stats().free, 1u);
}

TEST(Cluster, ReportAggregatesUtilization) {
  ClusterConfig c;
  c.compute_nodes = 1;
  c.accelerators = 2;
  Cluster cluster(c);
  JobSpec spec;
  spec.accelerators_per_rank = 1;  // only ac0 gets leased
  spec.body = [](JobContext& job) {
    auto& ac = job.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(8_MiB);
    ac.memcpy_h2d(p, util::Buffer::backed_zero(8_MiB));
    ac.launch("fill_f64", {}, {p, std::int64_t{1 << 20}, 1.0});
  };
  cluster.submit(spec);
  cluster.run();
  const Cluster::Report report = cluster.report();
  ASSERT_EQ(report.accelerators.size(), 2u);
  EXPECT_GT(report.accelerators[0].lease_util, 0.5);
  EXPECT_GT(report.accelerators[0].copy_util, 0.0);
  EXPECT_GT(report.accelerators[0].compute_util, 0.0);
  EXPECT_GE(report.accelerators[0].requests, 3u);
  EXPECT_EQ(report.accelerators[1].lease_util, 0.0);
  EXPECT_EQ(report.accelerators[1].requests, 0u);
  EXPECT_GE(report.cn_bytes_sent, 8_MiB);
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("cluster utilization"), std::string::npos);
}

TEST(Cluster, DeterministicReplay) {
  auto run_once = [] {
    ClusterConfig c;
    c.compute_nodes = 2;
    c.accelerators = 2;
    Cluster cluster(c);
    JobSpec spec;
    spec.ranks = 2;
    spec.accelerators_per_rank = 1;
    spec.body = [](JobContext& job) {
      auto& ac = job.session()[0];
      const gpu::DevPtr p = ac.mem_alloc(1_MiB);
      ac.memcpy_h2d(p, util::Buffer::backed_zero(1_MiB));
      (void)ac.memcpy_d2h(p, 1_MiB);
      (void)job.mpi().allreduce_sum(job.job_comm(), 1.0);
    };
    cluster.submit(spec);
    cluster.run();
    return cluster.engine().now();
  };
  const SimTime a = run_once();
  const SimTime b = run_once();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dacc::rt
