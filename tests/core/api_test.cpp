// End-to-end tests of the public ac* API through the full stack:
// Session -> proxy -> wire protocol -> daemon -> simulated GPU.
#include "core/api.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rt/cluster.hpp"
#include "util/units.hpp"

namespace dacc::core {
namespace {

void run_job(rt::ClusterConfig config, std::uint32_t static_acs,
             std::function<void(rt::JobContext&)> body) {
  rt::Cluster cluster(std::move(config));
  rt::JobSpec spec;
  spec.accelerators_per_rank = static_acs;
  spec.body = std::move(body);
  cluster.submit(spec);
  cluster.run();
}

rt::ClusterConfig one_cn_two_acs() {
  rt::ClusterConfig c;
  c.compute_nodes = 1;
  c.accelerators = 2;
  return c;
}

TEST(Api, StaticAssignmentProvidesAccelerators) {
  run_job(one_cn_two_acs(), 2, [](rt::JobContext& job) {
    EXPECT_EQ(job.session().size(), 2u);
    EXPECT_NE(job.session()[0].daemon_rank(),
              job.session()[1].daemon_rank());
  });
}

TEST(Api, ListingTwoSequenceEndToEnd) {
  // The paper's Listing 2, verbatim through the public API.
  run_job(one_cn_two_acs(), 1, [](rt::JobContext& job) {
    Accelerator& ac = job.session()[0];
    const std::int64_t n = 300;
    const auto bytes = static_cast<std::uint64_t>(n) * 8;

    const gpu::DevPtr dx = ac.mem_alloc(bytes);      // acMemAlloc
    std::vector<double> x(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<double>(i);
    }
    ac.memcpy_h2d(dx, util::Buffer::of<double>(      // acMemCpy
                          std::span<const double>(x)));
    Kernel k = ac.kernel_create("dscal");            // acKernelCreate
    k.set_args({n, 3.0, dx});                        // acKernelSetArgs
    k.run();                                         // acKernelRun
    auto out = ac.memcpy_d2h(dx, bytes);             // acMemCpy
    ac.mem_free(dx);                                 // acMemFree

    auto view = out.as<double>();
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_DOUBLE_EQ(view[i], 3.0 * static_cast<double>(i));
    }
  });
}

TEST(Api, DynamicAcquireRelease) {
  run_job(one_cn_two_acs(), 0, [](rt::JobContext& job) {
    Session& session = job.session();
    EXPECT_EQ(session.size(), 0u);
    auto accs = session.acquire(2);
    ASSERT_EQ(accs.size(), 2u);
    EXPECT_EQ(session.arm().stats().free, 0u);
    session.release(accs[0]);
    EXPECT_EQ(session.arm().stats().free, 1u);
    EXPECT_EQ(session.size(), 1u);
  });
}

TEST(Api, AcquireFailureYieldsEmpty) {
  run_job(one_cn_two_acs(), 0, [](rt::JobContext& job) {
    EXPECT_TRUE(job.session().acquire(5).empty());
  });
}

TEST(Api, SessionCloseReturnsLeases) {
  rt::Cluster cluster(one_cn_two_acs());
  rt::JobSpec spec;
  spec.accelerators_per_rank = 2;
  spec.body = [](rt::JobContext&) { /* hold and exit */ };
  cluster.submit(spec);
  cluster.run();
  // After the job finished, everything is free again.
  EXPECT_EQ(cluster.arm_stats().free, 2u);
}

TEST(Api, AllocationFailureThrowsAcError) {
  run_job(one_cn_two_acs(), 1, [](rt::JobContext& job) {
    try {
      (void)job.session()[0].mem_alloc(1ull << 60);
      FAIL() << "expected AcError";
    } catch (const AcError& e) {
      EXPECT_EQ(e.code(), gpu::Result::kOutOfMemory);
    }
  });
}

TEST(Api, UnknownKernelThrowsOnCreate) {
  run_job(one_cn_two_acs(), 1, [](rt::JobContext& job) {
    EXPECT_THROW((void)job.session()[0].kernel_create("missing"), AcError);
  });
}

TEST(Api, DeviceInfoReportsSimulatedC1060) {
  run_job(one_cn_two_acs(), 1, [](rt::JobContext& job) {
    const DeviceInfo info = job.session()[0].info();
    EXPECT_EQ(info.name, "Tesla C1060 (simulated)");
    EXPECT_EQ(info.memory_bytes, info.memory_free);
  });
}

TEST(Api, AsyncOpsOverlapAcrossAccelerators) {
  // Two H2D copies to two different accelerators finish in about the time
  // of one (the CN tx port is shared, so not exactly half — but far less
  // than serial).
  rt::ClusterConfig config = one_cn_two_acs();
  config.functional_gpus = false;
  run_job(config, 2, [](rt::JobContext& job) {
    Accelerator& a = job.session()[0];
    Accelerator& b = job.session()[1];
    const std::uint64_t bytes = 16_MiB;
    const gpu::DevPtr da = a.mem_alloc(bytes);
    const gpu::DevPtr db = b.mem_alloc(bytes);

    // Serial reference.
    const SimTime t0 = job.ctx().now();
    a.memcpy_h2d(da, util::Buffer::phantom(bytes));
    b.memcpy_h2d(db, util::Buffer::phantom(bytes));
    const SimDuration serial = job.ctx().now() - t0;

    // Overlapped.
    const SimTime t1 = job.ctx().now();
    Future fa = a.memcpy_h2d_async(da, util::Buffer::phantom(bytes));
    Future fb = b.memcpy_h2d_async(db, util::Buffer::phantom(bytes));
    fa.get(job.ctx());
    fb.get(job.ctx());
    const SimDuration overlapped = job.ctx().now() - t1;

    EXPECT_LT(overlapped, serial);
  });
}

TEST(Api, AsyncOpsToOneAcceleratorStayOrdered) {
  run_job(one_cn_two_acs(), 1, [](rt::JobContext& job) {
    Accelerator& ac = job.session()[0];
    const std::int64_t n = 64;
    const gpu::DevPtr p = ac.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    // fill(1), scale(*2), add self => 4.0; only correct if ordered.
    Future f1 = ac.launch_async("fill_f64", {}, {p, n, 1.0});
    Future f2 = ac.launch_async("dscal", {}, {n, 2.0, p});
    Future f3 = ac.launch_async("vector_add_f64", {}, {p, p, p, n});
    f3.get(job.ctx());
    EXPECT_TRUE(f1.done());
    EXPECT_TRUE(f2.done());
    auto out = ac.memcpy_d2h(p, static_cast<std::uint64_t>(n) * 8);
    for (double v : out.as<double>()) EXPECT_DOUBLE_EQ(v, 4.0);
  });
}

/// Spawns one process per entry of `delays` on the job's node; process w
/// sleeps delays[w], then waits on `f` and appends w to `woke`.
void spawn_waiters(rt::JobContext& job, const Future& f,
                   const std::vector<SimDuration>& delays,
                   std::vector<int>& woke,
                   std::vector<sim::Process*>* procs = nullptr) {
  for (std::size_t w = 0; w < delays.size(); ++w) {
    sim::Process& p = job.ctx().engine().spawn(
        "waiter" + std::to_string(w),
        [f = f, delay = delays[w], w, &woke](sim::Context& ctx) mutable {
          ctx.wait_for(delay);
          f.wait(ctx);
          woke.push_back(static_cast<int>(w));
        });
    if (procs != nullptr) procs->push_back(&p);
  }
}

TEST(Api, FutureWakesEveryWaiterInRegistrationOrder) {
  run_job(one_cn_two_acs(), 1, [](rt::JobContext& job) {
    Accelerator& ac = job.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(1_MiB);
    Future f = ac.memcpy_h2d_async(p, util::Buffer::phantom(1_MiB));
    // Waiter 1 starts waiting before waiter 0.
    std::vector<int> woke;
    spawn_waiters(job, f, {2'000, 1'000}, woke);
    job.ctx().wait_for(5'000);
    f.get(job.ctx());  // registered third, so it runs after both
    EXPECT_EQ(woke, (std::vector<int>{1, 0}));
  });
}

TEST(Api, SpuriouslyWokenFutureWaiterKeepsItsPlace) {
  run_job(one_cn_two_acs(), 1, [](rt::JobContext& job) {
    Accelerator& ac = job.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(1_MiB);
    Future f = ac.memcpy_h2d_async(p, util::Buffer::phantom(1_MiB));
    std::vector<int> woke;
    std::vector<sim::Process*> procs;
    spawn_waiters(job, f, {0, 1'000, 2'000}, woke, &procs);
    job.ctx().wait_for(10'000);
    ASSERT_FALSE(f.done());
    job.ctx().engine().wake(*procs[1]);
    f.get(job.ctx());
    EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
  });
}

TEST(Api, PeerCopyMovesDataAccelerartorToAccelerator) {
  run_job(one_cn_two_acs(), 2, [](rt::JobContext& job) {
    Accelerator& a = job.session()[0];
    Accelerator& b = job.session()[1];
    const std::int64_t n = 1024;
    const auto bytes = static_cast<std::uint64_t>(n) * 8;
    const gpu::DevPtr da = a.mem_alloc(bytes);
    const gpu::DevPtr db = b.mem_alloc(bytes);
    a.launch("fill_f64", {}, {da, n, 5.5});
    a.copy_to_peer(da, b, db, bytes);
    auto out = b.memcpy_d2h(db, bytes);
    for (double v : out.as<double>()) EXPECT_DOUBLE_EQ(v, 5.5);
  });
}

TEST(Api, PeerCopyDoesNotTouchComputeNodeNic) {
  rt::ClusterConfig config = one_cn_two_acs();
  config.functional_gpus = false;
  rt::Cluster cluster(config);
  rt::JobSpec spec;
  spec.accelerators_per_rank = 2;
  spec.body = [&](rt::JobContext& job) {
    Accelerator& a = job.session()[0];
    Accelerator& b = job.session()[1];
    const std::uint64_t bytes = 8_MiB;
    const gpu::DevPtr da = a.mem_alloc(bytes);
    const gpu::DevPtr db = b.mem_alloc(bytes);
    const std::uint64_t cn_sent_before = job.cluster().fabric().bytes_sent(0);
    a.copy_to_peer(da, b, db, bytes);
    const std::uint64_t cn_sent_after = job.cluster().fabric().bytes_sent(0);
    // Only the small request/response control traffic crosses the CN NIC.
    EXPECT_LT(cn_sent_after - cn_sent_before, 64_KiB);
  };
  cluster.submit(spec);
  cluster.run();
  // The bulk went daemon-to-daemon.
  EXPECT_GE(cluster.fabric().bytes_sent(cluster.daemon_rank(0)), 8_MiB);
}

TEST(Api, PeerCopyFromADeviceThatDiesMidTransferFails) {
  // The source breaks a quarter of the way into a ~12 ms copy, so its
  // later DMAs fail and the peer receives zero blocks. The copy must report
  // the source's failure, not the peer's verdict on the zeros.
  rt::ClusterConfig config = one_cn_two_acs();
  config.functional_gpus = false;
  rt::Cluster cluster(config);
  rt::JobSpec spec;
  spec.accelerators_per_rank = 2;
  spec.body = [&](rt::JobContext& job) {
    Accelerator& a = job.session()[0];
    Accelerator& b = job.session()[1];
    const std::uint64_t bytes = 32_MiB;
    const gpu::DevPtr da = a.mem_alloc(bytes);
    const gpu::DevPtr db = b.mem_alloc(bytes);
    Future copy = a.copy_to_peer_async(da, b, db, bytes);
    job.ctx().wait_for(3'000'000);
    ASSERT_FALSE(copy.done());
    const int source = cluster.daemon_rank(0) == a.daemon_rank() ? 0 : 1;
    cluster.accelerator_device(source).mark_broken();
    copy.wait(job.ctx());
    EXPECT_EQ(copy.status(), gpu::Result::kEccError);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Api, UseAfterReleaseThrows) {
  run_job(one_cn_two_acs(), 0, [](rt::JobContext& job) {
    auto accs = job.session().acquire(1);
    ASSERT_EQ(accs.size(), 1u);
    Accelerator* ac = accs[0];
    const gpu::DevPtr p = ac->mem_alloc(64);
    (void)p;
    job.session().release(ac);
    // The pointer is dangling by contract; a fresh acquire gives a new one.
    auto again = job.session().acquire(1);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_NO_THROW((void)again[0]->mem_alloc(64));
  });
}

TEST(Api, BrokenAcceleratorSurfacesEccAndCanBeReported) {
  rt::ClusterConfig config = one_cn_two_acs();
  rt::Cluster cluster(config);
  cluster.break_accelerator(0, 1_ms);
  rt::JobSpec spec;
  spec.accelerators_per_rank = 2;
  spec.body = [&](rt::JobContext& job) {
    Accelerator& a = job.session()[0];  // leases are granted in pool order
    Accelerator& b = job.session()[1];
    job.ctx().wait_for(2_ms);  // let the fault fire
    bool hit_ecc = false;
    try {
      (void)a.mem_alloc(64);
    } catch (const AcError& e) {
      hit_ecc = e.code() == gpu::Result::kEccError;
    }
    EXPECT_TRUE(hit_ecc);
    // The CN itself is fine: work continues on the healthy accelerator.
    EXPECT_NO_THROW((void)b.mem_alloc(64));
    EXPECT_EQ(job.session().arm().report_broken(a.daemon_rank()),
              arm::ArmResult::kOk);
    EXPECT_EQ(job.session().arm().stats().broken, 1u);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Api, TwoProxiesOfOneRankOnOneDaemonGetTheirOwnReplies) {
  // Two sessions of one CN rank drive one daemon through two proxies, as
  // the proxies of two jobs on one node do. Each must get its own replies,
  // so the reply tags their channels mint must never coincide.
  rt::Cluster cluster(one_cn_two_acs());
  rt::JobSpec spec;
  spec.accelerators_per_rank = 1;
  spec.body = [&](rt::JobContext& job) {
    Session& a = job.session();
    Session b(cluster.world(), job.ctx(), cluster.cn_rank(0),
              cluster.world().world_comm(), a.config());
    Accelerator& ac_a = a[0];
    Accelerator& ac_b = *b.attach(ac_a.lease());
    // One synchronous op each, so both channels sit at the same count.
    const gpu::DevPtr p = ac_a.mem_alloc(4_KiB);
    EXPECT_FALSE(ac_b.info().name.empty());
    // A D2H answers twice on its reply tag (a status before the data, a
    // status after it); the alloc's reply must not take the second.
    Future d2h = ac_a.memcpy_d2h_async(p, 4_KiB);
    Future alloc = ac_b.mem_alloc_async(256);
    d2h.get(job.ctx());
    alloc.get(job.ctx());
    EXPECT_EQ(d2h.take_data().size(), 4_KiB);
    EXPECT_NE(alloc.ptr(), p);
    b.release(&ac_b);
  };
  cluster.submit(spec);
  cluster.run();
}

}  // namespace
}  // namespace dacc::core
