// Integration tests for the hybrid factorizations: numerics verified through
// the full remote middleware at small sizes, timing shapes checked in
// phantom mode at larger sizes.
#include "la/factorizations.hpp"

#include <gtest/gtest.h>

#include "common/la_reference.hpp"
#include "la/lapack.hpp"
#include "rt/cluster.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dacc::la {
namespace {

rt::ClusterConfig la_cluster(int accelerators, bool functional,
                             bool local_gpus = false) {
  rt::ClusterConfig c;
  c.compute_nodes = 1;
  c.accelerators = accelerators;
  c.functional_gpus = functional;
  c.local_gpus = local_gpus;
  c.registry = la_registry();
  return c;
}

/// Runs `body` as a 1-rank job with `acs` statically assigned accelerators.
void run_la_job(
    rt::ClusterConfig config, std::uint32_t acs,
    std::function<void(rt::JobContext&, std::vector<core::DeviceLink*>&)>
        body) {
  rt::Cluster cluster(std::move(config));
  rt::JobSpec spec;
  spec.accelerators_per_rank = acs;
  spec.body = [&](rt::JobContext& job) {
    std::vector<std::unique_ptr<core::RemoteDeviceLink>> remotes;
    std::vector<core::DeviceLink*> gpus;
    for (std::size_t i = 0; i < job.session().size(); ++i) {
      remotes.push_back(std::make_unique<core::RemoteDeviceLink>(
          job.session()[i], job.ctx()));
      gpus.push_back(remotes.back().get());
    }
    body(job, gpus);
  };
  cluster.submit(spec);
  cluster.run();
}

HostMatrix random_matrix(int m, int n, std::uint64_t seed) {
  util::Rng rng(seed);
  HostMatrix a(m, n);
  a.fill_random(rng);
  return a;
}

// --- functional correctness (real numerics through the full stack) ---------

class QrRemoteP : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(QrRemoteP, MatchesHostReference) {
  const auto [n, nb, g] = GetParam();
  run_la_job(la_cluster(g, true), static_cast<std::uint32_t>(g),
             [&](rt::JobContext& job, std::vector<core::DeviceLink*>& gpus) {
               HostMatrix a = random_matrix(n, n, 1000 + n);
               HostMatrix original = a;
               std::vector<double> tau;
               const FactorResult r = dgeqrf_hybrid(
                   job.ctx(), gpus, a, nb, LaParams{}, &tau);
               EXPECT_GT(r.factor_time, 0u);
               EXPECT_LT(qr_residual(original, a, tau), 1e-10 * n);
               EXPECT_LT(qr_orthogonality(a, tau), 1e-11 * n);
             });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrRemoteP,
    ::testing::Values(std::tuple{16, 16, 1},  // single panel, 1 GPU
                      std::tuple{48, 16, 1}, std::tuple{48, 16, 2},
                      std::tuple{48, 16, 3},  // more GPUs than... 3 blocks
                      std::tuple{64, 16, 2},  // even split
                      std::tuple{72, 16, 3},  // ragged split
                      std::tuple{50, 16, 2}   // partial last block
                      ));

class CholRemoteP : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(CholRemoteP, MatchesHostReference) {
  const auto [n, nb, g] = GetParam();
  run_la_job(la_cluster(g, true), static_cast<std::uint32_t>(g),
             [&](rt::JobContext& job, std::vector<core::DeviceLink*>& gpus) {
               HostMatrix a = random_matrix(n, n, 2000 + n);
               make_spd(a);
               HostMatrix original = a;
               const FactorResult r =
                   dpotrf_hybrid(job.ctx(), gpus, a, nb);
               ASSERT_EQ(r.info, 0);
               EXPECT_LT(cholesky_residual(original, a), 1e-9 * n);
             });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CholRemoteP,
    ::testing::Values(std::tuple{16, 16, 1}, std::tuple{48, 16, 1},
                      std::tuple{48, 16, 2}, std::tuple{48, 16, 3},
                      std::tuple{64, 16, 2}, std::tuple{72, 16, 3},
                      std::tuple{50, 16, 2}));

TEST(FactorizationsLocal, QrOnLocalGpuMatchesReference) {
  rt::Cluster cluster(la_cluster(0, true, /*local_gpus=*/true));
  rt::JobSpec spec;
  spec.body = [](rt::JobContext& job) {
    core::LocalDeviceLink local(job.local_gpu());
    std::vector<core::DeviceLink*> gpus{&local};
    HostMatrix a = random_matrix(48, 48, 77);
    HostMatrix original = a;
    std::vector<double> tau;
    (void)dgeqrf_hybrid(job.ctx(), gpus, a, 16, LaParams{}, &tau);
    EXPECT_LT(qr_residual(original, a, tau), 1e-10 * 48);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(FactorizationsLocal, CholeskyOnLocalGpuMatchesReference) {
  rt::Cluster cluster(la_cluster(0, true, true));
  rt::JobSpec spec;
  spec.body = [](rt::JobContext& job) {
    core::LocalDeviceLink local(job.local_gpu());
    std::vector<core::DeviceLink*> gpus{&local};
    HostMatrix a = random_matrix(48, 48, 88);
    make_spd(a);
    HostMatrix original = a;
    const FactorResult r = dpotrf_hybrid(job.ctx(), gpus, a, 16);
    ASSERT_EQ(r.info, 0);
    EXPECT_LT(cholesky_residual(original, a), 1e-9 * 48);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(Factorizations, CholeskyReportsIndefiniteMatrix) {
  run_la_job(la_cluster(1, true), 1,
             [&](rt::JobContext& job, std::vector<core::DeviceLink*>& gpus) {
               HostMatrix a = random_matrix(32, 32, 3);  // not SPD
               const FactorResult r = dpotrf_hybrid(job.ctx(), gpus, a, 16);
               EXPECT_NE(r.info, 0);
             });
}

// --- timing shapes (phantom mode, paper-scale behaviour) --------------------

double qr_gflops_with(int n, int g, bool local) {
  double out = 0.0;
  if (local) {
    rt::Cluster cluster(la_cluster(0, false, true));
    rt::JobSpec spec;
    spec.body = [&](rt::JobContext& job) {
      core::LocalDeviceLink lg(job.local_gpu());
      std::vector<core::DeviceLink*> gpus{&lg};
      HostMatrix a(n, n, false);
      out = dgeqrf_hybrid(job.ctx(), gpus, a, 128).gflops;
    };
    cluster.submit(spec);
    cluster.run();
    return out;
  }
  run_la_job(la_cluster(g, false), static_cast<std::uint32_t>(g),
             [&](rt::JobContext& job, std::vector<core::DeviceLink*>& gpus) {
               HostMatrix a(n, n, false);
               out = dgeqrf_hybrid(job.ctx(), gpus, a, 128).gflops;
             });
  return out;
}

TEST(FactorizationShapes, MultiGpuScalesAtLargeN) {
  // Paper Fig. 9: on one compute node, three network-attached GPUs reach
  // ~2.2x one node-local GPU at N = 10240.
  const double local = qr_gflops_with(10240, 1, true);
  const double remote3 = qr_gflops_with(10240, 3, false);
  ASSERT_GT(local, 0.0);
  EXPECT_GE(remote3, local * 2.2);
}

TEST(FactorizationShapes, RemoteSlowerThanLocalSingleGpu) {
  const double local = qr_gflops_with(4096, 1, true);
  const double remote = qr_gflops_with(4096, 1, false);
  EXPECT_LT(remote, local);
  EXPECT_GT(remote, local * 0.75);  // but not catastrophically slower
}

TEST(FactorizationShapes, SmallProblemsDoNotBenefitFromMoreGpus) {
  const double local1 = qr_gflops_with(1024, 1, true);
  const double remote3 = qr_gflops_with(1024, 3, false);
  EXPECT_LT(remote3, local1 * 1.3);  // no 2x magic at small N
}

TEST(FactorizationShapes, PhantomAndFunctionalChargeSameTime) {
  const int n = 96;
  SimDuration t_functional = 0;
  SimDuration t_phantom = 0;
  run_la_job(la_cluster(2, true), 2,
             [&](rt::JobContext& job, std::vector<core::DeviceLink*>& gpus) {
               HostMatrix a = random_matrix(n, n, 5);
               t_functional =
                   dgeqrf_hybrid(job.ctx(), gpus, a, 32).factor_time;
             });
  run_la_job(la_cluster(2, false), 2,
             [&](rt::JobContext& job, std::vector<core::DeviceLink*>& gpus) {
               HostMatrix a(n, n, false);
               t_phantom = dgeqrf_hybrid(job.ctx(), gpus, a, 32).factor_time;
             });
  EXPECT_EQ(t_functional, t_phantom);
}

}  // namespace
}  // namespace dacc::la
