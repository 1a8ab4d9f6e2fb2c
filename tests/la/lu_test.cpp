// LU with partial pivoting: host reference and hybrid multi-GPU runs.
#include <gtest/gtest.h>

#include "common/la_reference.hpp"
#include "la/factorizations.hpp"
#include "la/lapack.hpp"
#include "rt/cluster.hpp"
#include "util/rng.hpp"

namespace dacc::la {
namespace {

HostMatrix random_matrix(int m, int n, std::uint64_t seed) {
  util::Rng rng(seed);
  HostMatrix a(m, n);
  a.fill_random(rng);
  return a;
}

TEST(Lu, Dgetf2KnownMatrix) {
  // A = [0 1; 2 3] needs a pivot swap.
  HostMatrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 3.0;
  std::vector<int> ipiv(2);
  EXPECT_EQ(dgetf2(2, 2, a.data(), 2, ipiv.data(), 0), 0);
  EXPECT_EQ(ipiv[0], 1);  // row 0 swapped with row 1
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 0.0);   // L(1,0)
  EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);   // U(1,1)
}

TEST(Lu, Dgetf2DetectsSingular) {
  HostMatrix a(2, 2);  // all zeros
  std::vector<int> ipiv(2);
  EXPECT_NE(dgetf2(2, 2, a.data(), 2, ipiv.data(), 0), 0);
}

class GetrfHostP : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GetrfHostP, ResidualIsTiny) {
  const auto [m, n, nb] = GetParam();
  HostMatrix a = random_matrix(m, n, 31 + static_cast<std::uint64_t>(m * n));
  HostMatrix original = a;
  std::vector<int> ipiv;
  ASSERT_EQ(dgetrf_host(a, nb, ipiv), 0);
  EXPECT_LT(lu_residual(original, a, ipiv), 1e-10 * std::max(m, n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GetrfHostP,
    ::testing::Values(std::tuple{1, 1, 4}, std::tuple{8, 8, 4},
                      std::tuple{16, 16, 16}, std::tuple{33, 17, 8},
                      std::tuple{17, 33, 8}, std::tuple{64, 64, 16},
                      std::tuple{96, 64, 32}));

TEST(Lu, BlockedMatchesUnblocked) {
  const int n = 24;
  HostMatrix a = random_matrix(n, n, 5);
  HostMatrix b = a;
  std::vector<int> ipiv_blocked;
  ASSERT_EQ(dgetrf_host(a, 7, ipiv_blocked), 0);
  std::vector<int> ipiv_unblocked(static_cast<std::size_t>(n));
  ASSERT_EQ(dgetf2(n, n, b.data(), n, ipiv_unblocked.data(), 0), 0);
  EXPECT_LT(HostMatrix::max_abs_diff(a, b), 1e-11);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(ipiv_blocked[static_cast<std::size_t>(i)],
              ipiv_unblocked[static_cast<std::size_t>(i)]);
  }
}

TEST(Lu, PivotingActuallyPivots) {
  // Without pivoting this matrix blows up; with it the residual stays tiny.
  const int n = 32;
  HostMatrix a = random_matrix(n, n, 9);
  for (int i = 0; i < n / 2; ++i) a.at(i, i) = 1e-14;  // tiny diagonal
  HostMatrix original = a;
  std::vector<int> ipiv;
  ASSERT_EQ(dgetrf_host(a, 8, ipiv), 0);
  EXPECT_LT(lu_residual(original, a, ipiv), 1e-10 * n);
  int swaps = 0;
  for (std::size_t i = 0; i < ipiv.size(); ++i) {
    if (ipiv[i] != static_cast<int>(i)) ++swaps;
  }
  EXPECT_GT(swaps, 0);
}

// --- hybrid runs through the full middleware --------------------------------

class LuRemoteP : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(LuRemoteP, MatchesHostReference) {
  const auto [n, nb, g] = GetParam();
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = g;
  config.registry = la_registry();
  rt::Cluster cluster(config);
  rt::JobSpec spec;
  spec.accelerators_per_rank = static_cast<std::uint32_t>(g);
  spec.body = [&, n = n, nb = nb](rt::JobContext& job) {
    std::vector<std::unique_ptr<core::RemoteDeviceLink>> links;
    std::vector<core::DeviceLink*> gpus;
    for (std::size_t i = 0; i < job.session().size(); ++i) {
      links.push_back(std::make_unique<core::RemoteDeviceLink>(
          job.session()[i], job.ctx()));
      gpus.push_back(links.back().get());
    }
    HostMatrix a = random_matrix(n, n, 400 + static_cast<std::uint64_t>(n));
    HostMatrix original = a;
    std::vector<int> ipiv;
    const FactorResult r =
        dgetrf_hybrid(job.ctx(), gpus, a, nb, LaParams{}, &ipiv);
    ASSERT_EQ(r.info, 0);
    EXPECT_GT(r.factor_time, 0u);
    EXPECT_LT(lu_residual(original, a, ipiv), 1e-10 * n);

    // Cross-check against the host reference factors directly.
    HostMatrix reference = original;
    std::vector<int> ref_ipiv;
    ASSERT_EQ(dgetrf_host(reference, nb, ref_ipiv), 0);
    EXPECT_LT(HostMatrix::max_abs_diff(a, reference), 1e-10);
  };
  cluster.submit(spec);
  cluster.run();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LuRemoteP,
    ::testing::Values(std::tuple{16, 16, 1}, std::tuple{48, 16, 1},
                      std::tuple{48, 16, 2}, std::tuple{48, 16, 3},
                      std::tuple{64, 16, 2}, std::tuple{72, 16, 3},
                      std::tuple{50, 16, 2}));

TEST(LuShapes, MultiGpuScalesAtLargeN) {
  auto gflops_with = [](int g) {
    rt::ClusterConfig config;
    config.compute_nodes = 1;
    config.accelerators = g;
    config.functional_gpus = false;
    config.registry = la_registry();
    rt::Cluster cluster(config);
    double out = 0.0;
    rt::JobSpec spec;
    spec.accelerators_per_rank = static_cast<std::uint32_t>(g);
    spec.body = [&](rt::JobContext& job) {
      std::vector<std::unique_ptr<core::RemoteDeviceLink>> links;
      std::vector<core::DeviceLink*> gpus;
      for (std::size_t i = 0; i < job.session().size(); ++i) {
        links.push_back(std::make_unique<core::RemoteDeviceLink>(
            job.session()[i], job.ctx()));
        gpus.push_back(links.back().get());
      }
      HostMatrix a(4096, 4096, false);
      out = dgetrf_hybrid(job.ctx(), gpus, a, 128).gflops;
    };
    cluster.submit(spec);
    cluster.run();
    return out;
  };
  const double g1 = gflops_with(1);
  const double g3 = gflops_with(3);
  EXPECT_GT(g3, g1 * 1.5);
}

}  // namespace
}  // namespace dacc::la
