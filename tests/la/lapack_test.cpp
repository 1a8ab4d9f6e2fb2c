#include "la/lapack.hpp"

#include <gtest/gtest.h>

#include "common/la_reference.hpp"
#include "util/rng.hpp"

namespace dacc::la {
namespace {

HostMatrix random_matrix(int m, int n, std::uint64_t seed) {
  util::Rng rng(seed);
  HostMatrix a(m, n);
  a.fill_random(rng);
  return a;
}

HostMatrix random_spd(int n, std::uint64_t seed) {
  HostMatrix a = random_matrix(n, n, seed);
  make_spd(a);
  return a;
}

TEST(Lapack, Dpotf2FactorsKnownMatrix) {
  // A = L L^T with L = [2 0; 1 3].
  HostMatrix a(2, 2);
  a.at(0, 0) = 4.0;
  a.at(1, 0) = 2.0;
  a.at(0, 1) = 2.0;
  a.at(1, 1) = 10.0;
  EXPECT_EQ(dpotf2(2, a.data(), 2), 0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 3.0);
}

TEST(Lapack, Dpotf2DetectsIndefinite) {
  HostMatrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(1, 0) = 5.0;
  a.at(0, 1) = 5.0;
  a.at(1, 1) = 1.0;  // not SPD
  EXPECT_EQ(dpotf2(2, a.data(), 2), 2);
}

class PotrfHostP : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PotrfHostP, ResidualIsTiny) {
  const auto [n, nb] = GetParam();
  HostMatrix a = random_spd(n, 42 + static_cast<std::uint64_t>(n));
  HostMatrix original = a;
  ASSERT_EQ(dpotrf_host(a, nb), 0);
  EXPECT_LT(cholesky_residual(original, a), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PotrfHostP,
                         ::testing::Values(std::pair{1, 4}, std::pair{7, 4},
                                           std::pair{16, 4}, std::pair{33, 8},
                                           std::pair{64, 16},
                                           std::pair{96, 32}));

TEST(Lapack, BlockedPotrfMatchesUnblocked) {
  HostMatrix a = random_spd(24, 9);
  HostMatrix b = a;
  ASSERT_EQ(dpotrf_host(a, 5), 0);
  ASSERT_EQ(dpotf2(24, b.data(), 24), 0);
  // Compare lower triangles.
  for (int j = 0; j < 24; ++j) {
    for (int i = j; i < 24; ++i) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), 1e-11);
    }
  }
}

class GeqrfHostP
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GeqrfHostP, FactorizationIsExactAndOrthogonal) {
  const auto [m, n, nb] = GetParam();
  HostMatrix a = random_matrix(m, n, 7 + static_cast<std::uint64_t>(m + n));
  HostMatrix original = a;
  std::vector<double> tau;
  dgeqrf_host(a, nb, tau);
  EXPECT_LT(qr_residual(original, a, tau), 1e-11 * std::max(m, n));
  EXPECT_LT(qr_orthogonality(a, tau), 1e-12 * m);
  // R's diagonal should be nonzero for a random matrix.
  for (int i = 0; i < std::min(m, n); ++i) {
    EXPECT_GT(std::fabs(a.at(i, i)), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeqrfHostP,
    ::testing::Values(std::tuple{1, 1, 4}, std::tuple{8, 8, 4},
                      std::tuple{16, 16, 16},  // single panel
                      std::tuple{33, 17, 8},   // tall, ragged
                      std::tuple{17, 33, 8},   // wide
                      std::tuple{64, 64, 16}, std::tuple{96, 64, 32}));

TEST(Lapack, GeqrfBlockedMatchesUnblocked) {
  const int m = 20;
  const int n = 12;
  HostMatrix a = random_matrix(m, n, 123);
  HostMatrix b = a;
  std::vector<double> tau_blocked;
  dgeqrf_host(a, 5, tau_blocked);
  std::vector<double> tau_unblocked(static_cast<std::size_t>(n));
  dgeqr2(m, n, b.data(), m, tau_unblocked.data());
  EXPECT_LT(HostMatrix::max_abs_diff(a, b), 1e-11);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(tau_blocked[static_cast<std::size_t>(i)],
                tau_unblocked[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Lapack, DlarftDlarfbConsistentWithRankOneApplications) {
  // Applying the block reflector must equal applying H_i one by one.
  const int m = 12;
  const int k = 4;
  HostMatrix panel = random_matrix(m, k, 55);
  std::vector<double> tau(static_cast<std::size_t>(k));
  dgeqr2(m, k, panel.data(), m, tau.data());

  HostMatrix c = random_matrix(m, 6, 66);
  HostMatrix c_blocked = c;

  // One by one: C := H_k-1 ... H_0 C (that's Q^T C).
  for (int i = 0; i < k; ++i) {
    std::vector<double> v(static_cast<std::size_t>(m), 0.0);
    v[static_cast<std::size_t>(i)] = 1.0;
    for (int r = i + 1; r < m; ++r) {
      v[static_cast<std::size_t>(r)] = panel.at(r, i);
    }
    std::vector<double> w(6, 0.0);
    dgemv(Trans::kYes, m, 6, 1.0, c.data(), m, v.data(), 0.0, w.data());
    dger(m, 6, -tau[static_cast<std::size_t>(i)], v.data(), w.data(),
         c.data(), m);
  }

  // Blocked:
  std::vector<double> vmat(static_cast<std::size_t>(m) * k);
  materialize_v(m, k, panel.data(), m, vmat.data());
  std::vector<double> t(static_cast<std::size_t>(k) * k);
  dlarft(m, k, panel.data(), m, tau.data(), t.data(), k);
  dlarfb(Trans::kYes, m, 6, k, vmat.data(), m, t.data(), k,
         c_blocked.data(), m);

  EXPECT_LT(HostMatrix::max_abs_diff(c, c_blocked), 1e-12);
}

TEST(Lapack, QrOfZeroColumnHasZeroTau) {
  HostMatrix a(6, 2);
  for (int i = 0; i < 6; ++i) a.at(i, 1) = static_cast<double>(i);
  // Column 0 is all zeros.
  std::vector<double> tau(2);
  dgeqr2(6, 2, a.data(), 6, tau.data());
  EXPECT_DOUBLE_EQ(tau[0], 0.0);
}

}  // namespace
}  // namespace dacc::la
