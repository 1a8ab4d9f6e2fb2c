#include "la/blas.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/la_reference.hpp"
#include "la/matrix.hpp"
#include "util/rng.hpp"

namespace dacc::la {
namespace {

TEST(Blas, GemmNoTransSmallKnown) {
  // A = [1 3; 2 4] (col-major), B = [5 7; 6 8], C = A*B.
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b{5, 6, 7, 8};
  std::vector<double> c(4, 0.0);
  dgemm(Trans::kNo, Trans::kNo, 2, 2, 2, 1.0, a.data(), 2, b.data(), 2, 0.0,
        c.data(), 2);
  EXPECT_DOUBLE_EQ(c[0], 23.0);  // 1*5+3*6
  EXPECT_DOUBLE_EQ(c[1], 34.0);  // 2*5+4*6
  EXPECT_DOUBLE_EQ(c[2], 31.0);  // 1*7+3*8
  EXPECT_DOUBLE_EQ(c[3], 46.0);  // 2*7+4*8
}

TEST(Blas, GemmTransposeAgreesWithManualTranspose) {
  util::Rng rng(3);
  const int m = 5;
  const int n = 4;
  const int k = 3;
  std::vector<double> a(static_cast<std::size_t>(k) * m);   // A^T is k x m
  std::vector<double> b(static_cast<std::size_t>(n) * k);   // B^T is n x k
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  // Reference: materialize op(A) (m x k) and op(B) (k x n).
  std::vector<double> at(static_cast<std::size_t>(m) * k);
  std::vector<double> bt(static_cast<std::size_t>(k) * n);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      at[static_cast<std::size_t>(p) * m + i] =
          a[static_cast<std::size_t>(i) * k + p];
    }
  }
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) {
      bt[static_cast<std::size_t>(j) * k + p] =
          b[static_cast<std::size_t>(p) * n + j];
    }
  }
  std::vector<double> c1(static_cast<std::size_t>(m) * n, 0.5);
  std::vector<double> c2 = c1;
  dgemm(Trans::kYes, Trans::kYes, m, n, k, 2.0, a.data(), k, b.data(), n, 0.5,
        c1.data(), m);
  dgemm(Trans::kNo, Trans::kNo, m, n, k, 2.0, at.data(), m, bt.data(), k, 0.5,
        c2.data(), m);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-12);
  }
}

TEST(Blas, TrsmRightLowerTransposeInvertsMultiplication) {
  util::Rng rng(7);
  const int m = 4;
  const int n = 3;
  // Well-conditioned lower triangular L.
  std::vector<double> l(static_cast<std::size_t>(n) * n, 0.0);
  for (int j = 0; j < n; ++j) {
    l[static_cast<std::size_t>(j) * n + j] = 2.0 + j;
    for (int i = j + 1; i < n; ++i) {
      l[static_cast<std::size_t>(j) * n + i] = rng.uniform(-1, 1);
    }
  }
  std::vector<double> x(static_cast<std::size_t>(m) * n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  // B = X * L^T, then solve B * inv(L)^T => X.
  std::vector<double> b(static_cast<std::size_t>(m) * n, 0.0);
  dgemm(Trans::kNo, Trans::kYes, m, n, n, 1.0, x.data(), m, l.data(), n, 0.0,
        b.data(), m);
  dtrsm(Side::kRight, UpLo::kLower, Trans::kYes, Diag::kNonUnit, m, n, 1.0,
        l.data(), n, b.data(), m);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(b[i], x[i], 1e-12);
}

TEST(Blas, TrsmLeftLowerNoTrans) {
  const int n = 3;
  std::vector<double> l{2, 1, 3, 0, 4, 5, 0, 0, 6};  // lower 3x3, col-major
  std::vector<double> x{1, -2, 0.5};
  std::vector<double> b(3, 0.0);
  // b = L x
  dgemv(Trans::kNo, n, n, 1.0, l.data(), n, x.data(), 0.0, b.data());
  dtrsm(Side::kLeft, UpLo::kLower, Trans::kNo, Diag::kNonUnit, n, 1, 1.0,
        l.data(), n, b.data(), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                x[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Blas, SyrkLowerMatchesGemm) {
  util::Rng rng(11);
  const int n = 5;
  const int k = 3;
  std::vector<double> a(static_cast<std::size_t>(n) * k);
  for (auto& v : a) v = rng.uniform(-1, 1);
  std::vector<double> c_syrk(static_cast<std::size_t>(n) * n, 1.0);
  std::vector<double> c_gemm = c_syrk;
  dsyrk(UpLo::kLower, Trans::kNo, n, k, -1.0, a.data(), n, 1.0, c_syrk.data(),
        n);
  dgemm(Trans::kNo, Trans::kYes, n, n, k, -1.0, a.data(), n, a.data(), n, 1.0,
        c_gemm.data(), n);
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {  // lower triangle only
      EXPECT_NEAR(c_syrk[static_cast<std::size_t>(j) * n + i],
                  c_gemm[static_cast<std::size_t>(j) * n + i], 1e-12);
    }
  }
}

TEST(Blas, VectorKernels) {
  std::vector<double> x{1, 2, 3};
  EXPECT_NEAR(dnrm2(3, x.data()), std::sqrt(14.0), 1e-14);
  dscal(3, -1.0, x.data());
  EXPECT_DOUBLE_EQ(x[1], -2.0);
}

TEST(Blas, Ger) {
  std::vector<double> a(4, 0.0);
  std::vector<double> x{1, 2};
  std::vector<double> y{3, 4};
  dger(2, 2, 1.0, x.data(), y.data(), a.data(), 2);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  EXPECT_DOUBLE_EQ(a[1], 6.0);
  EXPECT_DOUBLE_EQ(a[2], 4.0);
  EXPECT_DOUBLE_EQ(a[3], 8.0);
}

TEST(Matrix, PackUnpackRoundTrip) {
  util::Rng rng(1);
  HostMatrix a(6, 5);
  a.fill_random(rng);
  auto packed = a.pack(1, 2, 4, 3);
  HostMatrix b(6, 5);
  b.unpack(1, 2, 4, 3, packed);
  for (int j = 2; j < 5; ++j) {
    for (int i = 1; i < 5; ++i) {
      EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
    }
  }
  EXPECT_DOUBLE_EQ(b.at(0, 0), 0.0);  // untouched
}

TEST(Matrix, PhantomPackIsPhantom) {
  HostMatrix a(100, 100, /*functional=*/false);
  auto p = a.pack(0, 0, 100, 10);
  EXPECT_FALSE(p.is_backed());
  EXPECT_EQ(p.size(), 100u * 10 * 8);
  EXPECT_NO_THROW(a.unpack(0, 0, 100, 10, p));
}

TEST(Matrix, MakeSpdIsFactorizable) {
  util::Rng rng(5);
  HostMatrix a(8, 8);
  a.fill_random(rng);
  make_spd(a);
  // Diagonally dominant => SPD; every leading minor must be positive.
  for (int i = 0; i < 8; ++i) EXPECT_GT(a.at(i, i), 7.0);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(a.at(i, j), a.at(j, i));
    }
  }
}

}  // namespace
}  // namespace dacc::la
