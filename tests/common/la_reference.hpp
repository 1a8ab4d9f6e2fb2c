// Host reference routines the la tests check the hybrid CPU+GPU pipeline
// against: blocked Cholesky, Householder QR and pivoted LU on the host, the
// residuals that judge a factorization, and the matrix builders they need.
// No shipped program runs them, so they live with the tests; the panel
// kernels they are built from (dpotf2, dgeqr2, dgetf2, dlarft, dlarfb) are
// the library's own, the same ones the pipeline runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "la/blas.hpp"
#include "la/lapack.hpp"
#include "la/matrix.hpp"

namespace dacc::la {

/// Makes `a` symmetric positive definite: A := (A + A^T)/2 + n*I.
/// (Functional matrices only; a no-op on phantom ones.)
inline void make_spd(HostMatrix& a) {
  if (!a.functional()) return;
  if (a.m() != a.n()) throw std::logic_error("make_spd: matrix not square");
  const int n = a.n();
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) {
      const double v = 0.5 * (a.at(i, j) + a.at(j, i));
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
    a.at(j, j) += static_cast<double>(n);
  }
}

/// C := alpha * A * A^T + beta * C (trans=no) over the `uplo` triangle of
/// the n x n matrix C; A is n x k.
inline void dsyrk(UpLo uplo, Trans trans, int n, int k, double alpha,
                  const double* a, int lda, double beta, double* c,
                  int ldc) {
  if (trans != Trans::kNo) throw std::logic_error("dsyrk: only trans=no");
  for (int j = 0; j < n; ++j) {
    const int i_begin = uplo == UpLo::kLower ? j : 0;
    const int i_end = uplo == UpLo::kLower ? n : j + 1;
    for (int i = i_begin; i < i_end; ++i) {
      double sum = 0.0;
      for (int p = 0; p < k; ++p) {
        sum += a[static_cast<std::size_t>(p) * lda + i] *
               a[static_cast<std::size_t>(p) * lda + j];
      }
      double& out = c[static_cast<std::size_t>(j) * ldc + i];
      out = alpha * sum + beta * out;
    }
  }
}

/// Blocked lower Cholesky on the host. Returns 0 on success or the 1-based
/// index of the first non-positive pivot, like dpotf2.
inline int dpotrf_host(HostMatrix& a, int nb) {
  if (a.m() != a.n()) throw std::invalid_argument("dpotrf_host: not square");
  const int n = a.n();
  const int ld = a.ld();
  double* p = a.data();
  for (int j = 0; j < n; j += nb) {
    const int jb = std::min(nb, n - j);
    double* diag = p + static_cast<std::size_t>(j) * ld + j;
    const int info = dpotf2(jb, diag, ld);
    if (info != 0) return j + info;
    const int rest = n - j - jb;
    if (rest > 0) {
      double* below = p + static_cast<std::size_t>(j) * ld + j + jb;
      dtrsm(Side::kRight, UpLo::kLower, Trans::kYes, Diag::kNonUnit, rest, jb,
            1.0, diag, ld, below, ld);
      double* trail = p + static_cast<std::size_t>(j + jb) * ld + j + jb;
      dsyrk(UpLo::kLower, Trans::kNo, rest, jb, -1.0, below, ld, 1.0, trail,
            ld);
    }
  }
  return 0;
}

/// Blocked Householder QR on the host. tau is resized.
inline void dgeqrf_host(HostMatrix& a, int nb, std::vector<double>& tau) {
  const int m = a.m();
  const int n = a.n();
  const int ld = a.ld();
  const int k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), 0.0);
  double* p = a.data();
  std::vector<double> v;
  std::vector<double> t(static_cast<std::size_t>(nb) * nb);
  for (int j = 0; j < k; j += nb) {
    const int jb = std::min(nb, k - j);
    const int rows = m - j;
    double* panel = p + static_cast<std::size_t>(j) * ld + j;
    dgeqr2(rows, jb, panel, ld, tau.data() + j);
    if (j + jb < n) {
      v.assign(static_cast<std::size_t>(rows) * jb, 0.0);
      materialize_v(rows, jb, panel, ld, v.data());
      dlarft(rows, jb, panel, ld, tau.data() + j, t.data(), nb);
      double* trail = p + static_cast<std::size_t>(j + jb) * ld + j;
      dlarfb(Trans::kYes, rows, n - j - jb, jb, v.data(), rows, t.data(), nb,
             trail, ld);
    }
  }
}

/// Row interchanges (LAPACK dlaswp): for i in [0, k), swap rows `row0 + i`
/// and `ipiv[i]` across columns [0, ncols) of `a`.
inline void dlaswp(int ncols, double* a, int lda, int row0, int k,
                   const int* ipiv) {
  for (int i = 0; i < k; ++i) {
    const int r1 = row0 + i;
    const int r2 = ipiv[i];
    if (r1 == r2) continue;
    for (int c = 0; c < ncols; ++c) {
      std::swap(a[static_cast<std::size_t>(c) * lda + r1],
                a[static_cast<std::size_t>(c) * lda + r2]);
    }
  }
}

/// Blocked LU with partial pivoting on the host. ipiv is resized to
/// min(m, n). Returns like dgetf2.
inline int dgetrf_host(HostMatrix& a, int nb, std::vector<int>& ipiv) {
  const int m = a.m();
  const int n = a.n();
  const int ld = a.ld();
  const int k = std::min(m, n);
  ipiv.assign(static_cast<std::size_t>(k), 0);
  double* p = a.data();
  int info = 0;
  for (int j = 0; j < k; j += nb) {
    const int jb = std::min(nb, k - j);
    // Factor the panel (rows j..m) with pivoting local to it.
    const int panel_info = dgetf2(m - j, jb,
                                  p + static_cast<std::size_t>(j) * ld + j,
                                  ld, ipiv.data() + j, j);
    if (panel_info != 0 && info == 0) info = j + panel_info;
    // Apply the interchanges to the columns outside the panel.
    dlaswp(j, p, ld, j, jb, ipiv.data() + j);
    if (j + jb < n) {
      dlaswp(n - j - jb, p + static_cast<std::size_t>(j + jb) * ld, ld, j,
             jb, ipiv.data() + j);
      // U12 := inv(L11, unit) * A12.
      dtrsm(Side::kLeft, UpLo::kLower, Trans::kNo, Diag::kUnit, jb,
            n - j - jb, 1.0, p + static_cast<std::size_t>(j) * ld + j, ld,
            p + static_cast<std::size_t>(j + jb) * ld + j, ld);
      // Trailing update: A22 -= L21 * U12.
      if (j + jb < m) {
        dgemm(Trans::kNo, Trans::kNo, m - j - jb, n - j - jb, jb, -1.0,
              p + static_cast<std::size_t>(j) * ld + j + jb, ld,
              p + static_cast<std::size_t>(j + jb) * ld + j, ld, 1.0,
              p + static_cast<std::size_t>(j + jb) * ld + j + jb, ld);
      }
    }
  }
  return info;
}

/// ||P A - L U||_max for a factored LU against the original.
inline double lu_residual(const HostMatrix& original,
                          const HostMatrix& factored,
                          const std::vector<int>& ipiv) {
  const int m = original.m();
  const int n = original.n();
  const int k = std::min(m, n);
  // P A: apply the interchanges to a copy of the original.
  HostMatrix pa = original;
  dlaswp(n, pa.data(), pa.ld(), 0, static_cast<int>(ipiv.size()),
         ipiv.data());
  // L U from the factored matrix.
  HostMatrix rebuilt(m, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double sum = 0.0;
      const int limit = std::min({i, j + 1, k});
      for (int p = 0; p < limit; ++p) {
        sum += factored.at(i, p) * factored.at(p, j);  // L(i,p) U(p,j)
      }
      if (i <= j && i < k) sum += factored.at(i, j);  // L(i,i) = 1
      rebuilt.at(i, j) = sum;
    }
  }
  return HostMatrix::max_abs_diff(pa, rebuilt);
}

/// ||A - L L^T||_max for a factored lower Cholesky against the original.
inline double cholesky_residual(const HostMatrix& original,
                                const HostMatrix& factored) {
  const int n = original.n();
  HostMatrix rebuilt(n, n);
  // rebuilt = L * L^T from the lower triangle of `factored`.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      double sum = 0.0;
      const int kmax = std::min(i, j);
      for (int p = 0; p <= kmax; ++p) {
        sum += factored.at(i, p) * factored.at(j, p);
      }
      rebuilt.at(i, j) = sum;
    }
  }
  return HostMatrix::max_abs_diff(original, rebuilt);
}

/// ||Q^T Q - I||_max for the factored QR's orthogonal factor.
inline double qr_orthogonality(const HostMatrix& factored,
                               const std::vector<double>& tau) {
  const HostMatrix q = form_q(factored, tau);
  const int m = q.m();
  double worst = 0.0;
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i < m; ++i) {
      double sum = 0.0;
      for (int p = 0; p < m; ++p) sum += q.at(p, i) * q.at(p, j);
      worst = std::max(worst, std::fabs(sum - (i == j ? 1.0 : 0.0)));
    }
  }
  return worst;
}

}  // namespace dacc::la
