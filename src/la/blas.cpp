#include "la/blas.hpp"

#include <cmath>
#include <stdexcept>

namespace dacc::la {

namespace {

inline double elem(const double* a, int lda, int i, int j, Trans t) {
  return t == Trans::kNo ? a[static_cast<std::size_t>(j) * lda + i]
                         : a[static_cast<std::size_t>(i) * lda + j];
}

}  // namespace

void dgemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
           const double* a, int lda, const double* b, int ldb, double beta,
           double* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double sum = 0.0;
      for (int p = 0; p < k; ++p) {
        sum += elem(a, lda, i, p, ta) * elem(b, ldb, p, j, tb);
      }
      double& out = c[static_cast<std::size_t>(j) * ldc + i];
      out = alpha * sum + beta * out;
    }
  }
}

void dtrsm(Side side, UpLo uplo, Trans ta, Diag diag, int m, int n,
           double alpha, const double* a, int lda, double* b, int ldb) {
  auto bij = [&](int i, int j) -> double& {
    return b[static_cast<std::size_t>(j) * ldb + i];
  };
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) bij(i, j) *= alpha;
  }
  if (side == Side::kRight && uplo == UpLo::kLower && ta == Trans::kYes) {
    // B := B * inv(L)^T, L lower n x n: forward substitution across columns.
    for (int j = 0; j < n; ++j) {
      const double diag_v =
          diag == Diag::kUnit ? 1.0 : a[static_cast<std::size_t>(j) * lda + j];
      for (int i = 0; i < m; ++i) bij(i, j) /= diag_v;
      for (int jj = j + 1; jj < n; ++jj) {
        const double l = a[static_cast<std::size_t>(j) * lda + jj];  // L(jj,j)
        for (int i = 0; i < m; ++i) bij(i, jj) -= bij(i, j) * l;
      }
    }
    return;
  }
  if (side == Side::kLeft && uplo == UpLo::kLower && ta == Trans::kNo) {
    // B := inv(L) * B: forward substitution down rows.
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        double sum = bij(i, j);
        for (int p = 0; p < i; ++p) {
          sum -= a[static_cast<std::size_t>(p) * lda + i] * bij(p, j);
        }
        const double diag_v =
            diag == Diag::kUnit ? 1.0
                                : a[static_cast<std::size_t>(i) * lda + i];
        bij(i, j) = sum / diag_v;
      }
    }
    return;
  }
  if (side == Side::kLeft && uplo == UpLo::kUpper && ta == Trans::kNo) {
    // B := inv(U) * B: back substitution up rows.
    for (int j = 0; j < n; ++j) {
      for (int i = m - 1; i >= 0; --i) {
        double sum = bij(i, j);
        for (int p = i + 1; p < m; ++p) {
          sum -= a[static_cast<std::size_t>(p) * lda + i] * bij(p, j);
        }
        const double diag_v =
            diag == Diag::kUnit ? 1.0
                                : a[static_cast<std::size_t>(i) * lda + i];
        bij(i, j) = sum / diag_v;
      }
    }
    return;
  }
  throw std::logic_error("dtrsm: unsupported variant");
}

void dgemv(Trans ta, int m, int n, double alpha, const double* a, int lda,
           const double* x, double beta, double* y) {
  const int out_len = ta == Trans::kNo ? m : n;
  const int in_len = ta == Trans::kNo ? n : m;
  for (int i = 0; i < out_len; ++i) {
    double sum = 0.0;
    for (int p = 0; p < in_len; ++p) {
      sum += (ta == Trans::kNo ? a[static_cast<std::size_t>(p) * lda + i]
                               : a[static_cast<std::size_t>(i) * lda + p]) *
             x[p];
    }
    y[i] = alpha * sum + beta * y[i];
  }
}

void dger(int m, int n, double alpha, const double* x, const double* y,
          double* a, int lda) {
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      a[static_cast<std::size_t>(j) * lda + i] += alpha * x[i] * y[j];
    }
  }
}

void dscal(int n, double alpha, double* x) {
  for (int i = 0; i < n; ++i) x[i] *= alpha;
}

double dnrm2(int n, const double* x) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += x[i] * x[i];
  return std::sqrt(sum);
}

}  // namespace dacc::la
