// Host BLAS-lite: the handful of double-precision routines the hybrid
// factorizations and the GPU kernel executors need, in LAPACK's column-major
// convention with raw pointers and leading dimensions. Reference-quality
// (clear rather than fast); the simulated time of GPU work comes from cost
// models, not from how long these take on the host.
#pragma once

namespace dacc::la {

enum class Trans { kNo, kYes };
enum class Side { kLeft, kRight };
enum class UpLo { kLower, kUpper };
enum class Diag { kNonUnit, kUnit };

/// C := alpha * op(A) * op(B) + beta * C, with op per `ta`/`tb`.
/// C is m x n; op(A) is m x k; op(B) is k x n.
void dgemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
           const double* a, int lda, const double* b, int ldb, double beta,
           double* c, int ldc);

/// B := alpha * B * op(A)^-1 (side=right) or alpha * op(A)^-1 * B (left),
/// A triangular per uplo/diag. B is m x n.
void dtrsm(Side side, UpLo uplo, Trans ta, Diag diag, int m, int n,
           double alpha, const double* a, int lda, double* b, int ldb);

/// y := alpha * op(A) * x + beta * y.
void dgemv(Trans ta, int m, int n, double alpha, const double* a, int lda,
           const double* x, double beta, double* y);

/// A := A + alpha * x * y^T (A m x n).
void dger(int m, int n, double alpha, const double* x, const double* y,
          double* a, int lda);

void dscal(int n, double alpha, double* x);
double dnrm2(int n, const double* x);

}  // namespace dacc::la
