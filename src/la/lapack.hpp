// LAPACK-lite: unblocked panel factorizations (dpotf2, dgeqr2, dgetf2) and
// the block-reflector helpers (dlarft, dlarfb). These are the routines the
// hybrid CPU+GPU algorithms run on the compute node for each panel. The
// blocked host references the tests compare the remote pipeline against
// live with the tests (tests/common/la_reference.hpp).
#pragma once

#include <vector>

#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace dacc::la {

/// Unblocked lower Cholesky of the leading n x n of A (in place).
/// Returns 0 on success or the 1-based index of the first non-positive
/// pivot (LAPACK convention).
int dpotf2(int n, double* a, int lda);

/// Unblocked Householder QR of the m x n panel (in place, LAPACK dgeqr2):
/// R in the upper triangle, the Householder vectors below the diagonal,
/// scalar factors in tau (length min(m, n)).
void dgeqr2(int m, int n, double* a, int lda, double* tau);

/// Forms the upper-triangular block-reflector factor T (k x k) for the
/// panel's reflectors (LAPACK dlarft, forward/columnwise). `v` is the
/// factored panel (unit lower trapezoidal implicit).
void dlarft(int m, int k, const double* v, int ldv, const double* tau,
            double* t, int ldt);

/// Copies the k reflectors out of a factored panel into a dense m x k V
/// with the implicit structure materialized (unit diagonal, zeros above).
void materialize_v(int m, int k, const double* panel, int ldp, double* v);

/// C := (I - V T V^T)^(T?) C with dense V (m x k), T (k x k upper),
/// C (m x n). trans == kYes applies Q^T (the factorization update),
/// kNo applies Q (used to build Q explicitly).
void dlarfb(Trans trans, int m, int n, int k, const double* v, int ldv,
            const double* t, int ldt, double* c, int ldc);

/// Unblocked LU with partial pivoting of the m x n panel (LAPACK dgetf2).
/// ipiv[i] (0-based, absolute row index) records the row swapped with row
/// `row0 + i`. Returns 0 or the 1-based index of the first zero pivot.
int dgetf2(int m, int n, double* a, int lda, int* ipiv, int row0);

// --- verification -----------------------------------------------------------

/// Materializes Q (m x m) of a factored QR (vectors + tau) by applying the
/// reflectors to the identity: Q = H_0 H_1 ... H_{k-1}.
HostMatrix form_q(const HostMatrix& factored, const std::vector<double>& tau);

/// ||A - Q R||_max for a factored QR (vectors + tau) against the original.
double qr_residual(const HostMatrix& original, const HostMatrix& factored,
                   const std::vector<double>& tau);

}  // namespace dacc::la
