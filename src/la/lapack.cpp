#include "la/lapack.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace dacc::la {

int dpotf2(int n, double* a, int lda) {
  auto at = [&](int i, int j) -> double& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  for (int j = 0; j < n; ++j) {
    double d = at(j, j);
    for (int p = 0; p < j; ++p) d -= at(j, p) * at(j, p);
    if (d <= 0.0) return j + 1;
    d = std::sqrt(d);
    at(j, j) = d;
    for (int i = j + 1; i < n; ++i) {
      double v = at(i, j);
      for (int p = 0; p < j; ++p) v -= at(i, p) * at(j, p);
      at(i, j) = v / d;
    }
  }
  return 0;
}

void dgeqr2(int m, int n, double* a, int lda, double* tau) {
  auto at = [&](int i, int j) -> double& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  const int k = std::min(m, n);
  std::vector<double> w(static_cast<std::size_t>(n));
  for (int i = 0; i < k; ++i) {
    // Generate the reflector zeroing A[i+1:m, i] (LAPACK dlarfg).
    const double alpha = at(i, i);
    const double xnorm = dnrm2(m - i - 1, &at(i + 1, i));
    if (xnorm == 0.0) {
      tau[i] = 0.0;
      continue;
    }
    double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
    tau[i] = (beta - alpha) / beta;
    dscal(m - i - 1, 1.0 / (alpha - beta), &at(i + 1, i));
    at(i, i) = beta;
    // Apply H = I - tau v v^T to A[i:m, i+1:n] (v0 = 1 implicit).
    if (i + 1 < n) {
      for (int j = i + 1; j < n; ++j) {
        double sum = at(i, j);
        for (int r = i + 1; r < m; ++r) sum += at(r, i) * at(r, j);
        w[static_cast<std::size_t>(j)] = sum;
      }
      for (int j = i + 1; j < n; ++j) {
        const double tw = tau[i] * w[static_cast<std::size_t>(j)];
        at(i, j) -= tw;
        for (int r = i + 1; r < m; ++r) at(r, j) -= at(r, i) * tw;
      }
    }
  }
}

void materialize_v(int m, int k, const double* panel, int ldp, double* v) {
  for (int c = 0; c < k; ++c) {
    for (int r = 0; r < m; ++r) {
      double value;
      if (r < c) {
        value = 0.0;
      } else if (r == c) {
        value = 1.0;
      } else {
        value = panel[static_cast<std::size_t>(c) * ldp + r];
      }
      v[static_cast<std::size_t>(c) * m + r] = value;
    }
  }
}

void dlarft(int m, int k, const double* v, int ldv, const double* tau,
            double* t, int ldt) {
  // v is the factored panel (implicit unit lower trapezoidal).
  auto vat = [&](int i, int j) -> double {
    if (i < j) return 0.0;
    if (i == j) return 1.0;
    return v[static_cast<std::size_t>(j) * ldv + i];
  };
  auto tat = [&](int i, int j) -> double& {
    return t[static_cast<std::size_t>(j) * ldt + i];
  };
  for (int i = 0; i < k; ++i) {
    for (int r = 0; r < i; ++r) tat(r, i) = 0.0;
    tat(i, i) = tau[i];
    if (tau[i] == 0.0 || i == 0) continue;
    // w = V(:, 0:i)^T * v_i
    std::vector<double> w(static_cast<std::size_t>(i), 0.0);
    for (int c = 0; c < i; ++c) {
      double sum = 0.0;
      for (int r = i; r < m; ++r) sum += vat(r, c) * vat(r, i);
      w[static_cast<std::size_t>(c)] = sum;
    }
    // T(0:i, i) = -tau_i * T(0:i, 0:i) * w
    for (int r = 0; r < i; ++r) {
      double sum = 0.0;
      for (int c = r; c < i; ++c) {
        sum += tat(r, c) * w[static_cast<std::size_t>(c)];
      }
      tat(r, i) = -tau[i] * sum;
    }
  }
}

void dlarfb(Trans trans, int m, int n, int k, const double* v, int ldv,
            const double* t, int ldt, double* c, int ldc) {
  if (n == 0 || k == 0) return;
  // W = V^T C  (k x n)
  std::vector<double> w(static_cast<std::size_t>(k) * n);
  dgemm(Trans::kYes, Trans::kNo, k, n, m, 1.0, v, ldv, c, ldc, 0.0, w.data(),
        k);
  // W := op(T) W, T upper triangular: apply as small dense gemm with the
  // transposed-or-not triangle materialized.
  std::vector<double> tw(static_cast<std::size_t>(k) * n, 0.0);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < k; ++i) {
      double sum = 0.0;
      for (int p = 0; p < k; ++p) {
        const double tv = trans == Trans::kYes
                              ? (p <= i ? t[static_cast<std::size_t>(i) * ldt +
                                            p]
                                        : 0.0)   // T^T is lower
                              : (p >= i ? t[static_cast<std::size_t>(p) * ldt +
                                            i]
                                        : 0.0);  // T is upper
        sum += tv * w[static_cast<std::size_t>(j) * k + p];
      }
      tw[static_cast<std::size_t>(j) * k + i] = sum;
    }
  }
  // C := C - V (op(T) W)
  dgemm(Trans::kNo, Trans::kNo, m, n, k, -1.0, v, ldv, tw.data(), k, 1.0, c,
        ldc);
}

int dgetf2(int m, int n, double* a, int lda, int* ipiv, int row0) {
  auto at = [&](int i, int j) -> double& {
    return a[static_cast<std::size_t>(j) * lda + i];
  };
  const int k = std::min(m, n);
  int info = 0;
  for (int i = 0; i < k; ++i) {
    // Partial pivoting: largest magnitude in column i at or below row i.
    int piv = i;
    double best = std::fabs(at(i, i));
    for (int r = i + 1; r < m; ++r) {
      const double v = std::fabs(at(r, i));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    ipiv[i] = row0 + piv;
    if (best == 0.0) {
      if (info == 0) info = i + 1;
      continue;
    }
    if (piv != i) {
      for (int c = 0; c < n; ++c) std::swap(at(i, c), at(piv, c));
    }
    const double inv_pivot = 1.0 / at(i, i);
    for (int r = i + 1; r < m; ++r) at(r, i) *= inv_pivot;
    for (int c = i + 1; c < n; ++c) {
      const double u = at(i, c);
      if (u == 0.0) continue;
      for (int r = i + 1; r < m; ++r) at(r, c) -= at(r, i) * u;
    }
  }
  return info;
}

HostMatrix form_q(const HostMatrix& factored, const std::vector<double>& tau) {
  const int m = factored.m();
  const int k = static_cast<int>(tau.size());
  HostMatrix q(m, m);
  for (int i = 0; i < m; ++i) q.at(i, i) = 1.0;
  for (int i = k - 1; i >= 0; --i) {
    if (tau[static_cast<std::size_t>(i)] == 0.0) continue;
    // v = [zeros(i); 1; A[i+1:m, i]]
    std::vector<double> v(static_cast<std::size_t>(m), 0.0);
    v[static_cast<std::size_t>(i)] = 1.0;
    for (int r = i + 1; r < m; ++r) {
      v[static_cast<std::size_t>(r)] = factored.at(r, i);
    }
    // Q := (I - tau v v^T) Q
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    dgemv(Trans::kYes, m, m, 1.0, q.data(), m, v.data(), 0.0, w.data());
    dger(m, m, -tau[static_cast<std::size_t>(i)], v.data(), w.data(),
         q.data(), m);
  }
  return q;
}

double qr_residual(const HostMatrix& original, const HostMatrix& factored,
                   const std::vector<double>& tau) {
  const int m = original.m();
  const int n = original.n();
  const HostMatrix q = form_q(factored, tau);
  // R = upper trapezoid of factored.
  HostMatrix rebuilt(m, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double sum = 0.0;
      for (int p = 0; p <= std::min(j, m - 1); ++p) {
        sum += q.at(i, p) * factored.at(p, j);
      }
      rebuilt.at(i, j) = sum;
    }
  }
  return HostMatrix::max_abs_diff(original, rebuilt);
}

}  // namespace dacc::la
