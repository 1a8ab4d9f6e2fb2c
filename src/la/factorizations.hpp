// Hybrid CPU+multi-GPU factorizations in the style of MAGMA 1.1's
// magma_dgeqrf2_mgpu / magma_dpotrf_mgpu (the two routines of the paper's
// Section V.B): panels are factored on the compute node's CPU, trailing
// updates run on 1..g GPUs over a 1-D block-cyclic column layout. The same
// code drives a node-local GPU (core::LocalDeviceLink) or network-attached
// accelerators (core::RemoteDeviceLink), which is exactly the comparison of
// Figures 9 and 10.
#pragma once

#include <span>
#include <vector>

#include "core/link.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "la/params.hpp"

namespace dacc::la {

struct FactorResult {
  SimDuration factor_time = 0;  ///< simulated time of the factorization
  double gflops = 0.0;          ///< standard flop count / factor_time
  int info = 0;                 ///< 0, or failing pivot (Cholesky)
};

/// Blocked Householder QR of `a` (overwritten with R + reflectors) on the
/// given GPUs. `tau_out`, when non-null, receives the scalar factors
/// (functional runs only).
FactorResult dgeqrf_hybrid(sim::Context& ctx,
                           std::span<core::DeviceLink* const> gpus,
                           HostMatrix& a, int nb, const LaParams& params = {},
                           std::vector<double>* tau_out = nullptr);

/// Blocked lower Cholesky of the SPD matrix `a` (lower triangle
/// overwritten with L) on the given GPUs.
FactorResult dpotrf_hybrid(sim::Context& ctx,
                           std::span<core::DeviceLink* const> gpus,
                           HostMatrix& a, int nb, const LaParams& params = {});

/// Blocked LU with partial pivoting (overwrites `a` with L\U) on the given
/// GPUs. `ipiv_out`, when non-null, receives the absolute pivot rows
/// (functional runs only). Goes beyond the paper's two routines — the
/// third MAGMA-class factorization on the same middleware.
FactorResult dgetrf_hybrid(sim::Context& ctx,
                           std::span<core::DeviceLink* const> gpus,
                           HostMatrix& a, int nb, const LaParams& params = {},
                           std::vector<int>* ipiv_out = nullptr);

}  // namespace dacc::la
