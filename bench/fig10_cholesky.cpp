// Figure 10: MAGMA-style Cholesky factorization (dpotrf) on one compute
// node — node-local GPU vs 1/2/3 network-attached GPUs.
//
// Paper shape: like QR but less bandwidth-sensitive — one remote GPU sits
// closer to the local GPU, and multiple network-attached GPUs still deliver
// speedups impossible with the single node-attached device.
#include "la_util.hpp"

using namespace dacc;

int main() {
  util::Table table({"N", "CUDA local GPU", "1 net GPU", "2 net GPUs",
                     "3 net GPUs", "best/local"});

  double remote1_penalty_at_max = 0.0;
  for (const int n : bench::figure9_sizes()) {
    const auto local = bench::la_point(bench::Routine::kCholesky, n, 1, true);
    const auto r1 = bench::la_point(bench::Routine::kCholesky, n, 1, false);
    const auto r2 = bench::la_point(bench::Routine::kCholesky, n, 2, false);
    const auto r3 = bench::la_point(bench::Routine::kCholesky, n, 3, false);
    const double best = std::max({r1.gflops, r2.gflops, r3.gflops});
    remote1_penalty_at_max = r1.gflops / local.gflops;
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(local.gflops, 1)
        .add(r1.gflops, 1)
        .add(r2.gflops, 1)
        .add(r3.gflops, 1)
        .add(best / local.gflops, 2);
    const std::string sz = std::to_string(n);
    bench::register_result("fig10/chol/local/" + sz, local.factor_time, 0,
                           local.gflops);
    bench::register_result("fig10/chol/net1/" + sz, r1.factor_time, 0,
                           r1.gflops);
    bench::register_result("fig10/chol/net2/" + sz, r2.factor_time, 0,
                           r2.gflops);
    bench::register_result("fig10/chol/net3/" + sz, r3.factor_time, 0,
                           r3.gflops);
  }

  std::printf(
      "Figure 10 — Cholesky factorization [GFlop/s], one compute node\n"
      "(paper: Cholesky less sensitive to the bandwidth penalty than QR)\n\n");
  table.print(std::cout);
  std::printf("\nmeasured 1-remote-GPU/local ratio at N=10240: %.2f\n\n",
              remote1_penalty_at_max);
  return bench::finish();
}
