// Figure 9: MAGMA-style QR factorization (dgeqrf) on one compute node —
// node-local GPU vs 1/2/3 network-attached GPUs, GFlop/s over matrix size.
//
// Paper shape: one remote GPU runs slightly below the local GPU (QR is the
// more bandwidth-sensitive of the two routines); with three remote GPUs the
// same single node reaches ~2.2x the local-GPU performance at N = 10240,
// with no cross-node MPI in the application; at small N the extra
// overheads make multi-GPU counterproductive.
#include "la_util.hpp"

using namespace dacc;

int main() {
  util::Table table({"N", "CUDA local GPU", "1 net GPU", "2 net GPUs",
                     "3 net GPUs", "best/local"});

  double speedup_at_max = 0.0;
  for (const int n : bench::figure9_sizes()) {
    const auto local = bench::la_point(bench::Routine::kQr, n, 1, true);
    const auto r1 = bench::la_point(bench::Routine::kQr, n, 1, false);
    const auto r2 = bench::la_point(bench::Routine::kQr, n, 2, false);
    const auto r3 = bench::la_point(bench::Routine::kQr, n, 3, false);
    const double best = std::max({r1.gflops, r2.gflops, r3.gflops});
    speedup_at_max = r3.gflops / local.gflops;
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(local.gflops, 1)
        .add(r1.gflops, 1)
        .add(r2.gflops, 1)
        .add(r3.gflops, 1)
        .add(best / local.gflops, 2);
    const std::string sz = std::to_string(n);
    bench::register_result("fig09/qr/local/" + sz, local.factor_time, 0,
                           local.gflops);
    bench::register_result("fig09/qr/net1/" + sz, r1.factor_time, 0,
                           r1.gflops);
    bench::register_result("fig09/qr/net2/" + sz, r2.factor_time, 0,
                           r2.gflops);
    bench::register_result("fig09/qr/net3/" + sz, r3.factor_time, 0,
                           r3.gflops);
  }

  std::printf(
      "Figure 9 — QR factorization [GFlop/s], one compute node\n"
      "(paper: 3 network-attached GPUs reach ~2.2x one local GPU at "
      "N=10240)\n\n");
  table.print(std::cout);
  std::printf("\nmeasured 3-GPU speedup over local at N=10240: %.2fx\n\n",
              speedup_at_max);
  return bench::finish("BENCH_fig09.json");
}
