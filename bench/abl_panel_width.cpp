// Ablation F — panel width (nb) of the hybrid QR: the classic hybrid-
// algorithm tradeoff. Narrow panels keep the GPU updates level-3-efficient
// per column but multiply the per-panel round trips; wide panels amortize
// the middleware but push more work into the slow CPU panel factorization.
#include "la_util.hpp"

using namespace dacc;

int main() {
  const std::vector<int> widths = {32, 64, 96, 128, 192, 256, 384};
  util::Table table({"N", "GPUs", "nb=32", "nb=64", "nb=96", "nb=128",
                     "nb=192", "nb=256", "nb=384", "best"});
  for (const int n : {2048, 6048, 10240}) {
    for (const int g : {1, 3}) {
      table.row()
          .add(static_cast<std::uint64_t>(n))
          .add(static_cast<std::uint64_t>(g));
      double best = 0.0;
      int best_nb = 0;
      for (const int nb : widths) {
        const auto r =
            bench::la_point(bench::Routine::kQr, n, g, /*local=*/false, nb);
        table.add(r.gflops, 1);
        if (r.gflops > best) {
          best = r.gflops;
          best_nb = nb;
        }
        bench::register_result("abl_panel_width/n" + std::to_string(n) +
                                   "/g" + std::to_string(g) + "/nb" +
                                   std::to_string(nb),
                               r.factor_time, 0, r.gflops);
      }
      table.add("nb=" + std::to_string(best_nb));
    }
  }

  std::printf(
      "Ablation F — QR [GFlop/s] by panel width nb (network-attached "
      "GPUs)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
