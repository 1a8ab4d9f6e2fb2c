// Ablation B — GPUDirect v1. The protocol relies on NIC/GPU shared pinned
// pages so a received block is DMA-able in place (Section IV). Without it,
// every block pays a host staging copy that serializes with its DMA; this
// bench quantifies what that sharing buys.
#include "bench_util.hpp"

using namespace dacc;

int main() {
  util::Table table({"size", "H2D gpudirect", "H2D no-gpudirect",
                     "D2H gpudirect", "D2H no-gpudirect", "H2D gain"});

  for (const std::uint64_t size : {1_MiB, 4_MiB, 16_MiB, 64_MiB}) {
    auto with = proto::TransferConfig::pipeline(128_KiB);
    auto without = with;
    without.gpudirect = false;
    const auto h2d_on = bench::remote_copy(size, with, true);
    const auto h2d_off = bench::remote_copy(size, without, true);
    const auto d2h_on = bench::remote_copy(size, with, false);
    const auto d2h_off = bench::remote_copy(size, without, false);
    table.row()
        .add(bench::size_label(size))
        .add(h2d_on.mib_s, 0)
        .add(h2d_off.mib_s, 0)
        .add(d2h_on.mib_s, 0)
        .add(d2h_off.mib_s, 0)
        .add(h2d_on.mib_s / h2d_off.mib_s, 2);
    const std::string sz = bench::size_label(size);
    bench::register_result("abl_gpudirect/h2d/on/" + sz, h2d_on.elapsed,
                           h2d_on.mib_s);
    bench::register_result("abl_gpudirect/h2d/off/" + sz, h2d_off.elapsed,
                           h2d_off.mib_s);
    bench::register_result("abl_gpudirect/d2h/on/" + sz, d2h_on.elapsed,
                           d2h_on.mib_s);
    bench::register_result("abl_gpudirect/d2h/off/" + sz, d2h_off.elapsed,
                           d2h_off.mib_s);
  }

  std::printf(
      "Ablation B — pipeline bandwidth [MiB/s] with and without GPUDirect\n"
      "(128 KiB blocks; 'gain' is the H2D speedup from page sharing)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
