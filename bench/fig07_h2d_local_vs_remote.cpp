// Figure 7: host-to-device comparison between a node-attached GPU (CUDA
// local, pinned DMA and pageable PIO) and a network-attached GPU (pipeline
// 128-512K), with the MPI bound for reference.
//
// Paper shape: local pinned peaks ~5700 MiB/s, local pageable ~4700, the
// remote pipeline ~2600 — a clear local advantage in raw bandwidth whose
// application-level impact Figures 9-11 then put into perspective.
#include "bench_util.hpp"

using namespace dacc;
using bench::Probe;

int main() {
  util::Table table({"size", "CUDA local (pinned)", "CUDA local (pageable)",
                     "MPI (IMB PingPong)", "Dyn. arch (pipeline-128-512K)"});

  for (const std::uint64_t bytes : bench::figure_sizes()) {
    const Probe pinned = bench::local_copy(bytes, gpu::HostMemType::kPinned,
                                           /*h2d=*/true);
    const Probe pageable =
        bench::local_copy(bytes, gpu::HostMemType::kPageable, true);
    const Probe mpi = bench::mpi_pingpong(bytes);
    const Probe remote = bench::remote_copy(
        bytes, proto::TransferConfig::pipeline_adaptive(), true);
    table.row()
        .add(bench::size_label(bytes))
        .add(pinned.mib_s, 0)
        .add(pageable.mib_s, 0)
        .add(mpi.mib_s, 0)
        .add(remote.mib_s, 0);
    const std::string sz = bench::size_label(bytes);
    bench::register_result("fig07/h2d/local-pinned/" + sz, pinned.elapsed,
                           pinned.mib_s);
    bench::register_result("fig07/h2d/local-pageable/" + sz,
                           pageable.elapsed, pageable.mib_s);
    bench::register_result("fig07/h2d/mpi/" + sz, mpi.elapsed, mpi.mib_s);
    bench::register_result("fig07/h2d/remote-adaptive/" + sz, remote.elapsed,
                           remote.mib_s);
  }

  std::printf(
      "Figure 7 — H2D, node-attached vs network-attached GPU [MiB/s]\n"
      "(paper peaks: pinned ~5700, pageable ~4700, remote ~2600)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
