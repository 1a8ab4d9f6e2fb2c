// Figure 8: device-to-host counterpart of Figure 7; the remote line uses
// the best fixed block for this direction (128 KiB, per Figure 6).
#include "bench_util.hpp"

using namespace dacc;
using bench::Probe;

int main() {
  util::Table table({"size", "CUDA local (pinned)", "CUDA local (pageable)",
                     "MPI (IMB PingPong)", "Dyn. arch (pipeline-128K)"});

  for (const std::uint64_t bytes : bench::figure_sizes()) {
    const Probe pinned = bench::local_copy(bytes, gpu::HostMemType::kPinned,
                                           /*h2d=*/false);
    const Probe pageable =
        bench::local_copy(bytes, gpu::HostMemType::kPageable, false);
    const Probe mpi = bench::mpi_pingpong(bytes);
    const Probe remote = bench::remote_copy(
        bytes, proto::TransferConfig::pipeline(128_KiB), false);
    table.row()
        .add(bench::size_label(bytes))
        .add(pinned.mib_s, 0)
        .add(pageable.mib_s, 0)
        .add(mpi.mib_s, 0)
        .add(remote.mib_s, 0);
    const std::string sz = bench::size_label(bytes);
    bench::register_result("fig08/d2h/local-pinned/" + sz, pinned.elapsed,
                           pinned.mib_s);
    bench::register_result("fig08/d2h/local-pageable/" + sz,
                           pageable.elapsed, pageable.mib_s);
    bench::register_result("fig08/d2h/mpi/" + sz, mpi.elapsed, mpi.mib_s);
    bench::register_result("fig08/d2h/remote-128K/" + sz, remote.elapsed,
                           remote.mib_s);
  }

  std::printf(
      "Figure 8 — D2H, node-attached vs network-attached GPU [MiB/s]\n"
      "(paper peaks: pinned ~5700, pageable ~4700, remote ~2600)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
