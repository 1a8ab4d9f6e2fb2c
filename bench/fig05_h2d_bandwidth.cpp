// Figure 5: host-to-device bandwidth of the remote acMemCpy() for the naive
// protocol, fixed pipeline block sizes (128/256/512 KiB), the adaptive
// 128-512K policy, and the raw MPI PingPong upper bound.
//
// Paper shape: all pipeline variants beat naive for large messages; 128 KiB
// wins between ~0.5 and ~8 MiB, larger blocks win beyond ~9 MiB; the best
// pipeline tracks the MPI bound (~2660 MiB/s at 64 MiB).
#include "bench_util.hpp"

using namespace dacc;
using bench::Probe;

int main() {
  struct Curve {
    const char* name;
    proto::TransferConfig config;
    bool is_mpi = false;
  };
  const std::vector<Curve> curves = {
      {"naive", proto::TransferConfig::naive()},
      {"pipeline-128K", proto::TransferConfig::pipeline(128_KiB)},
      {"pipeline-256K", proto::TransferConfig::pipeline(256_KiB)},
      {"pipeline-512K", proto::TransferConfig::pipeline(512_KiB)},
      {"pipeline-128-512K", proto::TransferConfig::pipeline_adaptive()},
      {"MPI (IMB PingPong)", proto::TransferConfig{}, true},
  };

  std::vector<std::string> headers{"size"};
  for (const Curve& c : curves) headers.emplace_back(c.name);
  util::Table table(headers);

  for (const std::uint64_t bytes : bench::figure_sizes()) {
    table.row().add(bench::size_label(bytes));
    for (const Curve& c : curves) {
      const Probe p = c.is_mpi ? bench::mpi_pingpong(bytes)
                               : bench::remote_copy(bytes, c.config, true);
      table.add(p.mib_s, 0);
      bench::register_result(
          "fig05/h2d/" + std::string(c.name) + "/" + bench::size_label(bytes),
          p.elapsed, p.mib_s);
    }
  }

  std::printf(
      "Figure 5 — host-to-device bandwidth [MiB/s], dynamic architecture\n"
      "(paper: pipeline ~tracks MPI; naive ~1700 at 64 MiB; MPI peak "
      "~2660)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
