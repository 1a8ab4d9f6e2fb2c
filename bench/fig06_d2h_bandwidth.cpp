// Figure 6: device-to-host bandwidth of the remote acMemCpy() for the naive
// protocol and pipeline block sizes 64/128/256/512 KiB against the MPI
// PingPong bound.
//
// Paper shape: pipeline beats naive for large messages; 128 KiB is the best
// single block size in this direction.
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
      {"pipeline-64K", proto::TransferConfig::pipeline(64_KiB)},
      {"pipeline-128K", proto::TransferConfig::pipeline(128_KiB)},
      {"pipeline-256K", proto::TransferConfig::pipeline(256_KiB)},
      {"pipeline-512K", proto::TransferConfig::pipeline(512_KiB)},
      {"MPI (IMB PingPong)", proto::TransferConfig{}, true},
  };

  std::vector<std::string> headers{"size"};
  for (const Curve& c : curves) headers.emplace_back(c.name);
  util::Table table(headers);

  for (const std::uint64_t bytes : bench::figure_sizes()) {
    table.row().add(bench::size_label(bytes));
    for (const Curve& c : curves) {
      const Probe p = c.is_mpi ? bench::mpi_pingpong(bytes)
                               : bench::remote_copy(bytes, c.config, false);
      table.add(p.mib_s, 0);
      bench::register_result(
          "fig06/d2h/" + std::string(c.name) + "/" + bench::size_label(bytes),
          p.elapsed, p.mib_s);
    }
  }

  std::printf(
      "Figure 6 — device-to-host bandwidth [MiB/s], dynamic architecture\n"
      "(paper: pipeline-128K best fixed block in this direction)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
