// Ablation C — transport comparison. The paper argues (Section II) that its
// MPI-based protocol beats TCP/IP-based remoting frameworks (rCUDA-class).
// This bench runs the identical middleware over the TCP/IPoIB baseline
// transport, plus the interior point "their transport with our pipeline".
#include "baseline/rcuda_like.hpp"
#include "bench_util.hpp"
#include "la_util.hpp"

using namespace dacc;

namespace {

bench::Probe copy_on(rt::ClusterConfig cc, proto::TransferConfig transfer,
                     std::uint64_t bytes) {
  cc.functional_gpus = false;
  rt::Cluster cluster(std::move(cc));
  bench::Probe probe;
  rt::JobSpec spec;
  spec.accelerators_per_rank = 1;
  spec.body = [&](rt::JobContext& job) {
    auto& ac = job.session()[0];
    ac.set_transfer_config(transfer);
    const gpu::DevPtr p = ac.mem_alloc(bytes);
    ac.memcpy_h2d(p, util::Buffer::phantom(bytes));
    const SimTime t0 = job.ctx().now();
    ac.memcpy_h2d(p, util::Buffer::phantom(bytes));
    probe.elapsed = job.ctx().now() - t0;
    probe.mib_s = mib_per_s(bytes, probe.elapsed);
  };
  cluster.submit(spec);
  cluster.run();
  return probe;
}

rt::ClusterConfig mpi_config() {
  rt::ClusterConfig c;
  c.compute_nodes = 1;
  c.accelerators = 1;
  return c;
}

}  // namespace

int main() {
  util::Table table({"size", "dacc (MPI+pipeline)", "rCUDA-like (TCP naive)",
                     "TCP + our pipeline"});
  for (const std::uint64_t size : {1_MiB, 4_MiB, 16_MiB, 64_MiB}) {
    const auto ours = copy_on(mpi_config(),
                              proto::TransferConfig::pipeline_adaptive(),
                              size);
    const auto tcp_naive = copy_on(baseline::tcp_cluster_config(1, 1),
                                   baseline::tcp_transfer_config(), size);
    auto tcp_pipe_cfg = proto::TransferConfig::pipeline(512_KiB);
    tcp_pipe_cfg.gpudirect = false;
    const auto tcp_pipe =
        copy_on(baseline::tcp_cluster_config(1, 1), tcp_pipe_cfg, size);
    table.row()
        .add(bench::size_label(size))
        .add(ours.mib_s, 0)
        .add(tcp_naive.mib_s, 0)
        .add(tcp_pipe.mib_s, 0);
    const std::string sz = bench::size_label(size);
    bench::register_result("abl_transport/mpi/" + sz, ours.elapsed,
                           ours.mib_s);
    bench::register_result("abl_transport/tcp-naive/" + sz,
                           tcp_naive.elapsed, tcp_naive.mib_s);
    bench::register_result("abl_transport/tcp-pipeline/" + sz,
                           tcp_pipe.elapsed, tcp_pipe.mib_s);
  }

  std::printf(
      "Ablation C — H2D bandwidth [MiB/s] by remoting transport\n"
      "(paper Section II: TCP-based remoting 'may introduce higher "
      "overhead')\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
