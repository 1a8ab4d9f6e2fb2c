#include "baseline/rcuda_like.hpp"

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "util/units.hpp"

namespace dacc::baseline {
namespace {

struct Probe {
  double h2d_mib_s = 0.0;
  SimDuration alloc_rtt = 0;
};

Probe probe(rt::ClusterConfig config, proto::TransferConfig transfer) {
  config.functional_gpus = false;
  rt::Cluster cluster(std::move(config));
  Probe p;
  rt::JobSpec spec;
  spec.accelerators_per_rank = 1;
  spec.transfer = transfer;
  spec.body = [&](rt::JobContext& job) {
    auto& ac = job.session()[0];
    const SimTime a0 = job.ctx().now();
    const gpu::DevPtr ptr = ac.mem_alloc(64_MiB);
    p.alloc_rtt = job.ctx().now() - a0;
    ac.memcpy_h2d(ptr, util::Buffer::phantom(64_MiB));  // warm-up
    const SimTime t0 = job.ctx().now();
    ac.memcpy_h2d(ptr, util::Buffer::phantom(64_MiB));
    p.h2d_mib_s = mib_per_s(64_MiB, job.ctx().now() - t0);
  };
  cluster.submit(spec);
  cluster.run();
  return p;
}

rt::ClusterConfig dacc_config() {
  rt::ClusterConfig c;
  c.compute_nodes = 1;
  c.accelerators = 1;
  return c;
}

TEST(RcudaBaseline, FunctionalCorrectnessIsPreserved) {
  // Same middleware; only slower. Data still round-trips bit-exactly.
  rt::Cluster cluster(tcp_cluster_config(1, 1));
  rt::JobSpec spec;
  spec.accelerators_per_rank = 1;
  spec.transfer = tcp_transfer_config();
  spec.body = [](rt::JobContext& job) {
    auto& ac = job.session()[0];
    const std::int64_t n = 256;
    const gpu::DevPtr p = ac.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    ac.launch("fill_f64", {}, {p, n, 2.5});
    auto out = ac.memcpy_d2h(p, static_cast<std::uint64_t>(n) * 8);
    for (double v : out.as<double>()) EXPECT_DOUBLE_EQ(v, 2.5);
  };
  cluster.submit(spec);
  cluster.run();
}

TEST(RcudaBaseline, MpiTransportDeliversHigherBandwidth) {
  const Probe mpi =
      probe(dacc_config(), proto::TransferConfig::pipeline_adaptive());
  const Probe tcp = probe(tcp_cluster_config(1, 1), tcp_transfer_config());
  // Paper claim: the MPI-based solution clearly outperforms TCP remoting.
  EXPECT_GT(mpi.h2d_mib_s, tcp.h2d_mib_s * 2.0);
  EXPECT_GT(tcp.h2d_mib_s, 500.0);  // but TCP is not absurdly slow either
}

TEST(RcudaBaseline, MpiTransportDeliversLowerLatency) {
  const Probe mpi =
      probe(dacc_config(), proto::TransferConfig::pipeline_adaptive());
  const Probe tcp = probe(tcp_cluster_config(1, 1), tcp_transfer_config());
  EXPECT_LT(mpi.alloc_rtt, tcp.alloc_rtt);
  EXPECT_GT(to_us(tcp.alloc_rtt), 15.0);  // socket-era request RTT
}

TEST(RcudaBaseline, PipelineOnTcpRecoverSomeBandwidth) {
  // Ablation interior point: our pipeline on their transport.
  proto::TransferConfig pipeline = proto::TransferConfig::pipeline(512_KiB);
  pipeline.gpudirect = false;
  const Probe naive_tcp =
      probe(tcp_cluster_config(1, 1), tcp_transfer_config());
  const Probe pipe_tcp = probe(tcp_cluster_config(1, 1), pipeline);
  EXPECT_GT(pipe_tcp.h2d_mib_s, naive_tcp.h2d_mib_s);
}

}  // namespace
}  // namespace dacc::baseline
