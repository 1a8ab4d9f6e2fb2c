// Latency characterization (Section V.A text): "the additional MPI over
// Infiniband latency of roughly two us is negligible" for the megabyte-class
// transfers the middleware moves. This bench reports the small-message
// latency ladder of the whole stack.
#include "bench_util.hpp"

using namespace dacc;

namespace {

struct Latencies {
  SimDuration alloc_rtt = 0;
  SimDuration tiny_h2d = 0;
  SimDuration kernel_rtt = 0;
};

Latencies remote_latencies() {
  rt::ClusterConfig cc;
  cc.compute_nodes = 1;
  cc.accelerators = 1;
  rt::Cluster cluster(cc);
  Latencies lat;
  rt::JobSpec spec;
  spec.accelerators_per_rank = 1;
  spec.body = [&](rt::JobContext& job) {
    core::Accelerator& ac = job.session()[0];
    SimTime t0 = job.ctx().now();
    const gpu::DevPtr p = ac.mem_alloc(4096);
    lat.alloc_rtt = job.ctx().now() - t0;

    t0 = job.ctx().now();
    ac.memcpy_h2d(p, util::Buffer::backed_zero(64));
    lat.tiny_h2d = job.ctx().now() - t0;

    ac.launch("fill_f64", {}, {p, std::int64_t{8}, 0.0});  // warm path
    t0 = job.ctx().now();
    ac.launch("fill_f64", {}, {p, std::int64_t{8}, 0.0});
    lat.kernel_rtt = job.ctx().now() - t0;
  };
  cluster.submit(spec);
  cluster.run();
  return lat;
}

}  // namespace

int main() {
  const bench::Probe mpi1 = bench::mpi_pingpong(1);
  const bench::Probe mpi64m = bench::mpi_pingpong(64_MiB);
  const Latencies lat = remote_latencies();
  const bench::Probe local_tiny =
      bench::local_copy(64, gpu::HostMemType::kPinned, true);

  util::Table table({"operation", "latency [us]", "paper reference"});
  table.row()
      .add("MPI PingPong, 1 B (half RTT)")
      .add(to_us(mpi1.elapsed), 2)
      .add("~2 us (Section V.A)");
  table.row()
      .add("remote acMemAlloc round trip")
      .add(to_us(lat.alloc_rtt), 2)
      .add("request + response pair");
  table.row()
      .add("remote acMemCpy H2D, 64 B")
      .add(to_us(lat.tiny_h2d), 2)
      .add("request + payload + DMA + ack");
  table.row()
      .add("remote acKernelRun issue")
      .add(to_us(lat.kernel_rtt), 2)
      .add("async issue acknowledgement");
  table.row()
      .add("local cudaMemcpy H2D, 64 B")
      .add(to_us(local_tiny.elapsed), 2)
      .add("DMA setup dominated");

  std::printf(
      "Latency ladder of the dynamic accelerator-cluster stack\n"
      "(and MPI peak at 64 MiB: %.0f MiB/s; paper: ~2660 MiB/s)\n\n",
      mpi64m.mib_s);
  table.print(std::cout);
  std::printf("\n");

  bench::register_result("t01/mpi-pingpong-1B", mpi1.elapsed);
  bench::register_result("t01/mpi-pingpong-64MiB", mpi64m.elapsed,
                         mpi64m.mib_s);
  bench::register_result("t01/remote-alloc-rtt", lat.alloc_rtt);
  bench::register_result("t01/remote-h2d-64B", lat.tiny_h2d);
  bench::register_result("t01/remote-kernel-issue", lat.kernel_rtt);
  bench::register_result("t01/local-h2d-64B", local_tiny.elapsed);
  return bench::finish();
}
