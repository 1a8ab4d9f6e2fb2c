// Figure 11: the MP2C molecular-dynamics application, 2 MPI ranks with one
// GPU each, 300 steps with the SRD collision offloaded every 5th step:
// node-local GPUs vs network-attached GPUs at 5.12M / 7.29M / 10M
// particles.
//
// Paper shape: the dynamic architecture "prolongs execution by at most 4%".
#include "bench_util.hpp"
#include "mdsim/mp2c.hpp"

using namespace dacc;

namespace {

SimDuration mp2c_point(std::uint64_t particles, bool local) {
  auto registry = gpu::KernelRegistry::with_builtins();
  mdsim::register_mdsim_kernels(*registry);
  rt::ClusterConfig cc;
  cc.compute_nodes = 2;
  cc.accelerators = local ? 0 : 2;
  cc.local_gpus = local;
  cc.functional_gpus = false;
  cc.registry = registry;
  rt::Cluster cluster(cc);

  SimDuration elapsed = 0;
  rt::JobSpec spec;
  spec.ranks = 2;
  spec.accelerators_per_rank = local ? 0 : 1;
  spec.body = [&](rt::JobContext& job) {
    std::unique_ptr<core::DeviceLink> link;
    if (local) {
      link = std::make_unique<core::LocalDeviceLink>(job.local_gpu());
    } else {
      link = std::make_unique<core::RemoteDeviceLink>(job.session()[0],
                                                      job.ctx());
    }
    const auto result = mdsim::run_mp2c(job, link.get(), particles);
    if (job.rank() == 0) elapsed = result.elapsed;
  };
  cluster.submit(spec);
  cluster.run();
  return elapsed;
}

}  // namespace

int main() {
  util::Table table({"particles", "CUDA local [min]",
                     "dynamic architecture [min]", "slowdown"});

  for (const std::uint64_t n : {5'120'000ull, 7'290'000ull, 10'000'000ull}) {
    const SimDuration local = mp2c_point(n, true);
    const SimDuration remote = mp2c_point(n, false);
    const double slowdown =
        static_cast<double>(remote) / static_cast<double>(local) - 1.0;
    table.row()
        .add(n)
        .add(to_seconds(local) / 60.0, 2)
        .add(to_seconds(remote) / 60.0, 2)
        .add("+" + std::to_string(static_cast<int>(slowdown * 1000) / 10.0)
                       .substr(0, 4) +
             "%");
    const std::string sz = std::to_string(n / 10000) + "e4";
    bench::register_result("fig11/mp2c/local/" + sz, local);
    bench::register_result("fig11/mp2c/dynamic/" + sz, remote);
  }

  std::printf(
      "Figure 11 — MP2C, 2 ranks x 1 GPU, 300 steps, SRD every 5th\n"
      "(paper: ~13/17/22 minutes; dynamic architecture at most +4%%)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish("BENCH_fig11.json");
}
