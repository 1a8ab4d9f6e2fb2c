// Extension — LU factorization (dgetrf, partial pivoting): the third
// MAGMA-class routine on the dynamic architecture, beyond the paper's
// QR/Cholesky pair. Same experiment design as Figures 9/10.
#include "la_util.hpp"

using namespace dacc;

namespace {

la::FactorResult lu_point(int n, int g, bool local) {
  rt::ClusterConfig cc;
  cc.compute_nodes = 1;
  cc.accelerators = local ? 0 : g;
  cc.local_gpus = local;
  cc.functional_gpus = false;
  cc.registry = la::la_registry();
  rt::Cluster cluster(cc);
  la::FactorResult result;
  rt::JobSpec spec;
  spec.accelerators_per_rank = local ? 0 : static_cast<std::uint32_t>(g);
  spec.body = [&](rt::JobContext& job) {
    std::vector<std::unique_ptr<core::DeviceLink>> links;
    std::vector<core::DeviceLink*> gpus;
    if (local) {
      links.push_back(
          std::make_unique<core::LocalDeviceLink>(job.local_gpu()));
    } else {
      for (std::size_t i = 0; i < job.session().size(); ++i) {
        links.push_back(std::make_unique<core::RemoteDeviceLink>(
            job.session()[i], job.ctx()));
      }
    }
    for (auto& link : links) gpus.push_back(link.get());
    la::HostMatrix a(n, n, false);
    result = la::dgetrf_hybrid(job.ctx(), gpus, a, 128);
  };
  cluster.submit(spec);
  cluster.run();
  return result;
}

}  // namespace

int main() {
  util::Table table({"N", "CUDA local GPU", "1 net GPU", "2 net GPUs",
                     "3 net GPUs", "best/local"});
  for (const int n : bench::figure9_sizes()) {
    const auto local = lu_point(n, 1, true);
    const auto r1 = lu_point(n, 1, false);
    const auto r2 = lu_point(n, 2, false);
    const auto r3 = lu_point(n, 3, false);
    const double best = std::max({r1.gflops, r2.gflops, r3.gflops});
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(local.gflops, 1)
        .add(r1.gflops, 1)
        .add(r2.gflops, 1)
        .add(r3.gflops, 1)
        .add(best / local.gflops, 2);
    const std::string sz = std::to_string(n);
    bench::register_result("ext_lu/local/" + sz, local.factor_time, 0,
                           local.gflops);
    bench::register_result("ext_lu/net1/" + sz, r1.factor_time, 0, r1.gflops);
    bench::register_result("ext_lu/net2/" + sz, r2.factor_time, 0, r2.gflops);
    bench::register_result("ext_lu/net3/" + sz, r3.factor_time, 0, r3.gflops);
  }

  std::printf(
      "Extension — LU factorization [GFlop/s], one compute node\n"
      "(beyond the paper: the same dynamic-architecture pattern holds)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
