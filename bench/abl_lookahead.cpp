// Ablation E — look-ahead in the hybrid QR (an optimization beyond the
// paper's prototype): the next panel's owner updates that block first and
// defers its bulk update, so the panel download + CPU factorization overlap
// with the trailing update instead of waiting behind it.
#include "la_util.hpp"

using namespace dacc;

namespace {

la::FactorResult qr_with(int n, int g, bool lookahead) {
  rt::ClusterConfig cc;
  cc.compute_nodes = 1;
  cc.accelerators = g;
  cc.functional_gpus = false;
  cc.registry = la::la_registry();
  rt::Cluster cluster(cc);
  la::FactorResult result;
  rt::JobSpec spec;
  spec.accelerators_per_rank = static_cast<std::uint32_t>(g);
  spec.body = [&](rt::JobContext& job) {
    std::vector<std::unique_ptr<core::RemoteDeviceLink>> links;
    std::vector<core::DeviceLink*> gpus;
    for (std::size_t i = 0; i < job.session().size(); ++i) {
      links.push_back(std::make_unique<core::RemoteDeviceLink>(
          job.session()[i], job.ctx()));
      gpus.push_back(links.back().get());
    }
    la::LaParams params;
    params.qr_lookahead = lookahead;
    la::HostMatrix a(n, n, false);
    result = la::dgeqrf_hybrid(job.ctx(), gpus, a, 128, params);
  };
  cluster.submit(spec);
  cluster.run();
  return result;
}

}  // namespace

int main() {
  util::Table table({"N", "GPUs", "no look-ahead", "look-ahead", "gain"});
  for (const int n : {2048, 4032, 6048, 8064, 10240}) {
    for (const int g : {1, 3}) {
      const auto off = qr_with(n, g, false);
      const auto on = qr_with(n, g, true);
      table.row()
          .add(static_cast<std::uint64_t>(n))
          .add(static_cast<std::uint64_t>(g))
          .add(off.gflops, 1)
          .add(on.gflops, 1)
          .add(on.gflops / off.gflops, 3);
      const std::string key =
          std::to_string(n) + "/g" + std::to_string(g);
      bench::register_result("abl_lookahead/off/" + key, off.factor_time, 0,
                             off.gflops);
      bench::register_result("abl_lookahead/on/" + key, on.factor_time, 0,
                             on.gflops);
    }
  }

  std::printf(
      "Ablation E — QR [GFlop/s] with and without look-ahead scheduling\n"
      "(hides the panel round trip behind the bulk trailing update)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
