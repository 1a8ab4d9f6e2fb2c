// Helpers for the linear-algebra figure benches (Figures 9/10).
#pragma once

#include <cstdint>

#include "bench_util.hpp"
#include "la/factorizations.hpp"

namespace dacc::bench {

enum class Routine { kQr, kCholesky };

/// The engine's counters after one figure point's run.
struct EngineCounts {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  std::uint64_t fast_forwards = 0;
};

/// One figure point: factorize an N x N phantom matrix with `g` GPUs —
/// node-local (g must be 1) or network-attached — and return the result.
/// A non-null `counts` receives the engine's counters.
inline la::FactorResult la_point(Routine routine, int n, int g, bool local,
                                 int nb = 128,
                                 EngineCounts* counts = nullptr) {
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
    la::HostMatrix a(n, n, /*functional=*/false);
    result = routine == Routine::kQr
                 ? la::dgeqrf_hybrid(job.ctx(), gpus, a, nb)
                 : la::dpotrf_hybrid(job.ctx(), gpus, a, nb);
  };
  cluster.submit(spec);
  cluster.run();
  if (counts != nullptr) {
    const sim::Engine& e = cluster.engine();
    *counts = {e.events_executed(), e.process_switches(), e.fast_forwards()};
  }
  return result;
}

/// The paper's N sweep for Figures 9 and 10.
inline std::vector<int> figure9_sizes() {
  return {1024, 2048, 3072, 4032, 5184, 6048, 7200, 8064, 8928, 10240};
}

}  // namespace dacc::bench
