// The wallclock observability tier end to end: run a churn workload with
// the scoped profiler attached, print the per-shard per-phase wallclock
// attribution and its coverage identity, evaluate SLO targets against the
// deterministic histogram quantiles, and show the flight recorder's
// post-mortem tail.
//
// Two tiers, on purpose (DESIGN.md §9): everything under dacc_prof_* is
// real wallclock — it varies run to run and never enters the byte-compared
// deterministic snapshot. The SLO readout, by contrast, is computed from
// the deterministic registry, so its verdicts replay exactly.
//
//   $ ./examples/profile_dump [out_prefix]          # serial backend
//   $ DACC_SIM_BACKEND=parallel:4 ./examples/profile_dump
//
// Exits nonzero if the tier separation or an SLO verdict breaks.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "obs/flight.hpp"
#include "obs/profiler.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

using namespace dacc;

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "dacc_profile";

  rt::ClusterConfig config;
  config.compute_nodes = 2;
  config.accelerators = 3;
  config.metrics = true;
  config.profile = true;  // the wallclock tier
  rt::Cluster cluster(config);

  rt::JobSpec job;
  job.name = "profiled-churn";
  job.ranks = 2;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(4_MiB);
    for (int round = 0; round < 3; ++round) {
      ac.memcpy_h2d(p, util::Buffer::phantom(4_MiB));
      ac.launch("dscal", {}, {std::int64_t{1 << 19}, 1.01, p});
      // Contend for the shared third accelerator so assign-wait spreads.
      auto extra = ctx.session().acquire(1, /*wait=*/true);
      if (!extra.empty()) {
        const gpu::DevPtr q = extra[0]->mem_alloc(1_MiB);
        extra[0]->memcpy_h2d(q, util::Buffer::phantom(1_MiB));
        extra[0]->mem_free(q);
        ctx.session().release(extra[0]);
      }
    }
    (void)ac.memcpy_d2h(p, 4_MiB);
  };
  cluster.submit(job);
  cluster.run();

  // --- wallclock tier -----------------------------------------------------
  const obs::Profiler& prof = cluster.profiler();
  std::printf("wallclock profile (%s backend):\n",
              cluster.engine().backend() == sim::ExecBackend::kParallel
                  ? "parallel"
                  : "serial");
  const std::uint64_t measured = prof.measured_ns();
  const std::uint64_t attributed = prof.attributed_ns();
  std::printf("  measured   %10.3f ms of thread wallclock\n", measured / 1e6);
  std::printf("  attributed %10.3f ms (%.1f%% coverage)\n", attributed / 1e6,
              measured > 0 ? 100.0 * attributed / measured : 0.0);
  std::printf("  serial     %10.3f ms\n", prof.serial_ns() / 1e6);
  for (int shard = 0; shard < 64; ++shard) {
    std::uint64_t total = 0;
    for (int p = 0; p < sim::WallSink::kPhases; ++p) {
      total += prof.shard_ns(shard, static_cast<sim::WallSink::Phase>(p));
    }
    if (total == 0) continue;
    std::printf("  shard %d:", shard);
    for (int p = 0; p < sim::WallSink::kPhases; ++p) {
      const auto phase = static_cast<sim::WallSink::Phase>(p);
      std::printf(" %s=%.3fms", obs::Profiler::phase_name(phase),
                  prof.shard_ns(shard, phase) / 1e6);
    }
    std::printf("\n");
  }
  {
    std::ofstream out(prefix + ".prof.prom");
    prof.write_prometheus(out);
  }
  std::printf("wrote %s.prof.prom (non-deterministic, excluded from the\n"
              "deterministic snapshot by construction)\n",
              prefix.c_str());

  // Tier separation is a hard invariant, not a convention: fail loudly if
  // a wallclock series ever shows up in the deterministic registry.
  if (cluster.metrics().prometheus().find(obs::Profiler::kSeriesPrefix) !=
      std::string::npos) {
    std::fprintf(stderr, "FAIL: dacc_prof_* leaked into the snapshot\n");
    return 1;
  }

  // --- SLO readout (deterministic tier) -----------------------------------
  obs::Registry& metrics = cluster.metrics();
  metrics.set_slo("dacc_arm_assign_wait_ns", 990, 1'000'000'000);
  metrics.set_slo("dacc_fe_op_latency_ns{op=\"h2d\"}", 990, 5'000'000'000);
  std::printf("\nSLO readout:\n");
  bool slo_fail = false;
  for (const obs::SloResult& r : metrics.check_slos()) {
    const obs::Hist h = metrics.hist(r.slo.series);
    std::printf("  %-38s p50=%9lluns p99=%9lluns q%u<=%lluns: %s\n",
                r.slo.series.c_str(),
                static_cast<unsigned long long>(h.p50()),
                static_cast<unsigned long long>(h.p99()), r.slo.q_permille,
                static_cast<unsigned long long>(r.slo.bound),
                r.ok ? "ok" : "VIOLATED");
    slo_fail = slo_fail || !r.ok;
  }

  // --- flight recorder tail -----------------------------------------------
  const std::vector<obs::FlightRecorder::Event> events =
      cluster.flight().events();
  std::printf("\nflight recorder: %llu events noted, last %zu retained\n",
              static_cast<unsigned long long>(cluster.flight().recorded()),
              events.size());
  const std::size_t tail = events.size() > 5 ? events.size() - 5 : 0;
  for (std::size_t i = tail; i < events.size(); ++i) {
    std::printf("  t=%lld [%s] %s\n",
                static_cast<long long>(events[i].time),
                events[i].category.c_str(), events[i].what.c_str());
  }

  return slo_fail ? 1 : 0;
}
