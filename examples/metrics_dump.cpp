// Middleware observability: run a small remote-GPU workload with the
// metrics registry attached and dump the snapshot in both exporter formats.
// The snapshot is deterministic — byte-identical under every execution
// backend — so the files double as a cross-backend equality probe
// (scripts/check_determinism.sh runs this binary under
// DACC_SIM_BACKEND=coroutine|parallel:4 and compares the outputs).
//
// A second argument turns on command-stream batching (DESIGN.md §10) at
// that watermark; the determinism gate's batched leg passes 8.
//
//   $ ./examples/metrics_dump [out_prefix [watermark]]
//   wrote dacc_metrics.json and dacc_metrics.prom
#include <cstdio>
#include <fstream>
#include <string>

#include "core/api.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

using namespace dacc;

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "dacc_metrics";

  rt::ClusterConfig config;
  config.compute_nodes = 2;
  config.accelerators = 2;
  config.metrics = true;
  if (argc > 2) {
    config.batch.enabled = true;
    config.batch.watermark = static_cast<std::uint32_t>(std::stoul(argv[2]));
  }
  rt::Cluster cluster(config);

  rt::JobSpec job;
  job.name = "metered";
  job.ranks = 2;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(8_MiB);
    ac.memcpy_h2d(p, util::Buffer::backed_zero(8_MiB));
    ac.launch("dscal", {}, {std::int64_t{1 << 20}, 1.5, p});
    (void)ac.memcpy_d2h(p, 8_MiB);
    // A little app-level MPI so the per-rank dmpi counters have something
    // to say beyond middleware traffic.
    const int peer = 1 - ctx.rank();
    if (ctx.rank() == 0) {
      ctx.mpi().send(ctx.job_comm(), peer, 7, util::Buffer::phantom(1_MiB));
    } else {
      (void)ctx.mpi().recv(ctx.job_comm(), peer, 7);
    }
  };
  cluster.submit(job);
  cluster.run();

  const obs::Registry& metrics = cluster.metrics();
  const std::string json_path = prefix + ".json";
  const std::string prom_path = prefix + ".prom";
  {
    // Backend-invariant snapshot: the parallel backend's per-shard era
    // series (dacc_sim_shard_*) describe scheduling — they depend on the
    // shard map by design — so they go to a separate file that the
    // determinism gate compares parallel-run against parallel-replay.
    std::ofstream out(json_path);
    metrics.write_json(out, obs::Registry::kShardSeriesPrefix,
                       /*include=*/false);
  }
  {
    std::ofstream out(prom_path);
    metrics.write_prometheus(out, obs::Registry::kShardSeriesPrefix,
                             /*include=*/false);
  }
  {
    std::ofstream out(prefix + ".shard.prom");
    metrics.write_prometheus(out, obs::Registry::kShardSeriesPrefix,
                             /*include=*/true);
  }
  if (config.profile) {
    // The wallclock tier (DACC_PROF=1): dacc_prof_* series go to their own
    // file, never into the deterministic snapshot above — the determinism
    // gate byte-compares the .json/.prom files while this one varies run
    // to run by nature.
    std::ofstream out(prefix + ".prof.prom");
    cluster.profiler().write_prometheus(out);
    std::printf("wrote %s (wallclock tier, non-deterministic)\n",
                (prefix + ".prof.prom").c_str());
  }
  std::printf("collected %zu metrics over %.2f ms of simulated time\n",
              metrics.size(), to_ms(cluster.engine().now()));
  std::printf("wrote %s and %s\n", json_path.c_str(), prom_path.c_str());

  // A few headline numbers, straight from the snapshot API:
  std::printf("\n  daemon requests (ac0):  %llu\n",
              static_cast<unsigned long long>(metrics.counter_value(
                  "dacc_daemon_requests_total{rank=\"" +
                  std::to_string(cluster.daemon_rank(0)) + "\"}")));
  std::printf("  fe h2d ops:             %llu\n",
              static_cast<unsigned long long>(metrics.histogram_count(
                  "dacc_fe_op_latency_ns{op=\"h2d\"}")));
  std::printf("  net bytes sent (cn0):   %llu\n",
              static_cast<unsigned long long>(
                  metrics.counter_value("dacc_net_tx_bytes_total{node=\"0\"}")));
  return 0;
}
