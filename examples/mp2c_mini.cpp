// A miniature MP2C run (paper Section V.C): SRD fluid over 2 MPI ranks,
// collision step offloaded to one network-attached accelerator per rank.
// Prints the conservation checks and the simulated runtime, then drives an
// explicit command-stream burst to show kBatch flushing (DESIGN.md §10).
//
//   $ ./examples/mp2c_mini
#include <cstdio>
#include <vector>

#include "mdsim/mp2c.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

using namespace dacc;

int main() {
  auto registry = gpu::KernelRegistry::with_builtins();
  mdsim::register_mdsim_kernels(*registry);

  rt::ClusterConfig config;
  config.compute_nodes = 2;
  config.accelerators = 2;
  config.registry = registry;
  config.metrics = true;
  // Batching is off by default; on here so the burst below flushes as
  // kBatch frames of up to 16 ops.
  config.batch = {.enabled = true, .watermark = 16};
  rt::Cluster cluster(config);

  const std::uint64_t particles = 20'000;
  mdsim::SrdParams srd;
  srd.steps = 50;

  std::array<mdsim::Mp2cResult, 2> results;
  rt::JobSpec job;
  job.name = "mp2c";
  job.ranks = 2;
  job.accelerators_per_rank = 1;
  job.body = [&](rt::JobContext& ctx) {
    core::RemoteDeviceLink gpu(ctx.session()[0], ctx.ctx());
    results[static_cast<std::size_t>(ctx.rank())] =
        mdsim::run_mp2c(ctx, &gpu, particles, srd);
  };
  cluster.submit(job);
  cluster.run();

  const auto& r = results[0];
  const double expected_ke = 1.5 * static_cast<double>(particles);
  std::printf("MP2C mini: %llu particles, %d steps, SRD every %d-th\n",
              static_cast<unsigned long long>(particles), srd.steps,
              srd.srd_every);
  std::printf("  ranks hold %llu + %llu particles (migrated %llu | %llu)\n",
              static_cast<unsigned long long>(results[0].local_particles),
              static_cast<unsigned long long>(results[1].local_particles),
              static_cast<unsigned long long>(results[0].migrated_out),
              static_cast<unsigned long long>(results[1].migrated_out));
  std::printf("  kinetic energy: %.1f (thermal expectation %.1f) %s\n",
              r.kinetic_energy, expected_ke,
              std::abs(r.kinetic_energy - expected_ke) < 0.05 * expected_ke
                  ? "OK"
                  : "suspicious");
  std::printf("  net momentum: (%.3g, %.3g, %.3g) — conserved near 0\n",
              r.momentum[0], r.momentum[1], r.momentum[2]);
  std::printf("  simulated wall time: %.1f ms\n", to_ms(r.elapsed));

  // Command-stream flushing, made explicit: a burst of *_async launches
  // queues ops faster than the proxy drains them, so with batching enabled
  // the run coalesces into kBatch frames (one request + one completion per
  // flush) instead of two messages per op. Synchronous calls — everything
  // MP2C above did through RemoteDeviceLink barriers — always flush
  // immediately, one op per frame.
  const std::string chan =
      "{chan=\"fe-r" + std::to_string(cluster.cn_rank(0)) + "\"}";
  const obs::Registry& m = cluster.metrics();
  const std::uint64_t msgs0 = m.counter_value("dacc_rpc_msgs_total" + chan);
  const std::uint64_t ops0 = m.counter_value("dacc_rpc_ops_total" + chan);

  rt::JobSpec burst;
  burst.name = "burst";
  burst.accelerators_per_rank = 1;
  burst.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const std::int64_t n = 4096;
    const gpu::DevPtr p = ac.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    std::vector<core::Future> stream;
    for (int i = 0; i < 24; ++i) {
      // Each call enqueues one kKernelRun on the accelerator's command
      // stream and returns a future; nothing forces a flush yet.
      stream.push_back(ac.launch_async("dscal", {}, {n, 1.01, p}));
    }
    // Waiting is the flush point: the proxy drains the queued run, sends
    // it (batched: watermark-sized kBatch frames; unbatched: one frame
    // per op) and completes the futures.
    ctx.session().wait_all(stream);
    ac.mem_free(p);
  };
  cluster.submit(burst, /*first_cn=*/0);
  cluster.run();

  const std::uint64_t msgs = m.counter_value("dacc_rpc_msgs_total" + chan);
  const std::uint64_t ops = m.counter_value("dacc_rpc_ops_total" + chan);
  std::printf("command-stream burst: 26 ops (alloc + 24 async dscal + free)\n");
  std::printf("  batching %s (watermark %u)\n",
              config.batch.enabled ? "ON" : "OFF",
              config.batch.watermark);
  std::printf("  front-end wire: %llu messages for %llu ops = %.2f msgs/op\n",
              static_cast<unsigned long long>(msgs - msgs0),
              static_cast<unsigned long long>(ops - ops0),
              static_cast<double>(msgs - msgs0) /
                  static_cast<double>(ops - ops0));
  return 0;
}
