// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench binary follows the same pattern: run the deterministic
// simulation sweep once, print the paper-style series as an aligned table
// (plus the paper's expectation for EXPERIMENTS.md), and record each point
// with register_result(); finish() writes the recorded points to the
// bench's BENCH_*.json file, if it has one.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "dmpi/mpi.hpp"
#include "obs/metrics.hpp"
#include "rt/cluster.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace dacc::bench {

struct Probe {
  SimDuration elapsed = 0;
  double mib_s = 0.0;
};

/// Effective bandwidth of one remote acMemCpy through the full middleware
/// (1 CN + 1 AC phantom cluster; warm-up copy, then the timed one).
inline Probe remote_copy(std::uint64_t bytes, proto::TransferConfig config,
                         bool h2d) {
  rt::ClusterConfig cc;
  cc.compute_nodes = 1;
  cc.accelerators = 1;
  cc.functional_gpus = false;
  rt::Cluster cluster(cc);
  Probe probe;
  rt::JobSpec spec;
  spec.accelerators_per_rank = 1;
  spec.body = [&](rt::JobContext& job) {
    core::Accelerator& ac = job.session()[0];
    ac.set_transfer_config(config);
    const gpu::DevPtr p = ac.mem_alloc(bytes);
    if (h2d) {
      ac.memcpy_h2d(p, util::Buffer::phantom(bytes));  // warm-up
      const SimTime t0 = job.ctx().now();
      ac.memcpy_h2d(p, util::Buffer::phantom(bytes));
      probe.elapsed = job.ctx().now() - t0;
    } else {
      (void)ac.memcpy_d2h(p, bytes);  // warm-up
      const SimTime t0 = job.ctx().now();
      (void)ac.memcpy_d2h(p, bytes);
      probe.elapsed = job.ctx().now() - t0;
    }
    probe.mib_s = mib_per_s(bytes, probe.elapsed);
  };
  cluster.submit(spec);
  cluster.run();
  return probe;
}

/// Node-local cudaMemcpy-equivalent bandwidth (paper's "CUDA local" lines).
inline Probe local_copy(std::uint64_t bytes, gpu::HostMemType mem, bool h2d) {
  sim::Engine engine;
  gpu::Device device(engine, gpu::tesla_c1060(),
                     gpu::KernelRegistry::with_builtins(),
                     /*functional=*/false);
  Probe probe;
  engine.spawn("host", [&](sim::Context& ctx) {
    gpu::Driver drv(device, ctx);
    const gpu::DevPtr p = drv.mem_alloc(bytes);
    const SimTime t0 = ctx.now();
    if (h2d) {
      drv.memcpy_htod(p, util::Buffer::phantom(bytes), mem);
    } else {
      (void)drv.memcpy_dtoh(p, bytes, mem);
    }
    probe.elapsed = ctx.now() - t0;
    probe.mib_s = mib_per_s(bytes, probe.elapsed);
  });
  engine.run();
  return probe;
}

/// Raw dmpi bandwidth: the IMB PingPong upper bound of Figures 5-8.
inline Probe mpi_pingpong(std::uint64_t bytes,
                          net::FabricParams fabric_params = {},
                          dmpi::MpiParams mpi_params = {}) {
  sim::Engine engine;
  net::Fabric fabric(engine, 2, fabric_params);
  dmpi::World world(engine, fabric, {0, 1}, mpi_params);
  Probe probe;
  engine.spawn("rank0", [&](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 0);
    // Warm-up, then one timed round trip.
    mpi.send(world.world_comm(), 1, 0, util::Buffer::phantom(bytes));
    (void)mpi.recv(world.world_comm(), 1, 0);
    const SimTime t0 = ctx.now();
    mpi.send(world.world_comm(), 1, 0, util::Buffer::phantom(bytes));
    (void)mpi.recv(world.world_comm(), 1, 0);
    probe.elapsed = (ctx.now() - t0) / 2;  // IMB convention: half RTT
    probe.mib_s = mib_per_s(bytes, probe.elapsed);
  });
  engine.spawn("rank1", [&](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 1);
    for (int i = 0; i < 2; ++i) {
      auto msg = mpi.recv(world.world_comm(), 0, 0);
      mpi.send(world.world_comm(), 0, 0, std::move(msg));
    }
  });
  engine.run();
  return probe;
}

/// Everything register_result() has seen, in registration order — the
/// source for the machine-readable JSON finish() writes.
struct Result {
  std::string name;
  SimDuration simulated = 0;
  double mib_s = 0.0;
  double gflops = 0.0;
};

inline std::vector<Result>& results() {
  static std::vector<Result> cache;
  return cache;
}

/// Records one series point (simulated duration, plus whichever of MiB/s
/// and GFlop/s the figure reports) for finish()'s JSON file.
inline void register_result(const std::string& name, SimDuration simulated,
                            double mib_s = 0.0, double gflops = 0.0) {
  results().push_back({name, simulated, mib_s, gflops});
}

/// Metrics snapshot finish() folds into the BENCH_*.json file (under an
/// "obs" key). Benches that run with ClusterConfig::metrics call
/// record_metrics(cluster.metrics()) after cluster.run(); the snapshot is
/// deterministic, so the committed JSON stays stable across machines and
/// execution backends.
inline std::string& metrics_snapshot() {
  static std::string cache;
  return cache;
}

inline void record_metrics(const obs::Registry& registry) {
  std::string snap = registry.json();
  while (!snap.empty() && snap.back() == '\n') snap.pop_back();
  metrics_snapshot() = std::move(snap);
}

/// Standard message-size sweep of the bandwidth figures (1 KiB .. 64 MiB).
inline std::vector<std::uint64_t> figure_sizes() {
  return {1_KiB,  4_KiB,   16_KiB, 64_KiB, 256_KiB,
          1_MiB,  4_MiB,   16_MiB, 64_MiB};
}

inline std::string size_label(std::uint64_t bytes) {
  if (bytes >= 1_MiB) return std::to_string(bytes / 1_MiB) + "MiB";
  return std::to_string(bytes / 1_KiB) + "KiB";
}

/// The bench's exit status. When json_path is non-empty, first writes every
/// register_result() entry to that file as one JSON object per series point
/// (the BENCH_fig*.json files committed at the repo root).
inline int finish(const std::string& json_path = "") {
  if (json_path.empty()) return 0;
  std::ofstream json(json_path);
  json << "{\n  \"results\": [\n";
  const std::vector<Result>& all = results();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Result& r = all[i];
    json << "    {\"name\": \"" << r.name
         << "\", \"sim_ns\": " << r.simulated;
    if (r.mib_s > 0.0) json << ", \"mib_s\": " << r.mib_s;
    if (r.gflops > 0.0) json << ", \"gflops\": " << r.gflops;
    json << '}' << (i + 1 < all.size() ? "," : "") << '\n';
  }
  json << "  ]";
  if (!metrics_snapshot().empty()) {
    json << ",\n  \"obs\": " << metrics_snapshot();
  }
  json << "\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace dacc::bench
