// Integration tests for the MP2C-like application through the full stack:
// conservation laws across domain decomposition + remote GPU offload, and
// the timing shape behind Figure 11.
#include "mdsim/mp2c.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace dacc::mdsim {
namespace {

std::shared_ptr<gpu::KernelRegistry> mdsim_registry() {
  auto reg = gpu::KernelRegistry::with_builtins();
  register_mdsim_kernels(*reg);
  return reg;
}

rt::ClusterConfig md_cluster(int cns, int acs, bool functional,
                             bool local_gpus = false) {
  rt::ClusterConfig c;
  c.compute_nodes = cns;
  c.accelerators = acs;
  c.functional_gpus = functional;
  c.local_gpus = local_gpus;
  c.registry = mdsim_registry();
  return c;
}

SrdParams short_run() {
  SrdParams p;
  p.steps = 20;
  p.srd_every = 5;
  return p;
}

struct RunOutput {
  std::vector<Mp2cResult> per_rank;
  SimDuration wall = 0;
};

RunOutput run(rt::ClusterConfig config, int ranks, std::uint32_t acs,
              std::uint64_t particles, const SrdParams& srd,
              bool use_local_gpu = false, std::uint64_t seed = 42) {
  rt::Cluster cluster(std::move(config));
  RunOutput out;
  out.per_rank.resize(static_cast<std::size_t>(ranks));
  rt::JobSpec spec;
  spec.ranks = ranks;
  spec.accelerators_per_rank = acs;
  spec.body = [&](rt::JobContext& job) {
    std::unique_ptr<core::DeviceLink> link;
    if (use_local_gpu) {
      link = std::make_unique<core::LocalDeviceLink>(job.local_gpu());
    } else if (acs > 0) {
      link = std::make_unique<core::RemoteDeviceLink>(job.session()[0],
                                                      job.ctx());
    }
    out.per_rank[static_cast<std::size_t>(job.rank())] =
        run_mp2c(job, link.get(), particles, srd, CostParams{}, seed);
  };
  cluster.submit(spec);
  cluster.run();
  out.wall = cluster.engine().now();
  return out;
}

TEST(Mp2c, ConservesParticlesAcrossMigration) {
  const std::uint64_t n = 4000;
  const auto out = run(md_cluster(2, 2, true), 2, 1, n, short_run());
  const std::uint64_t total =
      out.per_rank[0].local_particles + out.per_rank[1].local_particles;
  EXPECT_EQ(total, n);
  // Some migration must actually have happened over 20 steps.
  EXPECT_GT(out.per_rank[0].migrated_out + out.per_rank[1].migrated_out, 0u);
}

TEST(Mp2c, ConservesEnergyAndMomentumThroughRemoteGpu) {
  const std::uint64_t n = 4000;
  // Reference: no GPU at all (pure CPU collisions).
  const auto cpu = run(md_cluster(2, 0, true), 2, 0, n, short_run());
  // Same physics through the remote accelerators.
  const auto gpu_run = run(md_cluster(2, 2, true), 2, 1, n, short_run());
  // Energy/momentum are conserved in both; the allreduced totals agree
  // across ranks by construction, so check rank 0.
  const double ke0 = cpu.per_rank[0].kinetic_energy;
  const double ke1 = gpu_run.per_rank[0].kinetic_energy;
  EXPECT_GT(ke0, 0.0);
  EXPECT_NEAR(ke1, ke0, 1e-6 * ke0);  // identical seeds, identical physics
  for (int d = 0; d < 3; ++d) {
    EXPECT_NEAR(gpu_run.per_rank[0].momentum[static_cast<std::size_t>(d)],
                cpu.per_rank[0].momentum[static_cast<std::size_t>(d)],
                1e-7 * n);
  }
}

TEST(Mp2c, EnergyMatchesInitialThermalEnergy) {
  // KE of n particles with unit-variance Maxwell velocities ~ 1.5 n; SRD
  // conserves it exactly through all 20 steps.
  const std::uint64_t n = 6000;
  const auto out = run(md_cluster(2, 2, true), 2, 1, n, short_run());
  EXPECT_NEAR(out.per_rank[0].kinetic_energy, 1.5 * static_cast<double>(n),
              0.1 * static_cast<double>(n));
}

TEST(Mp2c, SrdStepsHappenOnSchedule) {
  const auto out = run(md_cluster(1, 1, true), 1, 1, 2000, short_run());
  EXPECT_EQ(out.per_rank[0].srd_steps, 4u);  // 20 steps, every 5th
}

TEST(Mp2c, RemoteGpuOnlySlightlySlowerThanLocal) {
  // The Figure 11 claim, at Figure 11's 5.12 M particles and with its run
  // (300 steps, SRD every 5th; rank 0's time): network-attached GPUs
  // "prolong execution by at most 4%".
  const std::uint64_t n = 5'120'000;  // phantom mode: size is free
  const SrdParams fig11;
  const auto local = run(md_cluster(2, 0, false, /*local=*/true), 2, 0, n,
                         fig11, /*use_local_gpu=*/true);
  const auto remote = run(md_cluster(2, 2, false), 2, 1, n, fig11);
  const double slowdown = static_cast<double>(remote.per_rank[0].elapsed) /
                          static_cast<double>(local.per_rank[0].elapsed);
  EXPECT_GT(slowdown, 1.0);
  EXPECT_LE(slowdown, 1.04);
}

TEST(Mp2c, GpuOffloadBeatsCpuCollisions) {
  const std::uint64_t n = 200'000;
  const auto cpu = run(md_cluster(2, 0, false), 2, 0, n, short_run());
  const auto gpu_run = run(md_cluster(2, 2, false), 2, 1, n, short_run());
  EXPECT_LT(gpu_run.wall, cpu.wall);
}

TEST(Mp2c, PhantomAndFunctionalTimingsAgreeApproximately) {
  // Phantom migration volumes are estimates, so allow a small tolerance.
  SrdParams srd = short_run();
  const std::uint64_t n = 20'000;
  const auto functional = run(md_cluster(2, 2, true), 2, 1, n, srd);
  const auto phantom = run(md_cluster(2, 2, false), 2, 1, n, srd);
  const double ratio = static_cast<double>(functional.wall) /
                       static_cast<double>(phantom.wall);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

TEST(Mp2c, DeterministicReplay) {
  const auto a = run(md_cluster(2, 2, true), 2, 1, 3000, short_run());
  const auto b = run(md_cluster(2, 2, true), 2, 1, 3000, short_run());
  EXPECT_EQ(a.wall, b.wall);
  EXPECT_EQ(a.per_rank[0].kinetic_energy, b.per_rank[0].kinetic_energy);
  EXPECT_EQ(a.per_rank[0].local_particles, b.per_rank[0].local_particles);
}

TEST(Mp2c, SingleRankNeedsNoMigration) {
  const auto out = run(md_cluster(1, 1, true), 1, 1, 2000, short_run());
  EXPECT_EQ(out.per_rank[0].migrated_out, 0u);
  EXPECT_EQ(out.per_rank[0].local_particles, 2000u);
}

TEST(Mp2c, TinySystemsGrowTheGridToFitTheRanks) {
  // 8 particles would give a 1-cell box; the geometry expands so every rank
  // still owns at least one cell-wide slab, and physics stays conserved.
  SrdParams srd = short_run();
  const auto out = run(md_cluster(4, 0, true), 4, 0, 8, srd);
  std::uint64_t total = 0;
  for (const auto& r : out.per_rank) total += r.local_particles;
  EXPECT_EQ(total, 8u);
}

}  // namespace
}  // namespace dacc::mdsim
