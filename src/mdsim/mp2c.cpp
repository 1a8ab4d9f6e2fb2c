#include "mdsim/mp2c.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "mdsim/solutes.hpp"
#include "mdsim/srd.hpp"
#include "util/rng.hpp"

namespace dacc::mdsim {

namespace {

constexpr int kTagMigrateLeft = 501;
constexpr int kTagMigrateRight = 502;
constexpr int kTagCollLeft = 503;
constexpr int kTagCollRight = 504;

struct Particle {
  double x, y, z, vx, vy, vz;
};
static_assert(std::is_trivially_copyable_v<Particle>);
constexpr std::uint64_t kParticleBytes = sizeof(Particle);

struct Geometry {
  SrdGrid grid;    ///< shift filled per collision step
  double lx, ly, lz;
  double slab_w;   ///< slab width along x
  int ranks;
};

Geometry make_geometry(std::uint64_t total_particles, const SrdParams& srd,
                       int ranks) {
  const double cells =
      static_cast<double>(total_particles) / srd.particles_per_cell;
  const int side = std::max(
      ranks, static_cast<int>(std::llround(std::cbrt(cells))));
  Geometry geo;
  geo.grid.cell = srd.cell_size;
  geo.grid.nc[0] = side;
  geo.grid.nc[1] = side;
  geo.grid.nc[2] = side;
  geo.lx = side * srd.cell_size;
  geo.ly = geo.lx;
  geo.lz = geo.lx;
  geo.ranks = ranks;
  geo.slab_w = geo.lx / ranks;
  if (geo.slab_w < srd.cell_size) {
    throw std::invalid_argument("mp2c: slab narrower than a collision cell");
  }
  return geo;
}

int rank_of_x(double x, const Geometry& geo) {
  double wrapped = std::fmod(x, geo.lx);
  if (wrapped < 0) wrapped += geo.lx;
  return std::min(geo.ranks - 1,
                  static_cast<int>(wrapped / geo.slab_w));
}

double wrap(double x, double l) {
  double w = std::fmod(x, l);
  if (w < 0) w += l;
  return w;
}

}  // namespace

void register_mdsim_kernels(gpu::KernelRegistry& registry,
                            const CostParams& costs) {
  // srd_collide(ptr fluid, i64 n_fluid, ptr solutes, i64 n_solutes,
  //             f64 solute_mass, f64 cell, f64 sx, sy, sz,
  //             i64 ncx, ncy, ncz, f64 cos_a, f64 sin_a, i64 seed)
  registry.register_kernel(
      "srd_collide",
      gpu::KernelDef{
          [](gpu::Device& dev, const gpu::LaunchConfig&,
             const gpu::KernelArgs& args) {
            const auto n = static_cast<std::uint64_t>(gpu::arg_i64(args, 1));
            const auto ns = static_cast<std::uint64_t>(gpu::arg_i64(args, 3));
            if (n + ns == 0) return;
            auto data = dev.span_as<double>(gpu::arg_ptr(args, 0), n * 6);
            std::span<double> solutes;
            if (ns > 0) {
              solutes = dev.span_as<double>(gpu::arg_ptr(args, 2), ns * 6);
            }
            SrdGrid grid;
            grid.cell = gpu::arg_f64(args, 5);
            grid.shift[0] = gpu::arg_f64(args, 6);
            grid.shift[1] = gpu::arg_f64(args, 7);
            grid.shift[2] = gpu::arg_f64(args, 8);
            grid.nc[0] = static_cast<int>(gpu::arg_i64(args, 9));
            grid.nc[1] = static_cast<int>(gpu::arg_i64(args, 10));
            grid.nc[2] = static_cast<int>(gpu::arg_i64(args, 11));
            srd_collide_coupled(data, n, solutes, ns, gpu::arg_f64(args, 4),
                                grid, gpu::arg_f64(args, 12),
                                gpu::arg_f64(args, 13),
                                static_cast<std::uint64_t>(
                                    gpu::arg_i64(args, 14)));
          },
          [costs](const gpu::LaunchConfig&, const gpu::KernelArgs& args) {
            const double n = static_cast<double>(gpu::arg_i64(args, 1)) +
                             static_cast<double>(gpu::arg_i64(args, 3));
            return static_cast<SimDuration>(n *
                                            costs.gpu_srd_ns_per_particle);
          }});
}

Mp2cResult run_mp2c(rt::JobContext& job, core::DeviceLink* gpu,
                    std::uint64_t total_particles, const SrdParams& srd,
                    const CostParams& costs, std::uint64_t seed) {
  sim::Context& ctx = job.ctx();
  dmpi::Mpi& mpi = job.mpi();
  const dmpi::Comm& comm = job.job_comm();
  const int me = job.rank();
  const int ranks = job.size();
  const bool functional = job.cluster().config().functional_gpus;
  const Geometry geo = make_geometry(total_particles, srd, ranks);
  const double lo = me * geo.slab_w;
  const double hi = (me + 1) * geo.slab_w;
  const int left = (me - 1 + ranks) % ranks;
  const int right = (me + 1) % ranks;
  const double alpha = srd.alpha_deg * M_PI / 180.0;
  const double cos_a = std::cos(alpha);
  const double sin_a = std::sin(alpha);

  // --- initialize local particles ------------------------------------------
  std::uint64_t n_local =
      total_particles / static_cast<std::uint64_t>(ranks) +
      (static_cast<std::uint64_t>(me) <
               total_particles % static_cast<std::uint64_t>(ranks)
           ? 1
           : 0);
  std::vector<Particle> particles;
  if (functional) {
    util::Rng rng(seed + static_cast<std::uint64_t>(me) * 7919);
    particles.resize(n_local);
    for (Particle& p : particles) {
      p.x = rng.uniform(lo, hi);
      p.y = rng.uniform(0.0, geo.ly);
      p.z = rng.uniform(0.0, geo.lz);
      p.vx = rng.normal();
      p.vy = rng.normal();
      p.vz = rng.normal();
    }
    // Remove the global centre-of-mass drift so the conserved momentum is
    // zero (standard MD initialization).
    double sum[3] = {0, 0, 0};
    for (const Particle& p : particles) {
      sum[0] += p.vx;
      sum[1] += p.vy;
      sum[2] += p.vz;
    }
    double mean[3];
    for (int d = 0; d < 3; ++d) {
      mean[d] = mpi.allreduce_sum(comm, sum[d]) /
                static_cast<double>(total_particles);
    }
    for (Particle& p : particles) {
      p.vx -= mean[0];
      p.vy -= mean[1];
      p.vz -= mean[2];
    }
  }

  // MD solutes (the coupled multi-scale half of MP2C).
  std::unique_ptr<SoluteSystem> solutes;
  std::uint64_t n_solutes = srd.solutes.count / static_cast<std::uint64_t>(ranks);
  if (functional && srd.solutes.count > 0) {
    solutes = std::make_unique<SoluteSystem>(srd.solutes, me, ranks, lo, hi,
                                             geo.lx, geo.ly, geo.lz,
                                             seed ^ 0x50107eull);
    n_solutes = solutes->size();
  }

  // Device buffers with headroom for load imbalance.
  gpu::DevPtr d_data = gpu::kNullDevPtr;
  gpu::DevPtr d_solutes = gpu::kNullDevPtr;
  const std::uint64_t capacity = n_local + n_local / 2 + 1024;
  const std::uint64_t solute_capacity = 2 * n_solutes + 64;
  if (gpu != nullptr) {
    d_data = gpu->alloc(capacity * kParticleBytes);
    if (srd.solutes.count > 0) {
      d_solutes = gpu->alloc(solute_capacity * kParticleBytes);
    }
  }

  util::Rng shift_rng(seed ^ 0xabcdef);  // same stream on every rank

  Mp2cResult result;
  const SimTime t0 = ctx.now();

  for (int step = 1; step <= srd.steps; ++step) {
    // 1. MD / streaming step on the CPU.
    ctx.wait_for(static_cast<SimDuration>(
        static_cast<double>(n_local) * costs.cpu_md_ns_per_particle));
    if (functional) {
      for (Particle& p : particles) {
        p.x = wrap(p.x + p.vx * srd.dt, geo.lx);
        p.y = wrap(p.y + p.vy * srd.dt, geo.ly);
        p.z = wrap(p.z + p.vz * srd.dt, geo.lz);
      }
    }

    // 1b. MD solutes: velocity Verlet with LJ forces (+ ghost exchange).
    if (srd.solutes.count > 0) {
      ctx.wait_for(static_cast<SimDuration>(
          static_cast<double>(n_solutes) * costs.cpu_lj_ns_per_solute));
      if (solutes) {
        solutes->verlet_step(mpi, comm, srd.dt);
        n_solutes = solutes->size();
      }
    }

    // 2. Migration of particles that left the slab.
    if (ranks > 1) {
      ctx.wait_for(static_cast<SimDuration>(
          static_cast<double>(n_local) * costs.cpu_sort_ns_per_particle));
      util::Buffer to_left;
      util::Buffer to_right;
      if (functional) {
        std::vector<Particle> l, r, stay;
        stay.reserve(particles.size());
        for (const Particle& p : particles) {
          const int owner = rank_of_x(p.x, geo);
          if (owner == me) {
            stay.push_back(p);
          } else if (owner == left) {
            l.push_back(p);
          } else if (owner == right) {
            r.push_back(p);
          } else {
            throw std::runtime_error("mp2c: particle crossed a whole slab");
          }
        }
        result.migrated_out += l.size() + r.size();
        particles = std::move(stay);
        to_left = util::Buffer::of<Particle>(std::span<const Particle>(l));
        to_right = util::Buffer::of<Particle>(std::span<const Particle>(r));
      } else {
        const auto est = static_cast<std::uint64_t>(
            static_cast<double>(n_local) * costs.migration_fraction / 2.0);
        to_left = util::Buffer::phantom(est * kParticleBytes);
        to_right = util::Buffer::phantom(est * kParticleBytes);
      }
      util::Buffer from_right = mpi.sendrecv(comm, left, kTagMigrateLeft,
                                             std::move(to_left), right,
                                             kTagMigrateLeft);
      util::Buffer from_left = mpi.sendrecv(comm, right, kTagMigrateRight,
                                            std::move(to_right), left,
                                            kTagMigrateRight);
      if (functional) {
        for (const util::Buffer* in : {&from_right, &from_left}) {
          for (const Particle& p : in->as<Particle>()) {
            particles.push_back(p);
          }
        }
        n_local = particles.size();
      }
    }

    // 3. SRD collision every srd_every-th step.
    if (step % srd.srd_every != 0) continue;
    ++result.srd_steps;

    SrdGrid grid = geo.grid;
    for (double& s : grid.shift) {
      s = shift_rng.uniform(0.0, grid.cell);
    }

    // 3a. Re-assign boundary-band particles to the rank owning their
    //     shifted collision cell (the cross-rank cell consistency step).
    if (ranks > 1) {
      util::Buffer to_left;
      util::Buffer to_right;
      if (functional) {
        std::vector<Particle> l, r, stay;
        stay.reserve(particles.size());
        for (const Particle& p : particles) {
          const int owner = rank_of_x(srd_cell_corner_x(p.x, grid), geo);
          if (owner == me) {
            stay.push_back(p);
          } else if (owner == left) {
            l.push_back(p);
          } else if (owner == right) {
            r.push_back(p);
          } else {
            throw std::runtime_error("mp2c: collision cell too far");
          }
        }
        particles = std::move(stay);
        to_left = util::Buffer::of<Particle>(std::span<const Particle>(l));
        to_right = util::Buffer::of<Particle>(std::span<const Particle>(r));
      } else {
        // One cell-wide band moves toward the lower-x neighbour.
        const auto est = static_cast<std::uint64_t>(
            static_cast<double>(n_local) * grid.cell / geo.slab_w);
        to_left = util::Buffer::phantom(est * kParticleBytes);
        to_right = util::Buffer::phantom(0);
      }
      util::Buffer from_right = mpi.sendrecv(comm, left, kTagCollLeft,
                                             std::move(to_left), right,
                                             kTagCollLeft);
      util::Buffer from_left = mpi.sendrecv(comm, right, kTagCollRight,
                                            std::move(to_right), left,
                                            kTagCollRight);
      if (functional) {
        for (const util::Buffer* in : {&from_right, &from_left}) {
          for (const Particle& p : in->as<Particle>()) {
            particles.push_back(p);
          }
        }
        n_local = particles.size();
      }
    }

    // 3b. Offload the collision (solutes participate, mass-weighted).
    const std::uint64_t bytes = n_local * kParticleBytes;
    const std::uint64_t solute_bytes = n_solutes * kParticleBytes;
    const gpu::KernelArgs args{
        d_data,
        static_cast<std::int64_t>(n_local),
        srd.solutes.count > 0 ? d_solutes : d_data,
        static_cast<std::int64_t>(n_solutes),
        srd.solutes.mass,
        grid.cell,
        grid.shift[0],
        grid.shift[1],
        grid.shift[2],
        std::int64_t{grid.nc[0]},
        std::int64_t{grid.nc[1]},
        std::int64_t{grid.nc[2]},
        cos_a,
        sin_a,
        static_cast<std::int64_t>(seed + static_cast<std::uint64_t>(step))};
    if (gpu != nullptr) {
      if (n_local > capacity || n_solutes > solute_capacity) {
        throw std::runtime_error("mp2c: device buffer overflow");
      }
      util::Buffer up =
          functional ? util::Buffer::of<Particle>(
                           std::span<const Particle>(particles))
                     : util::Buffer::phantom(bytes);
      gpu->h2d(d_data, std::move(up));
      if (srd.solutes.count > 0 && n_solutes > 0) {
        util::Buffer sup =
            solutes ? util::Buffer::of<double>(std::span<const double>(
                          solutes->data().data(), n_solutes * 6))
                    : util::Buffer::phantom(solute_bytes);
        gpu->h2d(d_solutes, std::move(sup));
      }
      gpu->launch("srd_collide", args);
      util::Buffer down = gpu->d2h(d_data, bytes);
      if (functional) {
        auto updated = down.as<Particle>();
        std::copy(updated.begin(), updated.end(), particles.begin());
      }
      if (srd.solutes.count > 0 && n_solutes > 0) {
        util::Buffer sdown = gpu->d2h(d_solutes, solute_bytes);
        if (solutes) {
          auto view = sdown.as<double>();
          std::copy(view.begin(), view.end(), solutes->data().begin());
        }
      }
    } else {
      // CPU fallback: same math, CPU cost.
      ctx.wait_for(static_cast<SimDuration>(
          static_cast<double>(n_local + n_solutes) *
          costs.cpu_md_ns_per_particle));
      if (functional) {
        std::span<double> data(reinterpret_cast<double*>(particles.data()),
                               n_local * 6);
        std::span<double> sol =
            solutes ? std::span<double>(solutes->data().data(),
                                        n_solutes * 6)
                    : std::span<double>{};
        srd_collide_coupled(data, n_local, sol, n_solutes,
                            srd.solutes.mass, grid, cos_a, sin_a,
                            seed + static_cast<std::uint64_t>(step));
      }
    }
  }

  result.elapsed = ctx.now() - t0;
  result.local_particles = n_local;

  result.local_solutes = n_solutes;
  if (functional) {
    double ke = 0.0;
    double mom[3] = {0, 0, 0};
    for (const Particle& p : particles) {
      ke += 0.5 * (p.vx * p.vx + p.vy * p.vy + p.vz * p.vz);
      mom[0] += p.vx;
      mom[1] += p.vy;
      mom[2] += p.vz;
    }
    double smom[3] = {0, 0, 0};
    double ske = 0.0;
    double spot = 0.0;
    if (solutes) {
      solutes->momentum(smom);
      ske = solutes->kinetic_energy();
      spot = solutes->potential_energy();
    }
    result.kinetic_energy = mpi.allreduce_sum(comm, ke + ske);
    result.solute_kinetic = mpi.allreduce_sum(comm, ske);
    result.solute_potential = mpi.allreduce_sum(comm, spot);
    for (int d = 0; d < 3; ++d) {
      result.momentum[static_cast<std::size_t>(d)] =
          mpi.allreduce_sum(comm, mom[d] + smom[d]);
    }
  }

  if (gpu != nullptr) {
    if (d_solutes != gpu::kNullDevPtr) gpu->free(d_solutes);
    gpu->free(d_data);
  }
  return result;
}

}  // namespace dacc::mdsim
