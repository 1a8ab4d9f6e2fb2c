#include "mdsim/srd.hpp"

#include <cmath>
#include <array>
#include <unordered_map>

#include "util/rng.hpp"

namespace dacc::mdsim {

namespace {

/// Periodic cell coordinate along one dimension.
inline std::int64_t cell_coord(double x, double shift, double cell, int nc) {
  auto k = static_cast<std::int64_t>(std::floor((x - shift) / cell));
  k %= nc;
  if (k < 0) k += nc;
  return k;
}

}  // namespace

std::int64_t srd_cell_index(double x, double y, double z,
                            const SrdGrid& g) {
  const std::int64_t kx = cell_coord(x, g.shift[0], g.cell, g.nc[0]);
  const std::int64_t ky = cell_coord(y, g.shift[1], g.cell, g.nc[1]);
  const std::int64_t kz = cell_coord(z, g.shift[2], g.cell, g.nc[2]);
  return (kz * g.nc[1] + ky) * g.nc[0] + kx;
}

double srd_cell_corner_x(double x, const SrdGrid& g) {
  const double corner =
      std::floor((x - g.shift[0]) / g.cell) * g.cell + g.shift[0];
  const double lx = g.nc[0] * g.cell;
  double wrapped = std::fmod(corner, lx);
  if (wrapped < 0) wrapped += lx;
  return wrapped;
}

void srd_collide_coupled(std::span<double> fluid, std::uint64_t n_fluid,
                         std::span<double> solutes, std::uint64_t n_solutes,
                         double solute_mass, const SrdGrid& g, double cos_a,
                         double sin_a, std::uint64_t seed) {
  struct CellAccum {
    double msum[3] = {0, 0, 0};
    double mass = 0.0;
  };
  std::unordered_map<std::int64_t, CellAccum> cells;
  cells.reserve((n_fluid + n_solutes) / 4 + 16);

  auto accumulate = [&](std::span<double> data, std::uint64_t n, double m) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const double* p = data.data() + i * 6;
      CellAccum& c = cells[srd_cell_index(p[0], p[1], p[2], g)];
      c.msum[0] += m * p[3];
      c.msum[1] += m * p[4];
      c.msum[2] += m * p[5];
      c.mass += m;
    }
  };
  accumulate(fluid, n_fluid, 1.0);
  accumulate(solutes, n_solutes, solute_mass);

  // Per-cell random rotation axis, deterministic in (seed, cell index).
  std::unordered_map<std::int64_t, std::array<double, 3>> axes;
  axes.reserve(cells.size());
  for (const auto& [id, accum] : cells) {
    (void)accum;
    util::Rng rng(seed ^ (static_cast<std::uint64_t>(id) *
                          0x9e3779b97f4a7c15ull));
    const double z = rng.uniform(-1.0, 1.0);
    const double phi = rng.uniform(0.0, 2.0 * M_PI);
    const double r = std::sqrt(std::max(0.0, 1.0 - z * z));
    axes[id] = {r * std::cos(phi), r * std::sin(phi), z};
  }

  auto rotate = [&](std::span<double> data, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      double* p = data.data() + i * 6;
      const std::int64_t id = srd_cell_index(p[0], p[1], p[2], g);
      const CellAccum& c = cells[id];
      const double inv = 1.0 / c.mass;
      const double mean[3] = {c.msum[0] * inv, c.msum[1] * inv,
                              c.msum[2] * inv};
      const double rel[3] = {p[3] - mean[0], p[4] - mean[1], p[5] - mean[2]};
      const auto& u = axes[id];
      // Rodrigues rotation: v' = v c + (u x v) s + u (u.v)(1 - c).
      const double dot = u[0] * rel[0] + u[1] * rel[1] + u[2] * rel[2];
      const double cross[3] = {u[1] * rel[2] - u[2] * rel[1],
                               u[2] * rel[0] - u[0] * rel[2],
                               u[0] * rel[1] - u[1] * rel[0]};
      for (int d = 0; d < 3; ++d) {
        p[3 + d] = mean[d] + rel[d] * cos_a + cross[d] * sin_a +
                   u[d] * dot * (1.0 - cos_a);
      }
    }
  };
  rotate(fluid, n_fluid);
  rotate(solutes, n_solutes);
}

}  // namespace dacc::mdsim
