#include "mdsim/srd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace dacc::mdsim {
namespace {

std::vector<double> random_particles(std::uint64_t n, double box,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> data(n * 6);
  for (std::uint64_t i = 0; i < n; ++i) {
    data[i * 6 + 0] = rng.uniform(0, box);
    data[i * 6 + 1] = rng.uniform(0, box);
    data[i * 6 + 2] = rng.uniform(0, box);
    data[i * 6 + 3] = rng.normal();
    data[i * 6 + 4] = rng.normal();
    data[i * 6 + 5] = rng.normal();
  }
  return data;
}

SrdGrid grid_for(int side, double shift = 0.3) {
  SrdGrid g;
  g.cell = 1.0;
  g.nc[0] = g.nc[1] = g.nc[2] = side;
  g.shift[0] = shift;
  g.shift[1] = shift * 0.5;
  g.shift[2] = shift * 0.25;
  return g;
}

/// One pure-fluid step: the coupled collision without solutes.
void collide(std::span<double> data, std::uint64_t n, const SrdGrid& grid,
             double cos_a, double sin_a, std::uint64_t seed) {
  srd_collide_coupled(data, n, {}, 0, 1.0, grid, cos_a, sin_a, seed);
}

struct Totals {
  double ke = 0.0;
  double mom[3] = {0, 0, 0};
};

Totals totals(const std::vector<double>& data) {
  Totals t;
  for (std::uint64_t i = 0; i * 6 < data.size(); ++i) {
    const double* v = data.data() + i * 6 + 3;
    t.ke += 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
    for (int d = 0; d < 3; ++d) t.mom[d] += v[d];
  }
  return t;
}

TEST(Srd, ConservesKineticEnergyAndMomentum) {
  auto data = random_particles(5000, 8.0, 1);
  const Totals before = totals(data);
  const double a = 130.0 * M_PI / 180.0;
  collide(data, 5000, grid_for(8), std::cos(a), std::sin(a), 99);
  const Totals after = totals(data);
  EXPECT_NEAR(after.ke, before.ke, 1e-9 * before.ke);
  for (int d = 0; d < 3; ++d) {
    EXPECT_NEAR(after.mom[d], before.mom[d], 1e-9 * 5000);
  }
}

TEST(Srd, ActuallyChangesVelocities) {
  auto data = random_particles(1000, 5.0, 2);
  const auto before = data;
  const double a = 130.0 * M_PI / 180.0;
  collide(data, 1000, grid_for(5), std::cos(a), std::sin(a), 7);
  double delta = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    delta = std::max(delta, std::fabs(data[i] - before[i]));
  }
  EXPECT_GT(delta, 1e-3);
  // Positions must be untouched.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(data[i * 6 + d], before[i * 6 + d]);
    }
  }
}

TEST(Srd, SingleParticleCellIsFixedPoint) {
  // A particle alone in its cell has v == mean: the rotation acts on zero.
  std::vector<double> data{0.5, 0.5, 0.5, 1.0, -2.0, 3.0};
  const double a = 130.0 * M_PI / 180.0;
  collide(data, 1, grid_for(4, 0.0), std::cos(a), std::sin(a), 1);
  EXPECT_DOUBLE_EQ(data[3], 1.0);
  EXPECT_DOUBLE_EQ(data[4], -2.0);
  EXPECT_DOUBLE_EQ(data[5], 3.0);
}

TEST(Srd, DeterministicForSameSeed) {
  auto a = random_particles(500, 4.0, 3);
  auto b = a;
  const double an = 130.0 * M_PI / 180.0;
  collide(a, 500, grid_for(4), std::cos(an), std::sin(an), 5);
  collide(b, 500, grid_for(4), std::cos(an), std::sin(an), 5);
  EXPECT_EQ(a, b);
}

TEST(Srd, DifferentSeedsRotateDifferently) {
  auto a = random_particles(500, 4.0, 3);
  auto b = a;
  const double an = 130.0 * M_PI / 180.0;
  collide(a, 500, grid_for(4), std::cos(an), std::sin(an), 5);
  collide(b, 500, grid_for(4), std::cos(an), std::sin(an), 6);
  EXPECT_NE(a, b);
}

TEST(Srd, CellIndexIsPeriodic) {
  const SrdGrid g = grid_for(4, 0.5);
  // x below the shift wraps to the last cell.
  const auto low = srd_cell_index(0.1, 1.0, 1.0, g);
  const auto high = srd_cell_index(3.9, 1.0, 1.0, g);
  EXPECT_EQ(low, high);  // both land in the cell spanning the boundary
}

TEST(Srd, CellCornerWrapsIntoBox) {
  const SrdGrid g = grid_for(4, 0.5);
  const double corner_low = srd_cell_corner_x(0.1, g);
  EXPECT_NEAR(corner_low, 3.5, 1e-12);  // the wrapped boundary cell
  const double corner_mid = srd_cell_corner_x(1.7, g);
  EXPECT_NEAR(corner_mid, 1.5, 1e-12);
}

TEST(Srd, ZeroAngleIsIdentity) {
  auto data = random_particles(300, 4.0, 9);
  const auto before = data;
  collide(data, 300, grid_for(4), 1.0, 0.0, 5);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i], before[i], 1e-12);
  }
}

}  // namespace
}  // namespace dacc::mdsim
