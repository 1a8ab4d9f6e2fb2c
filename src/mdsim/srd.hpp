// Core stochastic-rotation-dynamics math (Malevanets/Kapral SRD as surveyed
// in Gompper et al., the paper's reference [11]): particles are binned into
// a randomly shifted cubic cell grid; within each cell, velocities relative
// to the cell mean are rotated by a fixed angle around a per-cell random
// axis. Exactly conserves per-cell momentum and kinetic energy.
//
// This is the functional body of the "srd_collide" GPU kernel and of the
// CPU fallback; it is exposed so tests can check the invariants directly.
#pragma once

#include <cstdint>
#include <span>

namespace dacc::mdsim {

struct SrdGrid {
  double cell = 1.0;
  double shift[3] = {0.0, 0.0, 0.0};
  int nc[3] = {1, 1, 1};  ///< global cell counts per dimension
};

/// Applies one SRD collision step in place. `fluid` holds n_fluid particles
/// as (x, y, z, vx, vy, vz) tuples. Solutes (mass `solute_mass`, same
/// 6-double layout; none for a pure fluid step) participate in the
/// mass-weighted cell means and rotations, so momentum and kinetic energy
/// flow between solvent and solutes while the cell totals stay exactly
/// conserved (MP2C's coupling mechanism). `cos_a`/`sin_a` encode the
/// rotation angle; the per-cell axis derives deterministically from (seed,
/// cell index), so ranks that share a (boundary) cell would agree —
/// ownership re-assignment makes that unnecessary, but determinism keeps
/// runs replayable.
void srd_collide_coupled(std::span<double> fluid, std::uint64_t n_fluid,
                         std::span<double> solutes, std::uint64_t n_solutes,
                         double solute_mass, const SrdGrid& grid,
                         double cos_a, double sin_a, std::uint64_t seed);

/// Global cell index of a position under the shifted grid (periodic).
std::int64_t srd_cell_index(double x, double y, double z,
                            const SrdGrid& grid);

/// x-coordinate of the (shifted) cell's lower corner containing `x`,
/// wrapped into [0, nc[0]*cell) — the coordinate that decides which rank
/// owns the cell for the collision.
double srd_cell_corner_x(double x, const SrdGrid& grid);

}  // namespace dacc::mdsim
