#include "mdsim/solutes.hpp"

#include <cmath>
#include <stdexcept>

#include "util/buffer.hpp"

namespace dacc::mdsim {

namespace {

constexpr int kTagGhostLeft = 511;
constexpr int kTagGhostRight = 512;
constexpr int kTagSoluteMigrateLeft = 513;
constexpr int kTagSoluteMigrateRight = 514;

double wrap(double x, double l) {
  double w = std::fmod(x, l);
  if (w < 0) w += l;
  return w;
}

/// Minimum-image displacement along a periodic dimension.
double min_image(double d, double l) {
  if (d > l / 2) return d - l;
  if (d < -l / 2) return d + l;
  return d;
}

}  // namespace

SoluteSystem::SoluteSystem(const SoluteParams& params, int rank, int ranks,
                           double lo, double hi, double lx, double ly,
                           double lz, std::uint64_t seed)
    : params_(params),
      rank_(rank),
      ranks_(ranks),
      lo_(lo),
      hi_(hi),
      lx_(lx),
      ly_(ly),
      lz_(lz) {
  if (params_.rcut > (hi - lo)) {
    throw std::invalid_argument("solutes: cutoff wider than the slab");
  }
  n_ = params_.count / static_cast<std::uint64_t>(ranks) +
       (static_cast<std::uint64_t>(rank) <
                params_.count % static_cast<std::uint64_t>(ranks)
            ? 1
            : 0);
  data_.resize(n_ * 6);
  forces_.resize(n_ * 3, 0.0);

  // Lattice placement: spacing >= ~1.1 sigma keeps the LJ energy sane.
  const double spacing = std::max(1.1 * params_.sigma, 1.0);
  const auto per_row = static_cast<std::uint64_t>(
      std::max(1.0, std::floor((hi - lo) / spacing)));
  const auto per_col =
      static_cast<std::uint64_t>(std::max(1.0, std::floor(ly / spacing)));
  util::Rng rng(seed + static_cast<std::uint64_t>(rank) * 31337);
  const double vsigma = 1.0 / std::sqrt(params_.mass);  // unit temperature
  for (std::uint64_t i = 0; i < n_; ++i) {
    double* p = data_.data() + i * 6;
    const std::uint64_t ix = i % per_row;
    const std::uint64_t iy = (i / per_row) % per_col;
    const std::uint64_t iz = i / (per_row * per_col);
    p[0] = lo + (static_cast<double>(ix) + 0.5) * spacing;
    p[1] = wrap((static_cast<double>(iy) + 0.5) * spacing, ly);
    p[2] = wrap((static_cast<double>(iz) + 0.5) * spacing, lz);
    if (p[0] >= hi) p[0] = lo + (hi - lo) * 0.5;  // overflow: park mid-slab
    p[3] = vsigma * rng.normal();
    p[4] = vsigma * rng.normal();
    p[5] = vsigma * rng.normal();
  }
}

void SoluteSystem::accumulate_pair(double xi, double yi, double zi, double xj,
                                   double yj, double zj, double* fi) {
  const double dx = min_image(xi - xj, lx_);
  const double dy = min_image(yi - yj, ly_);
  const double dz = min_image(zi - zj, lz_);
  const double r2 = dx * dx + dy * dy + dz * dz;
  if (r2 >= params_.rcut * params_.rcut || r2 == 0.0) return;
  const double s2 = params_.sigma * params_.sigma / r2;
  const double s6 = s2 * s2 * s2;
  // LJ: U = 4 eps (s^12 - s^6); F = 24 eps (2 s^12 - s^6) / r^2 * dr.
  const double coeff = 24.0 * params_.epsilon * (2.0 * s6 * s6 - s6) / r2;
  fi[0] += coeff * dx;
  fi[1] += coeff * dy;
  fi[2] += coeff * dz;
  // Half of the pair potential (the other half is counted by the partner,
  // locally or on the neighbouring rank).
  potential_ += 2.0 * params_.epsilon * (s6 * s6 - s6);
}

std::vector<double> SoluteSystem::exchange_ghosts(dmpi::Mpi& mpi,
                                                  const dmpi::Comm& comm) {
  std::vector<double> ghosts;
  if (ranks_ == 1) return ghosts;  // periodic x handled by min_image locally
  const int left = (rank_ - 1 + ranks_) % ranks_;
  const int right = (rank_ + 1) % ranks_;
  std::vector<double> to_left;
  std::vector<double> to_right;
  for (std::uint64_t i = 0; i < n_; ++i) {
    const double* p = data_.data() + i * 6;
    // Distance to boundary in periodic x.
    if (wrap(p[0] - lo_, lx_) < params_.rcut) {
      to_left.insert(to_left.end(), p, p + 3);
    }
    if (wrap(hi_ - p[0], lx_) <= params_.rcut) {
      to_right.insert(to_right.end(), p, p + 3);
    }
  }
  auto xchg = [&](int to, int from, int tag, std::vector<double>& out) {
    const util::Buffer in = mpi.sendrecv(
        comm, to, tag, util::Buffer::of<double>(std::span<const double>(out)),
        from, tag);
    auto view = in.as<double>();
    return std::vector<double>(view.begin(), view.end());
  };
  const auto from_right = xchg(left, right, kTagGhostLeft, to_left);
  const auto from_left = xchg(right, left, kTagGhostRight, to_right);
  ghosts = from_right;
  ghosts.insert(ghosts.end(), from_left.begin(), from_left.end());
  return ghosts;
}

void SoluteSystem::compute_forces(dmpi::Mpi& mpi, const dmpi::Comm& comm) {
  potential_ = 0.0;
  std::fill(forces_.begin(), forces_.end(), 0.0);
  const std::vector<double> ghosts = exchange_ghosts(mpi, comm);
  for (std::uint64_t i = 0; i < n_; ++i) {
    const double* pi = data_.data() + i * 6;
    double* fi = forces_.data() + i * 3;
    for (std::uint64_t j = 0; j < n_; ++j) {
      if (i == j) continue;
      const double* pj = data_.data() + j * 6;
      accumulate_pair(pi[0], pi[1], pi[2], pj[0], pj[1], pj[2], fi);
    }
    for (std::size_t g = 0; g + 2 < ghosts.size(); g += 3) {
      accumulate_pair(pi[0], pi[1], pi[2], ghosts[g], ghosts[g + 1],
                      ghosts[g + 2], fi);
    }
  }
  // Each visit adds half a pair's energy: local pairs are visited twice
  // (i-j and j-i), ghost pairs once here and once on the neighbour, so the
  // global sum counts every pair exactly once.
  forces_valid_ = true;
}

void SoluteSystem::verlet_step(dmpi::Mpi& mpi, const dmpi::Comm& comm,
                               double dt) {
  if (n_ == 0 && ranks_ == 1) return;
  if (!forces_valid_) compute_forces(mpi, comm);
  const double half = 0.5 * dt / params_.mass;
  for (std::uint64_t i = 0; i < n_; ++i) {
    double* p = data_.data() + i * 6;
    const double* f = forces_.data() + i * 3;
    for (int d = 0; d < 3; ++d) p[3 + d] += half * f[d];
    p[0] = wrap(p[0] + p[3] * dt, lx_);
    p[1] = wrap(p[1] + p[4] * dt, ly_);
    p[2] = wrap(p[2] + p[5] * dt, lz_);
  }
  migrate(mpi, comm);
  compute_forces(mpi, comm);
  for (std::uint64_t i = 0; i < n_; ++i) {
    double* p = data_.data() + i * 6;
    const double* f = forces_.data() + i * 3;
    for (int d = 0; d < 3; ++d) p[3 + d] += half * f[d];
  }
}

void SoluteSystem::migrate(dmpi::Mpi& mpi, const dmpi::Comm& comm) {
  if (ranks_ == 1) return;
  const int left = (rank_ - 1 + ranks_) % ranks_;
  const int right = (rank_ + 1) % ranks_;
  const double slab_w = lx_ / ranks_;
  std::vector<double> stay;
  std::vector<double> to_left;
  std::vector<double> to_right;
  stay.reserve(data_.size());
  for (std::uint64_t i = 0; i < n_; ++i) {
    const double* p = data_.data() + i * 6;
    const int owner =
        std::min(ranks_ - 1, static_cast<int>(wrap(p[0], lx_) / slab_w));
    std::vector<double>* dest = &stay;
    if (owner == rank_) {
      dest = &stay;
    } else if (owner == left) {
      dest = &to_left;
    } else if (owner == right) {
      dest = &to_right;
    } else {
      throw std::runtime_error("solutes: particle crossed a whole slab");
    }
    dest->insert(dest->end(), p, p + 6);
  }
  auto xchg = [&](int to, int from, int tag, std::vector<double>& out) {
    const util::Buffer in = mpi.sendrecv(
        comm, to, tag, util::Buffer::of<double>(std::span<const double>(out)),
        from, tag);
    auto view = in.as<double>();
    stay.insert(stay.end(), view.begin(), view.end());
  };
  xchg(left, right, kTagSoluteMigrateLeft, to_left);
  xchg(right, left, kTagSoluteMigrateRight, to_right);
  data_ = std::move(stay);
  n_ = data_.size() / 6;
  forces_.assign(n_ * 3, 0.0);
  forces_valid_ = false;
}

double SoluteSystem::kinetic_energy() const {
  double ke = 0.0;
  for (std::uint64_t i = 0; i < n_; ++i) {
    const double* v = data_.data() + i * 6 + 3;
    ke += 0.5 * params_.mass * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
  }
  return ke;
}

void SoluteSystem::momentum(double out[3]) const {
  out[0] = out[1] = out[2] = 0.0;
  for (std::uint64_t i = 0; i < n_; ++i) {
    const double* v = data_.data() + i * 6 + 3;
    for (int d = 0; d < 3; ++d) out[d] += params_.mass * v[d];
  }
}

}  // namespace dacc::mdsim
