#include "la/matrix.hpp"

#include <cmath>
#include <cstring>

namespace dacc::la {

util::Buffer HostMatrix::pack(int i0, int j0, int rows, int cols) const {
  if (i0 < 0 || j0 < 0 || i0 + rows > m_ || j0 + cols > n_) {
    throw std::out_of_range("HostMatrix::pack");
  }
  const auto bytes =
      static_cast<std::uint64_t>(rows) * cols * sizeof(double);
  if (!storage_.is_backed()) return util::Buffer::phantom(bytes);
  util::Buffer out = util::Buffer::backed_zero(bytes);
  auto dst = out.as_mutable<double>();
  const double* src = data();
  for (int c = 0; c < cols; ++c) {
    std::memcpy(dst.data() + static_cast<std::size_t>(c) * rows,
                src + static_cast<std::size_t>(j0 + c) * m_ + i0,
                static_cast<std::size_t>(rows) * sizeof(double));
  }
  return out;
}

void HostMatrix::unpack(int i0, int j0, int rows, int cols,
                        const util::Buffer& src) {
  if (i0 < 0 || j0 < 0 || i0 + rows > m_ || j0 + cols > n_) {
    throw std::out_of_range("HostMatrix::unpack");
  }
  if (src.size() != static_cast<std::uint64_t>(rows) * cols * sizeof(double)) {
    throw std::invalid_argument("HostMatrix::unpack: size mismatch");
  }
  if (!storage_.is_backed() || !src.is_backed()) return;
  auto s = src.as<double>();
  double* dst = data();
  for (int c = 0; c < cols; ++c) {
    std::memcpy(dst + static_cast<std::size_t>(j0 + c) * m_ + i0,
                s.data() + static_cast<std::size_t>(c) * rows,
                static_cast<std::size_t>(rows) * sizeof(double));
  }
}

void HostMatrix::fill_random(util::Rng& rng) {
  if (!storage_.is_backed()) return;
  double* p = data();
  const std::size_t count = static_cast<std::size_t>(m_) * n_;
  for (std::size_t i = 0; i < count; ++i) p[i] = rng.uniform(-1.0, 1.0);
}

double HostMatrix::max_abs_diff(const HostMatrix& a, const HostMatrix& b) {
  if (a.m() != b.m() || a.n() != b.n()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double worst = 0.0;
  const std::size_t count = static_cast<std::size_t>(a.m()) * a.n();
  for (std::size_t i = 0; i < count; ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

}  // namespace dacc::la
