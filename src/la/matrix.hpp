// Column-major host matrices (LAPACK layout), with the backed/phantom split
// used throughout dacc: functional runs hold real doubles and are verified
// numerically; paper-scale benchmark runs hold only shape and sizes.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

#include "util/buffer.hpp"
#include "util/rng.hpp"

namespace dacc::la {

class HostMatrix {
 public:
  /// An m x n matrix with leading dimension m. Backed (zero-initialized)
  /// when functional, phantom otherwise.
  HostMatrix(int m, int n, bool functional = true)
      : m_(m), n_(n) {
    if (m < 0 || n < 0) throw std::invalid_argument("HostMatrix: bad shape");
    const auto bytes = static_cast<std::uint64_t>(m) * n * sizeof(double);
    storage_ = functional ? util::Buffer::backed_zero(bytes)
                          : util::Buffer::phantom(bytes);
  }

  int m() const { return m_; }
  int n() const { return n_; }
  int ld() const { return m_; }
  bool functional() const { return storage_.is_backed(); }
  std::uint64_t bytes() const { return storage_.size(); }

  double* data() {
    return reinterpret_cast<double*>(storage_.mutable_bytes().data());
  }
  const double* data() const {
    return reinterpret_cast<const double*>(
        const_cast<util::Buffer&>(storage_).mutable_bytes().data());
  }

  double& at(int i, int j) {
    check(i, j);
    return data()[static_cast<std::size_t>(j) * m_ + i];
  }
  double at(int i, int j) const {
    check(i, j);
    return data()[static_cast<std::size_t>(j) * m_ + i];
  }

  /// Packs the submatrix [i0, i0+rows) x [j0, j0+cols) into a contiguous
  /// column-major buffer with leading dimension `rows`. Phantom-aware.
  util::Buffer pack(int i0, int j0, int rows, int cols) const;

  /// Scatters a packed buffer back into [i0, ...) x [j0, ...).
  void unpack(int i0, int j0, int rows, int cols, const util::Buffer& src);

  /// Fills with uniform random values in [-1, 1) (functional only; no-op on
  /// phantom matrices).
  void fill_random(util::Rng& rng);

  /// max |A - B| over all entries.
  static double max_abs_diff(const HostMatrix& a, const HostMatrix& b);

 private:
  void check(int i, int j) const {
    if (i < 0 || i >= m_ || j < 0 || j >= n_) {
      throw std::out_of_range("HostMatrix::at");
    }
    if (!storage_.is_backed()) {
      throw std::logic_error("HostMatrix: element access on phantom matrix");
    }
  }

  int m_;
  int n_;
  util::Buffer storage_;
};

}  // namespace dacc::la
