// Plain-text table printer used by the benchmark harness to emit
// paper-figure-style series (one row per x value, one column per curve).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace dacc::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add() calls fill it left to right.
  Table& row();
  Table& add(const std::string& cell);
  Table& add(double value, int precision = 1);
  Table& add(std::uint64_t value);

  /// Renders the table with aligned columns to `os`.
  void print(std::ostream& os) const;

  std::size_t rows() const { return cells_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

}  // namespace dacc::util
