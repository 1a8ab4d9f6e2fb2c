#include "util/table.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace dacc::util {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

Table& Table::row() {
  cells_.emplace_back();
  return *this;
}

Table& Table::add(const std::string& cell) {
  if (cells_.empty()) cells_.emplace_back();
  cells_.back().push_back(cell);
  return *this;
}

Table& Table::add(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return add(os.str());
}

Table& Table::add(std::uint64_t value) { return add(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& r : cells_) {
    for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string{};
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(width[c]))
         << cell;
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& r : cells_) emit(r);
}

}  // namespace dacc::util
