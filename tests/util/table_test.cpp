#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace dacc::util {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table t({"size", "bandwidth"});
  t.row().add(std::uint64_t{1024}).add(123.456, 1);
  t.row().add(std::uint64_t{2048}).add(7.0, 1);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("size"), std::string::npos);
  EXPECT_NE(out.find("123.5"), std::string::npos);
  EXPECT_NE(out.find("7.0"), std::string::npos);
}

TEST(Table, RowCount) {
  Table t({"h"});
  EXPECT_EQ(t.rows(), 0u);
  t.row().add("1");
  t.row().add("2");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, AddWithoutRowStartsFirstRow) {
  Table t({"h"});
  t.add("implicit");
  EXPECT_EQ(t.rows(), 1u);
}

}  // namespace
}  // namespace dacc::util
