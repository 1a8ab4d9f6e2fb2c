#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/testbed.hpp"
#include "util/units.hpp"

namespace dacc::dmpi {
namespace {

using testing::TestBed;

std::vector<std::function<void(Mpi&, sim::Context&)>> replicate(
    int n, std::function<void(Mpi&, sim::Context&, int)> fn) {
  std::vector<std::function<void(Mpi&, sim::Context&)>> mains;
  for (int r = 0; r < n; ++r) {
    mains.emplace_back(
        [fn, r](Mpi& mpi, sim::Context& ctx) { fn(mpi, ctx, r); });
  }
  return mains;
}

class CollectivesP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesP, BcastDeliversRootData) {
  const int n = GetParam();
  TestBed bed(n);
  const int root = n / 2;
  std::vector<double> results(static_cast<std::size_t>(n), 0.0);
  bed.run(replicate(n, [&](Mpi& mpi, sim::Context&, int r) {
    util::Buffer data;
    if (r == root) {
      std::array<double, 2> v{3.25, -1.5};
      data = util::Buffer::of<double>(v);
    }
    auto out = mpi.bcast(bed.comm(), root, std::move(data));
    ASSERT_EQ(out.size(), 16u);
    results[static_cast<std::size_t>(r)] = out.as<double>()[0] +
                                           out.as<double>()[1];
  }));
  for (double v : results) EXPECT_DOUBLE_EQ(v, 1.75);
}

TEST_P(CollectivesP, AllreduceSumMatchesSerialSum) {
  const int n = GetParam();
  TestBed bed(n);
  std::vector<double> results(static_cast<std::size_t>(n), 0.0);
  bed.run(replicate(n, [&](Mpi& mpi, sim::Context&, int r) {
    results[static_cast<std::size_t>(r)] =
        mpi.allreduce_sum(bed.comm(), static_cast<double>(r + 1));
  }));
  const double expected = n * (n + 1) / 2.0;
  for (double v : results) EXPECT_DOUBLE_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13));

TEST(Collectives, BcastOnSubCommunicator) {
  TestBed bed(4);
  const Comm& sub = bed.world().create_comm({3, 1});
  std::vector<double> results(4, 0.0);
  bed.run({[&](Mpi&, sim::Context&) {},
           [&](Mpi& mpi, sim::Context&) {
             auto out = mpi.bcast(sub, 0, util::Buffer{});
             results[1] = out.as<double>()[0];
           },
           [&](Mpi&, sim::Context&) {},
           [&](Mpi& mpi, sim::Context&) {
             std::array<double, 1> v{9.0};
             (void)mpi.bcast(sub, 0, util::Buffer::of<double>(v));
             results[3] = 9.0;
           }});
  EXPECT_DOUBLE_EQ(results[1], 9.0);
  EXPECT_DOUBLE_EQ(results[3], 9.0);
}

}  // namespace
}  // namespace dacc::dmpi
