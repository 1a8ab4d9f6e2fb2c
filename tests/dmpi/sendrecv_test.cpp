// sendrecv: the halo exchange MP2C runs between neighbouring ranks.
#include <gtest/gtest.h>

#include <array>

#include "common/testbed.hpp"
#include "util/units.hpp"

namespace dacc::dmpi {
namespace {

using testing::TestBed;

util::Buffer one_int(int v) {
  std::array<int, 1> a{v};
  return util::Buffer::of<int>(a);
}

TEST(Sendrecv, OpposingExchangesDoNotDeadlock) {
  TestBed bed(2);
  std::vector<int> got(2, -1);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             auto in = mpi.sendrecv(bed.comm(), 1, 5, one_int(10), 1, 5);
             got[0] = in.as<int>()[0];
           },
           [&](Mpi& mpi, sim::Context&) {
             auto in = mpi.sendrecv(bed.comm(), 0, 5, one_int(20), 0, 5);
             got[1] = in.as<int>()[0];
           }});
  EXPECT_EQ(got[0], 20);
  EXPECT_EQ(got[1], 10);
}

TEST(Sendrecv, LargePayloadsBothWays) {
  // Rendezvous-sized opposing exchanges (the halo-exchange pattern).
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             auto in = mpi.sendrecv(bed.comm(), 1, 1,
                                    util::Buffer::phantom(4_MiB), 1, 1);
             EXPECT_EQ(in.size(), 2_MiB);
           },
           [&](Mpi& mpi, sim::Context&) {
             auto in = mpi.sendrecv(bed.comm(), 0, 1,
                                    util::Buffer::phantom(2_MiB), 0, 1);
             EXPECT_EQ(in.size(), 4_MiB);
           }});
}

TEST(Sendrecv, RingRotation) {
  const int n = 5;
  TestBed bed(n);
  std::vector<int> got(static_cast<std::size_t>(n), -1);
  std::vector<std::function<void(Mpi&, sim::Context&)>> mains;
  for (int r = 0; r < n; ++r) {
    mains.emplace_back([&, r](Mpi& mpi, sim::Context&) {
      const Rank right = (r + 1) % n;
      const Rank left = (r + n - 1) % n;
      Status st;
      auto in = mpi.sendrecv(bed.comm(), right, 9, one_int(r), left, 9, &st);
      got[static_cast<std::size_t>(r)] = in.as<int>()[0];
      EXPECT_EQ(st.source, left);
    });
  }
  bed.run(std::move(mains));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], (r + n - 1) % n);
  }
}

}  // namespace
}  // namespace dacc::dmpi
