// Full-stack data-integrity sweep: every byte written through the public
// ac* API must come back bit-exact through every transfer configuration —
// the end-to-end guarantee all the bandwidth engineering must not break.
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "rt/cluster.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dacc::core {
namespace {

struct Case {
  proto::TransferConfig config;
  std::uint64_t bytes;
  const char* name;
};

// ctest names each case after this printout. gtest's default one is a byte
// dump of the struct, whose pointer value changes from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.name << "_" << c.bytes << "B";
}

class IntegrityP : public ::testing::TestWithParam<Case> {};

TEST_P(IntegrityP, RoundTripsBitExact) {
  const Case& c = GetParam();
  rt::ClusterConfig cc;
  cc.compute_nodes = 1;
  cc.accelerators = 1;
  rt::Cluster cluster(cc);
  rt::JobSpec spec;
  spec.accelerators_per_rank = 1;
  spec.body = [&](rt::JobContext& job) {
    Accelerator& ac = job.session()[0];
    ac.set_transfer_config(c.config);
    util::Rng rng(c.bytes ^ 0xbeef);
    std::vector<std::byte> payload(c.bytes);
    for (auto& b : payload) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    const gpu::DevPtr p = ac.mem_alloc(c.bytes);
    ac.memcpy_h2d(p, util::Buffer::backed(std::vector<std::byte>(payload)));
    util::Buffer out = ac.memcpy_d2h(p, c.bytes);
    ASSERT_EQ(out.size(), c.bytes);
    EXPECT_TRUE(
        std::equal(payload.begin(), payload.end(), out.bytes().begin()));
    // Partial-range readback through pointer arithmetic too.
    if (c.bytes >= 4096) {
      util::Buffer mid = ac.memcpy_d2h(p + 1024, 2048);
      EXPECT_TRUE(std::equal(payload.begin() + 1024,
                             payload.begin() + 1024 + 2048,
                             mid.bytes().begin()));
    }
    ac.mem_free(p);
  };
  cluster.submit(spec);
  cluster.run();
}

std::vector<Case> cases() {
  std::vector<Case> out;
  struct Config {
    proto::TransferConfig config;
    const char* name;
  };
  std::vector<Config> configs = {
      {proto::TransferConfig::naive(), "naive"},
      {proto::TransferConfig::pipeline(64_KiB), "p64K"},
      {proto::TransferConfig::pipeline(128_KiB), "p128K"},
      {proto::TransferConfig::pipeline_adaptive(), "adaptive"},
  };
  auto no_gd = proto::TransferConfig::pipeline(128_KiB);
  no_gd.gpudirect = false;
  configs.push_back({no_gd, "p128K_nogd"});
  for (const Config& c : configs) {
    for (const std::uint64_t bytes :
         {std::uint64_t{1}, std::uint64_t{4095}, 64_KiB + 1, 1_MiB}) {
      out.push_back(Case{c.config, bytes, c.name});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IntegrityP, ::testing::ValuesIn(cases()));

}  // namespace
}  // namespace dacc::core
