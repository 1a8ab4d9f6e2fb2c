#include "proto/transfer.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "util/units.hpp"

namespace dacc::proto {

// Found by gtest through ADL. Without it gtest prints the raw bytes of the
// struct, padding included, and ctest names each parameterized case after
// that value, so the names would change from build to build.
void PrintTo(const TransferConfig& c, std::ostream* os) {
  if (c.mode == TransferConfig::Mode::kNaive) {
    *os << "naive";
  } else if (c.adaptive) {
    *os << "pipeline_adaptive";
  } else {
    *os << "pipeline_" << c.block_bytes / 1_KiB << "KiB";
  }
}

namespace {

/// Tag the blocks travel on between the two test ranks.
constexpr int kDataTag = 102;

TEST(BlockPlan, ExactMultiple) {
  const BlockPlan plan(1_MiB, TransferConfig::pipeline(256_KiB));
  EXPECT_EQ(plan.count(), 4u);
  EXPECT_EQ(plan.offset(3), 768_KiB);
  EXPECT_EQ(plan.size(3), 256_KiB);
}

TEST(BlockPlan, RemainderBlockIsShort) {
  const BlockPlan plan(1_MiB + 100, TransferConfig::pipeline(256_KiB));
  EXPECT_EQ(plan.count(), 5u);
  EXPECT_EQ(plan.size(4), 100u);
}

TEST(BlockPlan, PayloadSmallerThanBlock) {
  const BlockPlan plan(1000, TransferConfig::pipeline(256_KiB));
  EXPECT_EQ(plan.count(), 1u);
  EXPECT_EQ(plan.size(0), 1000u);
}

TEST(BlockPlan, NaiveIsSingleBlock) {
  const BlockPlan plan(64_MiB, TransferConfig::naive());
  EXPECT_EQ(plan.count(), 1u);
  EXPECT_EQ(plan.size(0), 64_MiB);
}

TEST(BlockPlan, ZeroBytes) {
  const BlockPlan plan(0, TransferConfig::pipeline(128_KiB));
  EXPECT_EQ(plan.count(), 0u);
}

TEST(BlockPlan, OutOfRangeThrows) {
  const BlockPlan plan(100, TransferConfig::naive());
  EXPECT_THROW((void)plan.offset(1), std::out_of_range);
  EXPECT_THROW((void)plan.size(1), std::out_of_range);
}

// --- end-to-end block streaming over dmpi ---------------------------------

class TransferTest : public ::testing::TestWithParam<TransferConfig> {
 protected:
  void stream_and_check(std::uint64_t bytes) {
    sim::Engine engine;
    net::Fabric fabric(engine, 2);
    dmpi::World world(engine, fabric, {0, 1});
    const TransferConfig config = GetParam();

    std::vector<std::byte> payload(bytes);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::byte>(i * 7 & 0xff);
    }

    engine.spawn("tx", [&](sim::Context& ctx) {
      dmpi::Mpi mpi(world, ctx, 0);
      send_blocks(mpi, world.world_comm(), 1,
                  util::Buffer::backed(std::vector<std::byte>(payload)),
                  config, kDataTag);
    });
    util::Buffer got;
    engine.spawn("rx", [&](sim::Context& ctx) {
      dmpi::Mpi mpi(world, ctx, 1);
      got = recv_assemble(mpi, world.world_comm(), 0, bytes, config,
                          kDataTag);
    });
    engine.run();

    ASSERT_EQ(got.size(), bytes);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           got.bytes().begin()));
  }
};

TEST_P(TransferTest, SmallPayloadRoundTrips) { stream_and_check(1000); }
TEST_P(TransferTest, MediumPayloadRoundTrips) { stream_and_check(1_MiB + 3); }
TEST_P(TransferTest, LargePayloadRoundTrips) { stream_and_check(4_MiB); }

INSTANTIATE_TEST_SUITE_P(
    Configs, TransferTest,
    ::testing::Values(TransferConfig::naive(),
                      TransferConfig::pipeline(64_KiB),
                      TransferConfig::pipeline(128_KiB),
                      TransferConfig::pipeline(512_KiB),
                      TransferConfig::pipeline_adaptive()));

TEST(Transfer, OnBlockSeesOrderedOffsets) {
  sim::Engine engine;
  net::Fabric fabric(engine, 2);
  dmpi::World world(engine, fabric, {0, 1});
  const auto config = TransferConfig::pipeline(128_KiB);
  const std::uint64_t total = 1_MiB;

  engine.spawn("tx", [&](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 0);
    send_blocks(mpi, world.world_comm(), 1, util::Buffer::phantom(total),
                config, kDataTag);
  });
  std::vector<std::uint64_t> offsets;
  engine.spawn("rx", [&](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 1);
    recv_blocks(mpi, world.world_comm(), 0, total, config,
                [&](std::uint64_t off, util::Buffer block) {
                  offsets.push_back(off);
                  EXPECT_EQ(block.size(), 128_KiB);
                },
                kDataTag);
  });
  engine.run();
  ASSERT_EQ(offsets.size(), 8u);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i], i * 128_KiB);
  }
}

TEST(Transfer, BlocksArriveProgressivelyNotAllAtEnd) {
  // The pipeline property: first block arrives long before the last.
  sim::Engine engine;
  net::Fabric fabric(engine, 2);
  dmpi::World world(engine, fabric, {0, 1});
  const auto config = TransferConfig::pipeline(512_KiB);
  const std::uint64_t total = 16_MiB;

  engine.spawn("tx", [&](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 0);
    send_blocks(mpi, world.world_comm(), 1, util::Buffer::phantom(total),
                config, kDataTag);
  });
  SimTime first_block = 0;
  SimTime last_block = 0;
  engine.spawn("rx", [&](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 1);
    recv_blocks(mpi, world.world_comm(), 0, total, config,
                [&](std::uint64_t off, util::Buffer) {
                  if (off == 0) first_block = ctx.now();
                  last_block = ctx.now();
                },
                kDataTag);
  });
  engine.run();
  // First block lands in roughly a block's worth of time; the rest stream
  // in over the full serialization time.
  EXPECT_LT(first_block, last_block / 8);
}

TEST(Transfer, ZeroByteTransferIsNoop) {
  sim::Engine engine;
  net::Fabric fabric(engine, 2);
  dmpi::World world(engine, fabric, {0, 1});
  int calls = 0;
  engine.spawn("tx", [&](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 0);
    send_blocks(mpi, world.world_comm(), 1, util::Buffer{},
                TransferConfig::pipeline(128_KiB), kDataTag);
  });
  engine.spawn("rx", [&](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 1);
    recv_blocks(mpi, world.world_comm(), 0, 0,
                TransferConfig::pipeline(128_KiB),
                [&](std::uint64_t, util::Buffer) { ++calls; }, kDataTag);
  });
  engine.run();
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace dacc::proto
