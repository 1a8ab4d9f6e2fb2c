#include "proto/transfer.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "common/testbed.hpp"
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

// --- one wake per stream ---------------------------------------------------

/// A receiver's assembled copy and the simulated time it returned.
struct Assembled {
  util::Buffer data;
  SimTime at = 0;
};

/// Streams `payload` from rank 0 to rank 1, which assembles it with
/// recv_assemble or, as the reference, block by block over recv_blocks.
Assembled stream_to_rank1(const util::Buffer& payload,
                          const TransferConfig& config, bool reference) {
  dacc::testing::MpiBed bed(2);
  const std::uint64_t total = payload.size();
  Assembled out;
  bed.run({
      [&](dmpi::Mpi& mpi, sim::Context&) {
        send_blocks(mpi, bed.comm(), 1, payload.view(), config, kDataTag);
      },
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {
        if (!reference) {
          out.data =
              recv_assemble(mpi, bed.comm(), 0, total, config, kDataTag);
        } else {
          bool first = true;
          recv_blocks(
              mpi, bed.comm(), 0, total, config,
              [&](std::uint64_t offset, util::Buffer block) {
                if (first) {
                  out.data = block.is_backed()
                                 ? util::Buffer::backed_zero(total)
                                 : util::Buffer::phantom(total);
                  first = false;
                }
                out.data.write_at(offset, block);
              },
              kDataTag);
        }
        out.at = ctx.now();
      },
  });
  return out;
}

TEST(BlockStream, AssembleMatchesThePerBlockReference) {
  const auto config = TransferConfig::pipeline(256_KiB);
  for (const std::uint64_t total : {std::uint64_t{1000}, 1_MiB, 1_MiB + 100}) {
    for (const bool functional : {true, false}) {
      SCOPED_TRACE(std::to_string(total) + (functional ? " B functional"
                                                       : " B phantom"));
      std::vector<std::byte> bytes(total);
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<std::byte>((i * 31 + 7) & 0xff);
      }
      const util::Buffer payload = functional
                                       ? util::Buffer::backed(bytes)
                                       : util::Buffer::phantom(total);
      const Assembled got = stream_to_rank1(payload, config, false);
      const Assembled want = stream_to_rank1(payload, config, true);
      EXPECT_EQ(got.at, want.at);
      EXPECT_GT(got.at, SimTime{0});
      ASSERT_EQ(got.data.size(), total);
      ASSERT_EQ(got.data.is_backed(), functional);
      ASSERT_EQ(want.data.is_backed(), functional);
      if (functional) {
        EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                               got.data.bytes().begin(),
                               got.data.bytes().end()));
        EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                               want.data.bytes().begin(),
                               want.data.bytes().end()));
      }
    }
  }
}

TEST(BlockStream, LinkCutTimesOutAtTheDeadlineThenAFreshTagRetryCompletes) {
  // A 64 MiB stream from rank 0 to rank 1 takes ~25 ms; one side's NIC
  // dies 5 ms in. Both sides throw TransferTimeout at the deadline, having
  // cancelled their requests, and the live side then streams the same
  // bytes with rank 2 on fresh tags. Every process finishes: no request
  // left a waiter behind.
  const auto config = TransferConfig::pipeline_adaptive();
  constexpr int kRetryTag = kDataTag + 2;
  std::vector<std::byte> bytes(1_MiB + 100);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>((i * 13 + 5) & 0xff);
  }
  for (const net::NodeId cut : {0, 1}) {
    SCOPED_TRACE(cut == 0 ? "sender's NIC dies" : "receiver's NIC dies");
    dacc::testing::MpiBed bed(3);
    bed.fabric().fail_link(cut, 5_ms);
    const SimTime deadline = 40_ms;
    SimTime send_gave_up = 0;
    SimTime recv_gave_up = 0;
    util::Buffer retried;
    bed.run({
        [&](dmpi::Mpi& mpi, sim::Context& ctx) {
          EXPECT_THROW(send_blocks(mpi, bed.comm(), 1,
                                   util::Buffer::phantom(64_MiB), config,
                                   kDataTag, deadline),
                       TransferTimeout);
          send_gave_up = ctx.now();
          if (cut == 1) {
            send_blocks(mpi, bed.comm(), 2, util::Buffer::backed(bytes),
                        config, kRetryTag);
          }
        },
        [&](dmpi::Mpi& mpi, sim::Context& ctx) {
          EXPECT_THROW(recv_assemble(mpi, bed.comm(), 0, 64_MiB, config,
                                     kDataTag, deadline),
                       TransferTimeout);
          recv_gave_up = ctx.now();
          if (cut == 0) {
            retried = recv_assemble(mpi, bed.comm(), 2, bytes.size(), config,
                                    kRetryTag);
          }
        },
        [&](dmpi::Mpi& mpi, sim::Context&) {
          if (cut == 1) {
            retried = recv_assemble(mpi, bed.comm(), 0, bytes.size(), config,
                                    kRetryTag);
          } else {
            send_blocks(mpi, bed.comm(), 1, util::Buffer::backed(bytes),
                        config, kRetryTag);
          }
        },
    });
    EXPECT_EQ(send_gave_up, deadline);
    EXPECT_EQ(recv_gave_up, deadline);
    ASSERT_EQ(retried.size(), bytes.size());
    ASSERT_TRUE(retried.is_backed());
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                           retried.bytes().begin(), retried.bytes().end()));
  }
}

// A receive left posted would match the next message on its tag for
// good, and every later arrival at the rank would scan past it. So a
// stream that ends early cancels the receives it still has posted before
// it throws.
TEST(BlockStream, ShortBlockCancelsTheReceivesStillPosted) {
  dacc::testing::MpiBed bed(2);
  std::uint64_t later = 0;
  bed.run({
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {
        mpi.send(bed.comm(), 1, kDataTag, util::Buffer::phantom(100));
        ctx.wait_for(1_ms);
        mpi.send(bed.comm(), 1, kDataTag, util::Buffer::phantom(64));
      },
      [&](dmpi::Mpi& mpi, sim::Context&) {
        // Four 256 KiB blocks expected; the first is 100 bytes.
        EXPECT_THROW(recv_blocks(mpi, bed.comm(), 0, 1_MiB,
                                 TransferConfig::pipeline(256_KiB),
                                 [](std::uint64_t, util::Buffer) {},
                                 kDataTag),
                     std::runtime_error);
        later = mpi.recv(bed.comm(), 0, kDataTag).size();
      },
  });
  EXPECT_EQ(later, 64u);
}

TEST(BlockStream, TimeoutCancelsTheReceivesStillPosted) {
  dacc::testing::MpiBed bed(2);
  std::uint64_t later = 0;
  bed.run({
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {
        // One block of four, then nothing until the receiver gave up.
        mpi.send(bed.comm(), 1, kDataTag, util::Buffer::phantom(256_KiB));
        ctx.wait_until(2_ms);
        mpi.send(bed.comm(), 1, kDataTag, util::Buffer::phantom(64));
      },
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {
        EXPECT_THROW(recv_assemble(mpi, bed.comm(), 0, 1_MiB,
                                   TransferConfig::pipeline(256_KiB),
                                   kDataTag, 1_ms),
                     TransferTimeout);
        EXPECT_EQ(ctx.now(), 1_ms);
        later = mpi.recv(bed.comm(), 0, kDataTag).size();
      },
  });
  EXPECT_EQ(later, 64u);
}

}  // namespace
}  // namespace dacc::proto
