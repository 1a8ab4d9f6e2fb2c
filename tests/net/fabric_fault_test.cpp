// Deterministic link-fault injection: a NIC that goes dark (or degrades)
// at a chosen simulated time drops exactly the transfers that would still
// be on the wire, leaves every other node's calibrated bandwidth intact,
// and surfaces as clean timeouts — not hangs — at the dmpi and bulk
// transfer layers above.
#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include "common/testbed.hpp"
#include "proto/transfer.hpp"
#include "util/units.hpp"

namespace dacc::net {
namespace {

/// Tag the pipelined blocks travel on.
constexpr int kDataTag = 102;

FabricParams exact_params() {
  FabricParams p;
  p.link_bandwidth_mib_s = 1000.0;  // 1 MiB serializes in exactly 1 ms
  p.wire_latency = 1000;            // 1 us
  p.per_message_overhead = 0;
  return p;
}

TEST(FabricFault, SourceDownBeforeStartDropsWithoutOccupancy) {
  sim::Engine engine;
  Fabric fabric(engine, 2, exact_params());
  fabric.fail_link(0, 0);
  const Fabric::Outcome out = fabric.transfer_outcome(0, 1, 1_MiB, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(fabric.drops(0), 1u);
  EXPECT_EQ(fabric.total_drops(), 1u);
  // A dead NIC reserves nothing: no phantom contention for later traffic.
  EXPECT_EQ(fabric.tx_busy(0), 0u);
  EXPECT_EQ(fabric.rx_busy(1), 0u);
}

TEST(FabricFault, SourceFailsMidDrainDropsInFlight) {
  sim::Engine engine;
  Fabric fabric(engine, 2, exact_params());
  // 4 MiB drains until 1 us + 4 ms; the NIC dies at 2 ms, mid-stream.
  fabric.fail_link(0, 2'000'000);
  const Fabric::Outcome out = fabric.transfer_outcome(0, 1, 4_MiB, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(fabric.drops(0), 1u);
}

TEST(FabricFault, TransferCompletingBeforeFailureIsDelivered) {
  sim::Engine engine;
  Fabric fabric(engine, 2, exact_params());
  fabric.fail_link(0, 2'000'000);
  // 1 MiB is fully drained at ~1 ms, before the 2 ms failure.
  const Fabric::Outcome out = fabric.transfer_outcome(0, 1, 1_MiB, 0);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.at, 1000u + 1'000'000u);
  EXPECT_EQ(fabric.drops(0), 0u);
}

TEST(FabricFault, DestinationDownChargesSenderAndCountsDstDrop) {
  sim::Engine engine;
  Fabric fabric(engine, 2, exact_params());
  fabric.fail_link(1, 0);
  const Fabric::Outcome out = fabric.transfer_outcome(0, 1, 1_MiB, 0);
  EXPECT_FALSE(out.delivered);
  // The sender serialized the payload onto the wire before anyone could
  // know the receiver was gone; only the rx side skips occupancy.
  EXPECT_EQ(fabric.tx_busy(0), 1'000'000u);
  EXPECT_EQ(fabric.rx_busy(1), 0u);
  EXPECT_EQ(fabric.drops(1), 1u);
  EXPECT_EQ(fabric.drops(0), 0u);
}

TEST(FabricFault, LoopbackIgnoresNicFailure) {
  sim::Engine engine;
  Fabric fabric(engine, 2, exact_params());
  fabric.fail_link(0, 0);
  const Fabric::Outcome out = fabric.transfer_outcome(0, 0, 1_MiB, 0);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(fabric.total_drops(), 0u);
}

TEST(FabricFault, UnaffectedPairsKeepCalibratedBandwidth) {
  sim::Engine engine;
  Fabric fabric(engine, 4, exact_params());
  fabric.fail_link(0, 0);
  (void)fabric.transfer_outcome(0, 1, 8_MiB, 0);  // dropped
  // The 2 -> 3 pair still gets the exact calibrated cost.
  const Fabric::Outcome out = fabric.transfer_outcome(2, 3, 1_MiB, 0);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.at, 1000u + 1'000'000u);
  // And traffic *into* the dead node from a healthy sender is a dst drop,
  // not interference for anyone else.
  (void)fabric.transfer_outcome(2, 0, 1_MiB, 0);
  const Fabric::Outcome again = fabric.transfer_outcome(3, 2, 1_MiB, 0);
  EXPECT_TRUE(again.delivered);
}

TEST(FabricFault, DegradedLinkStretchesSerialization) {
  sim::Engine engine;
  Fabric fabric(engine, 2, exact_params());
  fabric.degrade_link(0, 0, 0.5);
  const Fabric::Outcome out = fabric.transfer_outcome(0, 1, 1_MiB, 0);
  EXPECT_TRUE(out.delivered);  // degraded, not dead
  EXPECT_EQ(out.at, 1000u + 2'000'000u);
}

TEST(FabricFault, RepeatedFailuresKeepEarliest) {
  sim::Engine engine;
  Fabric fabric(engine, 2, exact_params());
  fabric.fail_link(0, 5'000'000);
  fabric.fail_link(0, 1'000'000);  // earlier wins
  fabric.fail_link(0, 9'000'000);  // later is ignored
  EXPECT_FALSE(fabric.link_failed(0, 999'999));
  EXPECT_TRUE(fabric.link_failed(0, 1'000'000));
  EXPECT_TRUE(fabric.link_failed(0, 2'000'000));
}

TEST(FabricFault, DeliverDiscardsCallbackOnDrop) {
  sim::Engine engine;
  Fabric fabric(engine, 2, exact_params());
  fabric.fail_link(1, 0);
  bool fired = false;
  fabric.deliver(0, 1, 1_MiB, 0, [&] { fired = true; });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(fabric.drops(1), 1u);
}

// --- dmpi / bulk-transfer layers on a failed link ---------------------------

TEST(FabricFault, EagerMessageIsLostSilently) {
  dacc::testing::MpiBed bed(2);
  bed.fabric().fail_link(1, 0);
  bed.run({
      [&](dmpi::Mpi& mpi, sim::Context&) {
        // Eager sends are fire-and-forget: the sender never blocks on a
        // dead receiver.
        mpi.send(bed.comm(), 1, 5, util::Buffer::backed_zero(1_KiB));
      },
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {
        ctx.wait_for(5_ms);
        EXPECT_FALSE(mpi.iprobe(bed.comm(), 0, 5));
      },
  });
  EXPECT_GE(bed.fabric().drops(1), 1u);
}

TEST(FabricFault, RendezvousRecvTimesOutCleanlyAndLinkStaysUsable) {
  // Rank 0's NIC dies right after its rendezvous handshake would begin.
  // The receiver's wait hits its deadline (no hang), cancels, and can keep
  // talking to healthy ranks at full speed.
  dacc::testing::MpiBed bed(3);
  bed.fabric().fail_link(0, 10'000);  // 10 us: RTS or payload in flight
  bed.run({
      [&](dmpi::Mpi& mpi, sim::Context&) {
        dmpi::Request send =
            mpi.isend(bed.comm(), 1, 7, util::Buffer::backed_zero(1_MiB));
        EXPECT_FALSE(mpi.wait_for(send, 5_ms));
        mpi.cancel(send);
      },
      [&](dmpi::Mpi& mpi, sim::Context&) {
        dmpi::Request recv = mpi.irecv(bed.comm(), 0, 7);
        EXPECT_FALSE(mpi.wait_for(recv, 5_ms));
        mpi.cancel(recv);
        // The receiver's own NIC is fine: exchange with rank 2 proceeds.
        mpi.send(bed.comm(), 2, 8, util::Buffer::backed_zero(64_KiB));
      },
      [&](dmpi::Mpi& mpi, sim::Context&) {
        const util::Buffer m = mpi.recv(bed.comm(), 1, 8);
        EXPECT_EQ(m.size(), 64_KiB);
      },
  });
}

TEST(FabricFault, PipelinedTransferTimesOutMidStream) {
  // A 64 MiB pipelined payload takes ~25 ms on the default fabric; the
  // receiver's NIC dies 5 ms in. Early blocks land, the rest are dropped,
  // and both endpoints get TransferTimeout instead of wedging.
  dacc::testing::MpiBed bed(2);
  bed.fabric().fail_link(1, 5_ms);
  const proto::TransferConfig config = proto::TransferConfig::pipeline_adaptive();
  std::uint64_t received = 0;
  bed.run({
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {
        EXPECT_THROW(
            proto::send_blocks(mpi, bed.comm(), 1,
                               util::Buffer::backed_zero(64_MiB), config,
                               kDataTag, ctx.now() + 40_ms),
            proto::TransferTimeout);
      },
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {
        EXPECT_THROW(
            proto::recv_blocks(
                mpi, bed.comm(), 0, 64_MiB, config,
                [&](std::uint64_t, util::Buffer b) { received += b.size(); },
                kDataTag, ctx.now() + 40_ms),
            proto::TransferTimeout);
      },
  });
  EXPECT_GT(received, 0u);       // the stream was cut mid-flight...
  EXPECT_LT(received, 64_MiB);   // ...not before it started or after it ended
  EXPECT_GE(bed.fabric().drops(1), 1u);
}

TEST(FabricFault, HealthyPairUnchangedByConcurrentFailure) {
  // The same rank 2 -> 3 exchange costs bit-identical simulated time with
  // and without another node's NIC dying mid-run.
  auto timed_exchange = [](bool inject) {
    dacc::testing::MpiBed bed(4);
    if (inject) bed.fabric().fail_link(0, 1'000);
    SimTime elapsed = 0;
    bed.run({
        [&](dmpi::Mpi& mpi, sim::Context&) {
          dmpi::Request r =
              mpi.isend(bed.comm(), 1, 3, util::Buffer::backed_zero(8_MiB));
          mpi.wait_for(r, 2_ms);
          mpi.cancel(r);
        },
        [&](dmpi::Mpi& mpi, sim::Context&) {
          dmpi::Request r = mpi.irecv(bed.comm(), 0, 3);
          mpi.wait_for(r, 2_ms);
          mpi.cancel(r);
        },
        [&](dmpi::Mpi& mpi, sim::Context& ctx) {
          const SimTime start = ctx.now();
          mpi.send(bed.comm(), 3, 4, util::Buffer::backed_zero(16_MiB));
          // Rendezvous: completion implies the receiver matched.
          elapsed = ctx.now() - start;
        },
        [&](dmpi::Mpi& mpi, sim::Context&) {
          (void)mpi.recv(bed.comm(), 2, 4);
        },
    });
    return elapsed;
  };
  const SimTime with_fault = timed_exchange(true);
  const SimTime without_fault = timed_exchange(false);
  EXPECT_GT(without_fault, 0u);
  EXPECT_EQ(with_fault, without_fault);
}

}  // namespace
}  // namespace dacc::net
