#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/deliveries.hpp"
#include "util/units.hpp"

namespace dacc::net {
namespace {

using dacc::testing::deliver_all;
using dacc::testing::deliver_one;

FabricParams test_params() {
  FabricParams p;
  p.link_bandwidth_mib_s = 1000.0;  // 1 MiB takes exactly 1 ms
  p.wire_latency = 1000;            // 1 us
  p.per_message_overhead = 0;       // exact arithmetic in these tests
  return p;
}

TEST(Fabric, PerMessageOverheadAppliesAboveThreshold) {
  sim::Engine engine;
  FabricParams p = test_params();
  p.per_message_overhead = 5000;
  p.per_message_overhead_min_bytes = 4096;
  Fabric fabric(engine, 2, p);
  // Below threshold: no overhead.
  EXPECT_EQ(deliver_one(fabric, {0, 1, 1024}),
            1000u + transfer_time(1024, 1000.0));
  sim::Engine engine2;
  Fabric fabric2(engine2, 2, p);
  // At/above threshold: one fixed overhead per message.
  EXPECT_EQ(deliver_one(fabric2, {0, 1, 1_MiB}),
            1000u + 1'000'000u + 5000u);
}

TEST(Fabric, SoloTransferCostsLatencyPlusSerialization) {
  sim::Engine engine;
  Fabric fabric(engine, 2, test_params());
  // 1 MiB at 1024 MiB/s = exactly 1 ms serialization.
  const SimTime done = deliver_one(fabric, {0, 1, 1_MiB});
  EXPECT_EQ(done, 1000u + 1'000'000u);
}

TEST(Fabric, TransferScalesLinearlyWithSize) {
  sim::Engine engine;
  Fabric fabric(engine, 2, test_params());
  const SimTime t1 = deliver_one(fabric, {0, 1, 4_MiB});
  EXPECT_EQ(t1, 1000u + 4'000'000u);
}

TEST(Fabric, SenderPortSerializesConcurrentTransfers) {
  sim::Engine engine;
  Fabric fabric(engine, 3, test_params());
  const auto at = deliver_all(fabric, {{0, 1, 1_MiB}, {0, 2, 1_MiB}});
  EXPECT_EQ(at[0], 1000u + 1'000'000u);
  // Second transfer must wait for the tx port: starts at 1 ms.
  EXPECT_EQ(at[1], 1'000'000u + 1000u + 1'000'000u);
}

TEST(Fabric, ReceiverPortSerializesConcurrentTransfers) {
  sim::Engine engine;
  Fabric fabric(engine, 3, test_params());
  const auto at = deliver_all(fabric, {{0, 2, 1_MiB}, {1, 2, 1_MiB}});
  EXPECT_EQ(at[0], 1000u + 1'000'000u);
  // Different senders, same receiver: rx port back-to-back.
  EXPECT_EQ(at[1], at[0] + 1'000'000u);
}

TEST(Fabric, DisjointPairsDoNotInterfere) {
  sim::Engine engine;
  Fabric fabric(engine, 4, test_params());
  const auto at = deliver_all(fabric, {{0, 1, 1_MiB}, {2, 3, 1_MiB}});
  EXPECT_EQ(at[0], at[1]);
}

TEST(Fabric, LoopbackBypassesNic) {
  sim::Engine engine;
  FabricParams p = test_params();
  p.loopback_bandwidth_mib_s = 2000.0;
  p.loopback_latency = 100;
  Fabric fabric(engine, 2, p);
  const SimTime done = deliver_one(fabric, {0, 0, 2_MiB});
  EXPECT_EQ(done, 100u + 1'000'000u);
  EXPECT_EQ(fabric.tx_busy(0), 0u);
}

TEST(Fabric, EarliestIsHonored) {
  sim::Engine engine;
  Fabric fabric(engine, 2, test_params());
  const SimTime done = deliver_one(fabric, {0, 1, 1_MiB, 5'000'000});
  EXPECT_EQ(done, 5'000'000u + 1000u + 1'000'000u);
}

TEST(Fabric, DeliverSchedulesCallbackAtCompletion) {
  sim::Engine engine;
  Fabric fabric(engine, 2, test_params());
  SimTime fired_at = 0;
  fabric.deliver(0, 1, 1_MiB, 0, [&] { fired_at = engine.now(); });
  engine.run();
  EXPECT_EQ(fired_at, 1000u + 1'000'000u);
}

TEST(Fabric, TrafficCountersAccumulate) {
  sim::Engine engine;
  Fabric fabric(engine, 2, test_params());
  (void)deliver_all(fabric, {{0, 1, 1_MiB}, {0, 1, 2_MiB}});
  EXPECT_EQ(fabric.bytes_sent(0), 3_MiB);
  EXPECT_EQ(fabric.bytes_received(1), 3_MiB);
  EXPECT_EQ(fabric.bytes_sent(1), 0u);
  EXPECT_EQ(fabric.tx_busy(0), 3'000'000u);
}

TEST(Fabric, ZeroByteTransferCostsOnlyLatency) {
  sim::Engine engine;
  Fabric fabric(engine, 2, test_params());
  EXPECT_EQ(deliver_one(fabric, {0, 1, 0}), 1000u);
}

TEST(Fabric, InvalidNodeThrows) {
  sim::Engine engine;
  Fabric fabric(engine, 2, test_params());
  EXPECT_THROW((void)deliver_one(fabric, {0, 2, 1}), std::out_of_range);
  EXPECT_THROW((void)deliver_one(fabric, {-1, 1, 1}), std::out_of_range);
  EXPECT_THROW(Fabric(engine, 0), std::invalid_argument);
}

// Contention shape check: two flows sharing one tx port each get half the
// effective bandwidth over a long run.
TEST(Fabric, SharedPortHalvesThroughput) {
  sim::Engine engine;
  Fabric fabric(engine, 3, test_params());
  std::vector<dacc::testing::Transfer> transfers;
  for (int i = 0; i < 10; ++i) {
    transfers.push_back({0, 1, 1_MiB});
    transfers.push_back({0, 2, 1_MiB});
  }
  const auto at = deliver_all(fabric, transfers);
  const double total_mib = 20.0;
  const double secs = to_seconds(*std::max_element(at.begin(), at.end()));
  const double agg = total_mib / secs;
  EXPECT_NEAR(agg, 1000.0, 10.0);  // aggregate ~= link rate
}

}  // namespace
}  // namespace dacc::net
