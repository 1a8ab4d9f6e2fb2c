// Hardening of the typed-acquire wire format (DESIGN.md §13): the versioned
// request extension must reject truncation at every byte, bound every
// enum-like field, drop malformed frames whole (no partial application to
// the lease machine), and answer absurd-but-well-formed values with one
// clean status.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arm/arm.hpp"
#include "arm/lease_machine.hpp"
#include "common/testbed.hpp"
#include "obs/flight.hpp"
#include "proto/wire.hpp"
#include "rpc/channel.hpp"
#include "util/buffer.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dacc::arm {
namespace {

using proto::WireError;
using proto::WireReader;
using proto::WireWriter;

ResourceRequest sample_request() {
  return ResourceRequest{}
      .with_job(42)
      .with_count(3)
      .with_wait(true)
      .with_kind("gpu")
      .with_memory(2_GiB)
      .with_gang(false)
      .with_priority(kPriorityHigh)
      .with_locality(7);
}

util::Buffer encode(const ResourceRequest& req) {
  WireWriter w;
  req.encode_body(w);
  return w.finish();
}

TEST(SchedWireFuzz, RequestRoundTripsWithExtension) {
  const ResourceRequest req = sample_request();
  const util::Buffer body = encode(req);
  WireReader r(body.view());
  const ResourceRequest back = ResourceRequest::decode_body(r);
  EXPECT_EQ(back.job, req.job);
  EXPECT_EQ(back.count, req.count);
  EXPECT_EQ(back.wait, req.wait);
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.memory_bytes, req.memory_bytes);
  EXPECT_EQ(back.gang, req.gang);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.locality, req.locality);
}

TEST(SchedWireFuzz, TruncationThrowsAtEveryCut) {
  // Including the cut after (job, count, wait, kind): every peer encodes
  // the extension, so a frame without it is malformed.
  const util::Buffer full = encode(sample_request());
  for (std::uint64_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(full.slice(0, cut));
    EXPECT_THROW((void)ResourceRequest::decode_body(r), WireError)
        << "cut at " << cut;
  }
}

TEST(SchedWireFuzz, UnknownExtensionVersionRejected) {
  WireWriter w;
  w.u64(1).u32(1).u32(0).str("gpu");
  w.u32(kAcquireExtVersion + 1).u64(0).u32(0).u32(1).u64(~0ull);
  const util::Buffer body = w.finish();
  WireReader r(body.view());
  EXPECT_THROW((void)ResourceRequest::decode_body(r), WireError);
}

TEST(SchedWireFuzz, PriorityAboveWireBoundRejected) {
  ResourceRequest req = sample_request();
  req.priority = kMaxPriority + 1;
  const util::Buffer body = encode(req);
  WireReader r(body.view());
  EXPECT_THROW((void)ResourceRequest::decode_body(r), WireError);
}

TEST(SchedWireFuzz, TrailingBytesAfterExtensionRejected) {
  WireWriter w;
  sample_request().encode_body(w);
  w.u32(0xDEAD);
  const util::Buffer body = w.finish();
  WireReader r(body.view());
  EXPECT_THROW((void)ResourceRequest::decode_body(r), WireError);
}

TEST(SchedWireFuzz, RandomBodiesNeverCrashTheDecoder) {
  util::Rng rng(0x5C4ED);
  int clean_throws = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
    WireReader r(util::Buffer::backed(std::move(junk)));
    try {
      (void)ResourceRequest::decode_body(r);
    } catch (const WireError&) {
      ++clean_throws;
    }
  }
  EXPECT_GT(clean_throws, 0);
}

// ---------------------------------------------------------------------------
// No partial application: malformed or absurd acquires against a live
// machine leave its state bit-identical.
// ---------------------------------------------------------------------------

LeaseMachine test_machine() {
  return LeaseMachine({{1, "c1060", "gpu", 4_GiB}, {2, "c1060", "gpu", 4_GiB}},
                      QueuePolicy::kFcfs);
}

Command acquire_command(util::Buffer body, int reply_tag = 2'000'001) {
  Command cmd;
  cmd.client = 9;
  cmd.reply_tag = reply_tag;
  cmd.op = static_cast<std::uint32_t>(ArmOp::kAcquire);
  cmd.body = std::move(body);
  return cmd;
}

TEST(SchedWireFuzz, MalformedAcquireLeavesTheMachineUntouched) {
  LeaseMachine machine = test_machine();
  const std::uint64_t before = machine.fingerprint();
  const util::Buffer full = encode(sample_request());
  for (std::uint64_t cut = 0; cut < full.size(); ++cut) {
    const Command cmd = acquire_command(full.slice(0, cut));
    EXPECT_THROW((void)LeaseMachine::validate(cmd), WireError);
    EXPECT_THROW((void)machine.apply(cmd, /*now=*/1000), WireError);
  }
  EXPECT_EQ(machine.fingerprint(), before);
  // The machine still serves a well-formed request afterwards.
  const ApplyResult ok = machine.apply(
      acquire_command(encode(ResourceRequest{}.with_job(1)), 2'000'555),
      2000);
  ASSERT_EQ(ok.effects.size(), 1u);
  EXPECT_EQ(machine.stats().assigned, 1u);
}

TEST(SchedWireFuzz, CountOverflowAnswersOneBareStatus) {
  // An absurd count is a value, not a format error: the machine must answer
  // exactly one kInsufficient reply (even in waiting mode — it could never
  // be satisfied) and assign nothing.
  LeaseMachine machine = test_machine();
  const ApplyResult res = machine.apply(
      acquire_command(encode(ResourceRequest{}
                                 .with_job(1)
                                 .with_count(0xFFFFFFFFu)
                                 .with_wait(true))),
      1000);
  ASSERT_EQ(res.effects.size(), 1u);
  EXPECT_EQ(res.effects[0].kind, Effect::Kind::kReply);
  WireReader r(res.effects[0].frame.view());
  EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(ArmResult::kInsufficient));
  EXPECT_EQ(r.u32(), 0u);  // zero leases: nothing partially granted
  const PoolStats s = machine.stats();
  EXPECT_EQ(s.assigned, 0u);
  EXPECT_EQ(s.queued_requests, 0u);
  // Only the reply cache changed; the pool itself is untouched.
  EXPECT_EQ(machine.stats().free, 2u);
}

TEST(SchedWireFuzz, GarbageBodiesNeverPerturbTheMachine) {
  LeaseMachine machine = test_machine();
  util::Rng rng(0xFEED5);
  int survived = 0;
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> junk(rng.next_below(48));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
    Command cmd = acquire_command(util::Buffer::backed(std::move(junk)),
                                  2'000'100 + round);
    const std::uint64_t before = machine.fingerprint();
    try {
      (void)machine.apply(cmd, 1000 + round);
    } catch (const WireError&) {
      ++survived;
      // Dropped whole: not even the reply cache moved.
      EXPECT_EQ(machine.fingerprint(), before) << "round " << round;
    }
  }
  EXPECT_GT(survived, 0);
  // Every frame either applied cleanly or was dropped whole; the pool's
  // authoritative counters never tore.
  const PoolStats s = machine.stats();
  EXPECT_EQ(s.total, s.free + s.assigned + s.broken);
}

// ---------------------------------------------------------------------------
// The single-ARM server loop: malformed frames on the wire are dropped whole
// and noted, and the ARM keeps serving. (RaftWireFuzz covers the replicas.)
// ---------------------------------------------------------------------------

/// A whole kAcquire or kRelease request frame: rpc header, then the body.
util::Buffer request_frame(ArmOp op, int reply_tag,
                           const util::Buffer& body) {
  return rpc::request_header(static_cast<std::uint32_t>(op), reply_tag)
      .bytes(body.bytes())
      .finish();
}

TEST(ArmWireFuzz, LiveArmDropsMalformedFramesWhole) {
  // Rank 0 runs a raw single ARM; rank 1 sends every truncation of a valid
  // kAcquire and kRelease frame (the cut after the (job, count, wait, kind)
  // prefix included), a frame with an out-of-range reply tag and an
  // unknown op, then a valid acquire, stats and shutdown.
  obs::FlightRecorder flight;  // outlives the engine that notes into it
  dacc::testing::MpiBed bed(2);
  bed.engine().set_flight_recorder(&flight);
  Arm arm(bed.world(), /*self=*/0,
          {{10, "c1060", "gpu", 4_GiB}, {11, "c1060", "gpu", 4_GiB}});

  // Grantable if it ever applied: one GPU, waiting.
  const ResourceRequest grantable =
      ResourceRequest{}.with_job(7).with_count(1).with_wait(true).with_kind(
          "gpu");
  // Reply tags far above the client's own, so a frame the ARM wrongly
  // applied could never answer one of the client's requests.
  const util::Buffer acquire =
      request_frame(ArmOp::kAcquire, 2'900'001, encode(grantable));
  const util::Buffer release = request_frame(
      ArmOp::kRelease, 2'900'002,
      WireWriter{}.u64(7).u64(10).u64(1).finish());
  int malformed = 0;
  PoolStats stats;
  std::vector<Lease> leases;
  bed.run({
      [&arm](dmpi::Mpi&, sim::Context& ctx) { arm.run(ctx); },
      [&](dmpi::Mpi& mpi, sim::Context&) {
        const dmpi::Comm& comm = bed.comm();
        for (const util::Buffer* full : {&acquire, &release}) {
          for (std::uint64_t cut = 0; cut < full->size(); ++cut) {
            mpi.send(comm, 0, kArmRequestTag, full->slice(0, cut));
            ++malformed;
          }
        }
        mpi.send(comm, 0, kArmRequestTag,
                 request_frame(ArmOp::kAcquire, 2 * dmpi::kMaxUserTag,
                               encode(grantable)));
        ++malformed;
        mpi.send(comm, 0, kArmRequestTag,
                 rpc::request_header(99, 2'900'003).finish());
        ++malformed;

        ArmClient client(mpi, comm, {0});
        leases = client.acquire(grantable);
        stats = client.stats();
        client.shutdown();
      },
  });

  // Nothing from the malformed phase applied: the one acquisition is the
  // valid one, nothing queued, nothing broken.
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(stats.acquisitions, 1u);
  EXPECT_EQ(stats.assigned, 1u);
  EXPECT_EQ(stats.queued_requests, 0u);
  EXPECT_EQ(stats.broken, 0u);
  int wire_errors = 0;
  for (const obs::FlightRecorder::Event& e : flight.events()) {
    if (e.category == "arm" && e.what.rfind("wire-error", 0) == 0) {
      ++wire_errors;
    }
  }
  EXPECT_EQ(wire_errors, malformed);
}

}  // namespace
}  // namespace dacc::arm
