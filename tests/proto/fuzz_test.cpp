// Robustness: the wire decoder must reject arbitrary garbage with clean
// exceptions (never crash, never read out of bounds), and random
// payload/config combinations must round-trip through the block engine.
#include <gtest/gtest.h>

#include "arm/arm.hpp"
#include "daemon/daemon.hpp"
#include "proto/transfer.hpp"
#include "proto/wire.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dacc::proto {
namespace {

/// The hand-rolled clients' one reply tag; bulk data travels on reply tag
/// + 1.
constexpr int kResponseTag = 101;
constexpr int kDataTag = kResponseTag + 1;

TEST(WireFuzz, RandomBytesNeverCrashTheDecoder) {
  util::Rng rng(0xf022);
  int clean_throws = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = rng.next_below(64);
    std::vector<std::byte> junk(len);
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    WireReader r(util::Buffer::backed(std::move(junk)));
    try {
      // Interpret as a middleware request, which is how the daemon reads.
      const Op op = r.op();
      (void)op;
      (void)r.u64();
      (void)r.u64();
      (void)r.transfer_config();
      (void)r.str();
      (void)r.kernel_args();
    } catch (const std::runtime_error&) {
      ++clean_throws;  // truncation / bad tags are reported, not UB
    }
  }
  EXPECT_GT(clean_throws, 0);
}

TEST(WireFuzz, EveryTruncationPointThrows) {
  // A valid message truncated at every byte boundary must throw cleanly.
  const util::Buffer full = WireWriter{}
                                .op(Op::kKernelRun)
                                .str("la_dgemm")
                                .launch_config({})
                                .kernel_args({gpu::DevPtr{1}, 2.0,
                                              std::int64_t{3}})
                                .finish();
  for (std::uint64_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(full.slice(0, cut));
    EXPECT_THROW(
        {
          (void)r.op();
          (void)r.str();
          (void)r.launch_config();
          (void)r.kernel_args();
        },
        std::runtime_error)
        << "cut at " << cut;
  }
}

// Consume the liveness frame header (op + reply tag) the way the ARM's
// dispatch loop does before handing the reader to the payload decoder.
WireReader payload_reader(const util::Buffer& frame) {
  WireReader r(frame.slice(0, frame.size()));
  (void)r.u32();  // op
  (void)r.u32();  // reply tag
  return r;
}

TEST(WireFuzz, LivenessMessagesRoundTrip) {
  const arm::Heartbeat hb{.daemon_rank = 7, .seq = 42, .device_ok = false,
                          .sent_at = 3'500'000};
  util::Buffer hb_frame = hb.encode();
  WireReader hr = payload_reader(hb_frame);
  const arm::Heartbeat hb2 = arm::Heartbeat::decode(hr);
  EXPECT_EQ(hb2.daemon_rank, hb.daemon_rank);
  EXPECT_EQ(hb2.seq, hb.seq);
  EXPECT_EQ(hb2.device_ok, hb.device_ok);
  EXPECT_EQ(hb2.sent_at, hb.sent_at);

  const arm::SweepRequest sweep{.period = 1_ms, .miss_threshold = 3,
                                .fresh = true};
  util::Buffer sw_frame = sweep.encode();
  WireReader sr = payload_reader(sw_frame);
  const arm::SweepRequest sweep2 = arm::SweepRequest::decode(sr);
  EXPECT_EQ(sweep2.period, sweep.period);
  EXPECT_EQ(sweep2.miss_threshold, sweep.miss_threshold);
  EXPECT_EQ(sweep2.fresh, sweep.fresh);

  // Revoke notices are unsolicited pushes: payload only, no op header.
  const arm::RevokeNotice notice{.daemon_rank = 3, .lease_id = 99,
                                 .job = 12, .revoked_at = 5'000'000};
  WireReader nr(notice.encode());
  const arm::RevokeNotice notice2 = arm::RevokeNotice::decode(nr);
  EXPECT_EQ(notice2.daemon_rank, notice.daemon_rank);
  EXPECT_EQ(notice2.lease_id, notice.lease_id);
  EXPECT_EQ(notice2.job, notice.job);
  EXPECT_EQ(notice2.revoked_at, notice.revoked_at);

  const arm::ReplayReport report{.failed_rank = 2, .replacement_rank = 5,
                                 .job = 12, .replayed_ops = 17,
                                 .replayed_bytes = 64_MiB};
  util::Buffer rp_frame = report.encode(/*reply_tag=*/321);
  WireReader rr = payload_reader(rp_frame);
  const arm::ReplayReport report2 = arm::ReplayReport::decode(rr);
  EXPECT_EQ(report2.failed_rank, report.failed_rank);
  EXPECT_EQ(report2.replacement_rank, report.replacement_rank);
  EXPECT_EQ(report2.job, report.job);
  EXPECT_EQ(report2.replayed_ops, report.replayed_ops);
  EXPECT_EQ(report2.replayed_bytes, report.replayed_bytes);
}

TEST(WireFuzz, LivenessTruncationThrowsAtEveryByte) {
  // Each frame truncated at every byte boundary must throw from its own
  // decoder (after the op + reply-tag header the dispatch loop consumes).
  auto expect_all_cuts_throw = [](const util::Buffer& full, auto decode,
                                  bool header) {
    for (std::uint64_t cut = 0; cut < full.size(); ++cut) {
      WireReader r(full.slice(0, cut));
      EXPECT_THROW(
          {
            if (header) {
              (void)r.u32();
              (void)r.u32();
            }
            (void)decode(r);
          },
          std::runtime_error)
          << "cut at " << cut;
    }
  };
  expect_all_cuts_throw(arm::Heartbeat{.daemon_rank = 1, .seq = 9}.encode(),
                        [](WireReader& r) { return arm::Heartbeat::decode(r); },
                        /*header=*/true);
  expect_all_cuts_throw(
      arm::SweepRequest{.period = 1_ms, .miss_threshold = 3}.encode(),
      [](WireReader& r) { return arm::SweepRequest::decode(r); },
      /*header=*/true);
  expect_all_cuts_throw(
      arm::ReplayReport{.failed_rank = 1, .replacement_rank = 2}.encode(7),
      [](WireReader& r) { return arm::ReplayReport::decode(r); },
      /*header=*/true);
  // A RevokeNotice must carry its reason word: the cut before it throws too.
  expect_all_cuts_throw(
      arm::RevokeNotice{.daemon_rank = 1, .lease_id = 2,
                        .reason = arm::kRevokePreempted}
          .encode(),
      [](WireReader& r) { return arm::RevokeNotice::decode(r); },
      /*header=*/false);
}

TEST(WireFuzz, CorruptedLivenessFramesNeverCrash) {
  util::Rng rng(0xbeef);
  for (int round = 0; round < 500; ++round) {
    util::Buffer frame =
        arm::Heartbeat{.daemon_rank = 4, .seq = rng.next_u64()}.encode();
    std::vector<std::byte> bytes(frame.bytes().begin(), frame.bytes().end());
    // Corrupt 1-4 random bytes (possibly the header), then truncate maybe.
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.next_below(bytes.size())] =
          static_cast<std::byte>(rng.next_below(256));
    }
    if (rng.next_below(4) == 0) {
      bytes.resize(rng.next_below(bytes.size() + 1));
    }
    WireReader r(util::Buffer::backed(std::move(bytes)));
    try {
      (void)r.u32();
      (void)r.u32();
      const arm::Heartbeat hb = arm::Heartbeat::decode(r);
      (void)hb;  // garbage values are fine; UB / crashes are not
    } catch (const std::runtime_error&) {
      // clean rejection
    }
  }
}

TEST(DaemonFuzz, GarbageFramesAreCountedNotFatal) {
  // Blast a live daemon with random frames on the request tag: it must
  // count them as malformed (or answer kInvalidValue) and keep serving
  // well-formed requests interleaved with the junk.
  sim::Engine engine;
  net::Fabric fabric(engine, 2);
  dmpi::World world(engine, fabric, {0, 1});
  auto registry = gpu::KernelRegistry::with_builtins();
  gpu::Device device(engine, gpu::tesla_c1060(), registry, true);
  daemon::Daemon daemon(device, world, /*self=*/1);
  engine.spawn("daemon", [&](sim::Context& ctx) { daemon.run(ctx); });
  engine.spawn("client", [&](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 0);
    util::Rng rng(0xfeed);
    for (int round = 0; round < 300; ++round) {
      const std::size_t len = rng.next_below(48);
      std::vector<std::byte> junk(len);
      for (auto& b : junk) {
        b = static_cast<std::byte>(rng.next_below(256));
      }
      if (len >= 4) {
        // Two ops would stall the fuzz loop rather than exercise the error
        // path: kShutdown stops the daemon, kMemcpyHtoD makes it wait for
        // payload blocks we will never send. Mask the header away from both.
        const auto first = static_cast<std::uint32_t>(junk[0]) |
                           (static_cast<std::uint32_t>(junk[1]) << 8) |
                           (static_cast<std::uint32_t>(junk[2]) << 16) |
                           (static_cast<std::uint32_t>(junk[3]) << 24);
        if (first == static_cast<std::uint32_t>(Op::kShutdown) ||
            first == static_cast<std::uint32_t>(Op::kMemcpyHtoD)) {
          junk[3] = std::byte{0x7f};
        }
      }
      mpi.send(world.world_comm(), 1, kRequestTag,
               util::Buffer::backed(std::move(junk)));
      if (round % 60 == 0) {
        // The daemon still answers a well-formed request after the junk.
        mpi.send(world.world_comm(), 1, kRequestTag,
                 WireWriter{}.op(Op::kMemAlloc).u32(kResponseTag).u64(256)
                     .finish());
        WireReader r(mpi.recv(world.world_comm(), 1, kResponseTag));
        ASSERT_EQ(r.result(), gpu::Result::kSuccess);
        const gpu::DevPtr p = r.u64();
        mpi.send(world.world_comm(), 1, kRequestTag,
                 WireWriter{}.op(Op::kMemFree).u32(kResponseTag).u64(p)
                     .finish());
        ASSERT_EQ(WireReader(mpi.recv(world.world_comm(), 1, kResponseTag))
                      .result(),
                  gpu::Result::kSuccess);
      }
    }
    mpi.send(world.world_comm(), 1, kRequestTag,
             WireWriter{}.op(Op::kShutdown).u32(kResponseTag).finish());
    (void)mpi.recv(world.world_comm(), 1, kResponseTag);
  });
  engine.run();
  EXPECT_GT(daemon.malformed_requests(), 0u);
  EXPECT_EQ(device.memory_used(), 0u);
}

// --- kBatch frame fuzzing against a live daemon ----------------------------

namespace {
/// Minimal daemon harness: spawns a daemon on rank 1 and runs `client` as
/// rank 0, returning the daemon's malformed count and the device.
struct BatchFuzzRig {
  sim::Engine engine;
  net::Fabric fabric{engine, 2};
  dmpi::World world{engine, fabric, {0, 1}};
  std::shared_ptr<gpu::KernelRegistry> registry =
      gpu::KernelRegistry::with_builtins();
  gpu::Device device{engine, gpu::tesla_c1060(), registry, true};
  daemon::Daemon daemon{device, world, /*self=*/1};

  void run(std::function<void(dmpi::Mpi&, const dmpi::Comm&)> client) {
    engine.spawn("daemon", [&](sim::Context& ctx) { daemon.run(ctx); });
    engine.spawn("client", [&, client](sim::Context& ctx) {
      dmpi::Mpi mpi(world, ctx, 0);
      client(mpi, world.world_comm());
      mpi.send(world.world_comm(), 1, kRequestTag,
               WireWriter{}.op(Op::kShutdown).u32(kResponseTag).finish());
      (void)mpi.recv(world.world_comm(), 1, kResponseTag);
    });
    engine.run();
  }
};

/// A well-formed 3-sub-request batch frame (alloc + kernel-create + run).
util::Buffer valid_batch_frame(int reply_tag) {
  WireWriter w;
  w.op(Op::kBatch).u32(static_cast<std::uint32_t>(reply_tag));
  w.u32(3);
  w.u32(static_cast<std::uint32_t>(Op::kMemAlloc)).u64(4096);
  w.u32(static_cast<std::uint32_t>(Op::kKernelCreate)).str("dscal");
  w.u32(static_cast<std::uint32_t>(Op::kKernelRun))
      .str("dscal")
      .launch_config({})
      .kernel_args({std::int64_t{16}, 2.0, gpu::DevPtr{0}});
  return w.finish();
}
}  // namespace

TEST(DaemonFuzz, TruncatedBatchIsRejectedWholeNeverPartiallyExecuted) {
  // Every proper truncation of a valid batch frame must produce exactly one
  // whole-batch rejection (a bare kInvalidValue status) — and since the
  // first sub-request is a complete kMemAlloc, any partial execution before
  // the decode failure would leak device memory.
  BatchFuzzRig rig;
  rig.run([&](dmpi::Mpi& mpi, const dmpi::Comm& comm) {
    const util::Buffer full = valid_batch_frame(kResponseTag);
    for (std::uint64_t cut = 8; cut < full.size(); ++cut) {
      mpi.send(comm, 1, kRequestTag, full.slice(0, cut));
      WireReader r(mpi.recv(comm, 1, kResponseTag));
      EXPECT_EQ(r.result(), gpu::Result::kInvalidValue) << "cut at " << cut;
      EXPECT_TRUE(r.exhausted()) << "cut at " << cut;  // bare status only
      EXPECT_EQ(rig.device.memory_used(), 0u) << "cut at " << cut;
    }
  });
  EXPECT_GT(rig.daemon.malformed_requests(), 0u);
  EXPECT_EQ(rig.device.memory_used(), 0u);
}

TEST(DaemonFuzz, BatchCountOverflowAndGarbageBodiesRejected) {
  BatchFuzzRig rig;
  rig.run([&](dmpi::Mpi& mpi, const dmpi::Comm& comm) {
    // Sub-request count far beyond the frame's bytes.
    mpi.send(comm, 1, kRequestTag,
             WireWriter{}
                 .op(Op::kBatch)
                 .u32(kResponseTag)
                 .u32(0x00ffffff)
                 .u64(0)
                 .finish());
    EXPECT_EQ(WireReader(mpi.recv(comm, 1, kResponseTag)).result(),
              gpu::Result::kInvalidValue);
    // Zero sub-requests.
    mpi.send(comm, 1, kRequestTag,
             WireWriter{}.op(Op::kBatch).u32(kResponseTag).u32(0).finish());
    EXPECT_EQ(WireReader(mpi.recv(comm, 1, kResponseTag)).result(),
              gpu::Result::kInvalidValue);
    // Random junk bodies behind a valid batch header: one clean rejection
    // each, daemon keeps serving.
    util::Rng rng(0xba7c);
    for (int round = 0; round < 200; ++round) {
      WireWriter w;
      w.op(Op::kBatch).u32(kResponseTag);
      const std::size_t len = rng.next_below(40);
      for (std::size_t i = 0; i < len; ++i) {
        w.u32(static_cast<std::uint32_t>(rng.next_below(256)));
      }
      mpi.send(comm, 1, kRequestTag, w.finish());
      WireReader r(mpi.recv(comm, 1, kResponseTag));
      const gpu::Result status = r.result();
      if (status == gpu::Result::kSuccess) {
        // Only an (astronomically unlikely) fully valid batch may succeed;
        // anything else must be a whole-batch rejection.
        ADD_FAILURE() << "random body decoded as a valid batch";
      }
      EXPECT_EQ(status, gpu::Result::kInvalidValue) << "round " << round;
    }
    EXPECT_EQ(rig.device.memory_used(), 0u);
  });
  EXPECT_GE(rig.daemon.malformed_requests(), 202u);
}

TEST(DaemonFuzz, InnerTraceFlagInBatchRejected) {
  // The batch header owns the stream's trace context; a trace-flagged inner
  // op word must fail the whole frame.
  BatchFuzzRig rig;
  rig.run([&](dmpi::Mpi& mpi, const dmpi::Comm& comm) {
    WireWriter w;
    w.op(Op::kBatch).u32(kResponseTag);
    w.u32(2);
    w.u32(static_cast<std::uint32_t>(Op::kMemAlloc)).u64(1024);
    w.u32(static_cast<std::uint32_t>(Op::kMemAlloc) | kTraceContextFlag)
        .u64(1024);
    mpi.send(comm, 1, kRequestTag, w.finish());
    WireReader r(mpi.recv(comm, 1, kResponseTag));
    EXPECT_EQ(r.result(), gpu::Result::kInvalidValue);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(rig.device.memory_used(), 0u);  // sub-request 0 not executed
  });
  EXPECT_EQ(rig.daemon.malformed_requests(), 1u);
}

TEST(DaemonFuzz, WellFormedBatchExecutesInOrderAndRepliesOnce) {
  BatchFuzzRig rig;
  rig.run([&](dmpi::Mpi& mpi, const dmpi::Comm& comm) {
    // Batch 1: a lone alloc (legal on the wire, results in a count frame).
    WireWriter a;
    a.op(Op::kBatch).u32(kResponseTag).u32(1);
    a.u32(static_cast<std::uint32_t>(Op::kMemAlloc)).u64(4096);
    mpi.send(comm, 1, kRequestTag, a.finish());
    WireReader ar(mpi.recv(comm, 1, kResponseTag));
    ASSERT_EQ(ar.u32(), 1u);
    ASSERT_EQ(static_cast<gpu::Result>(ar.u32()), gpu::Result::kSuccess);
    const gpu::DevPtr p = ar.u64();
    EXPECT_NE(p, gpu::kNullDevPtr);
    EXPECT_TRUE(ar.exhausted());
    EXPECT_EQ(rig.device.memory_used(), 4096u);

    // Batch 2: create + run + free against the returned pointer, answered
    // by exactly one completion frame with one (status, ptr) per sub-op.
    WireWriter w;
    w.op(Op::kBatch).u32(kResponseTag).u32(3);
    w.u32(static_cast<std::uint32_t>(Op::kKernelCreate)).str("dscal");
    w.u32(static_cast<std::uint32_t>(Op::kKernelRun))
        .str("dscal")
        .launch_config({})
        .kernel_args({std::int64_t{16}, 2.0, p});
    w.u32(static_cast<std::uint32_t>(Op::kMemFree)).u64(p);
    mpi.send(comm, 1, kRequestTag, w.finish());
    WireReader r(mpi.recv(comm, 1, kResponseTag));
    ASSERT_EQ(r.u32(), 3u);
    EXPECT_EQ(static_cast<gpu::Result>(r.u32()), gpu::Result::kSuccess);
    EXPECT_EQ(r.u64(), gpu::kNullDevPtr);  // kernel-create carries no ptr
    EXPECT_EQ(static_cast<gpu::Result>(r.u32()), gpu::Result::kSuccess);
    EXPECT_EQ(r.u64(), gpu::kNullDevPtr);
    EXPECT_EQ(static_cast<gpu::Result>(r.u32()), gpu::Result::kSuccess);
    EXPECT_EQ(r.u64(), gpu::kNullDevPtr);
    EXPECT_TRUE(r.exhausted());
  });
  EXPECT_EQ(rig.daemon.malformed_requests(), 0u);
  EXPECT_EQ(rig.device.memory_used(), 0u);
}

TEST(TransferProperty, RandomSizesAndBlocksRoundTrip) {
  util::Rng rng(77);
  for (int round = 0; round < 25; ++round) {
    const std::uint64_t total = 1 + rng.next_below(512 * 1024);
    TransferConfig config;
    switch (rng.next_below(3)) {
      case 0:
        config = TransferConfig::naive();
        break;
      case 1:
        config = TransferConfig::pipeline(
            1024 * (1 + rng.next_below(256)));
        break;
      default:
        config = TransferConfig::pipeline_adaptive();
        break;
    }
    config.gpudirect = rng.next_below(2) == 0;

    std::vector<std::byte> payload(total);
    for (auto& b : payload) {
      b = static_cast<std::byte>(rng.next_below(256));
    }

    sim::Engine engine;
    net::Fabric fabric(engine, 2);
    dmpi::World world(engine, fabric, {0, 1});
    util::Buffer got;
    engine.spawn("tx", [&](sim::Context& ctx) {
      dmpi::Mpi mpi(world, ctx, 0);
      send_blocks(mpi, world.world_comm(), 1,
                  util::Buffer::backed(std::vector<std::byte>(payload)),
                  config, kDataTag);
    });
    engine.spawn("rx", [&](sim::Context& ctx) {
      dmpi::Mpi mpi(world, ctx, 1);
      got = recv_assemble(mpi, world.world_comm(), 0, total, config,
                          kDataTag);
    });
    engine.run();
    ASSERT_EQ(got.size(), total) << "round " << round;
    EXPECT_TRUE(
        std::equal(payload.begin(), payload.end(), got.bytes().begin()))
        << "round " << round;
  }
}

TEST(TransferProperty, PlanCoversEveryByteExactlyOnce) {
  util::Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t total = rng.next_below(1_MiB);
    const std::uint64_t block = 1 + rng.next_below(64_KiB);
    const BlockPlan plan(total, TransferConfig::pipeline(block));
    std::uint64_t covered = 0;
    std::uint64_t expected_offset = 0;
    for (std::size_t i = 0; i < plan.count(); ++i) {
      EXPECT_EQ(plan.offset(i), expected_offset);
      covered += plan.size(i);
      expected_offset += plan.size(i);
      EXPECT_GT(plan.size(i), 0u);
      EXPECT_LE(plan.size(i), plan.block_bytes());
    }
    EXPECT_EQ(covered, total);
  }
}

}  // namespace
}  // namespace dacc::proto
