// Hardening of the consensus wire layer (DESIGN.md §11): every message
// type must reject truncation at every byte boundary with a clean
// proto::WireError, random garbage must never crash a decoder, and a live
// replica fed stale-term replays, corrupted frames and absurd indices must
// drop them whole — state machine untouched, service uninterrupted.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arm/arm.hpp"
#include "arm/lease_machine.hpp"
#include "arm/raft/node.hpp"
#include "arm/raft/wire.hpp"
#include "common/testbed.hpp"
#include "proto/wire.hpp"
#include "rpc/channel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dacc::arm::raft {
namespace {

using proto::WireError;
using proto::WireReader;
using proto::WireWriter;

/// Consumes the rpc header (op word + reply tag) the way the replica's
/// dispatch loop does before handing the reader to the payload decoder.
WireReader payload_reader(const util::Buffer& frame) {
  WireReader r(frame.slice(0, frame.size()));
  (void)r.u32();  // op word
  (void)r.u32();  // reply tag
  return r;
}

Command sample_command() {
  Command cmd;
  cmd.client = 3;
  cmd.reply_tag = 2'000'017;
  cmd.op = static_cast<std::uint32_t>(ArmOp::kAcquire);
  WireWriter body;
  ResourceRequest{}.with_job(7).with_count(2).with_wait(true).with_kind("gpu")
      .encode_body(body);
  cmd.body = body.finish();
  return cmd;
}

AppendEntries sample_append() {
  AppendEntries ae;
  ae.term = 5;
  ae.leader = 2;
  ae.prev_index = 9;
  ae.prev_term = 4;
  ae.commit = 8;
  ae.quiesce = true;
  for (int i = 0; i < 3; ++i) {
    LogEntry e;
    e.term = 5;
    e.at = 1'000'000 + i;
    e.cmd = sample_command();
    ae.entries.push_back(std::move(e));
  }
  return ae;
}

TEST(RaftWireFuzz, MessagesRoundTrip) {
  const AppendEntries ae = sample_append();
  WireReader ar = payload_reader(ae.encode());
  const AppendEntries ae2 = AppendEntries::decode(ar);
  EXPECT_EQ(ae2.term, ae.term);
  EXPECT_EQ(ae2.leader, ae.leader);
  EXPECT_EQ(ae2.prev_index, ae.prev_index);
  EXPECT_EQ(ae2.prev_term, ae.prev_term);
  EXPECT_EQ(ae2.commit, ae.commit);
  EXPECT_EQ(ae2.quiesce, ae.quiesce);
  ASSERT_EQ(ae2.entries.size(), ae.entries.size());
  for (std::size_t i = 0; i < ae.entries.size(); ++i) {
    EXPECT_EQ(ae2.entries[i].term, ae.entries[i].term);
    EXPECT_EQ(ae2.entries[i].at, ae.entries[i].at);
    EXPECT_EQ(ae2.entries[i].cmd.client, ae.entries[i].cmd.client);
    EXPECT_EQ(ae2.entries[i].cmd.reply_tag, ae.entries[i].cmd.reply_tag);
    EXPECT_EQ(ae2.entries[i].cmd.op, ae.entries[i].cmd.op);
  }

  // Garbage terms and indices are values, not formats: they round-trip at
  // the wire layer and are rejected by protocol rules, not decoders.
  RequestVote rv;
  rv.term = ~0ull;
  rv.candidate = -1;
  rv.last_log_index = ~0ull;
  rv.last_log_term = ~0ull - 1;
  WireReader rr = payload_reader(rv.encode());
  const RequestVote rv2 = RequestVote::decode(rr);
  EXPECT_EQ(rv2.term, rv.term);
  EXPECT_EQ(rv2.candidate, rv.candidate);
  EXPECT_EQ(rv2.last_log_index, rv.last_log_index);
  EXPECT_EQ(rv2.last_log_term, rv.last_log_term);

  InstallSnapshot is;
  is.term = 6;
  is.leader = 0;
  is.last_index = 40;
  is.last_term = 6;
  is.snapshot = LeaseMachine({{1, "c1060"}}, QueuePolicy::kFcfs).snapshot();
  WireReader ir = payload_reader(is.encode());
  const InstallSnapshot is2 = InstallSnapshot::decode(ir);
  EXPECT_EQ(is2.last_index, is.last_index);
  EXPECT_EQ(is2.snapshot.size(), is.snapshot.size());
}

TEST(RaftWireFuzz, EveryTruncationPointThrows) {
  const std::vector<util::Buffer> frames = {
      sample_append().encode(),
      RequestVote{3, 1, 10, 2}.encode(),
      VoteReply{3, 2, true}.encode(),
      AppendReply{3, 1, true, 10, 8}.encode(),
      InstallSnapshot{4, 0, 12, 3,
                      LeaseMachine({{1, "c1060"}}, QueuePolicy::kFcfs)
                          .snapshot()}
          .encode(),
      SnapshotReply{4, 1, 12}.encode(),
  };
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const util::Buffer& full = frames[f];
    // Cut inside the payload (the first 8 bytes are the rpc header the
    // server's channel validates separately).
    for (std::uint64_t cut = 8; cut < full.size(); ++cut) {
      WireReader r(full.slice(0, cut));
      (void)r.u32();
      (void)r.u32();
      EXPECT_THROW(
          {
            switch (f) {
              case 0: (void)AppendEntries::decode(r); break;
              case 1: (void)RequestVote::decode(r); break;
              case 2: (void)VoteReply::decode(r); break;
              case 3: (void)AppendReply::decode(r); break;
              case 4: (void)InstallSnapshot::decode(r); break;
              case 5: (void)SnapshotReply::decode(r); break;
            }
          },
          WireError)
          << "frame " << f << " cut at " << cut;
    }
  }
}

TEST(RaftWireFuzz, EntryCountNeverExceedsTheFrame) {
  // An AppendEntries claiming more entries than its bytes could possibly
  // hold must throw before any allocation-by-count happens.
  const util::Buffer poison = WireWriter{}
                                  .u32(0)  // payload only; header consumed
                                  .u32(0)
                                  .u64(5)          // term
                                  .u64(2)          // leader
                                  .u64(0)          // prev_index
                                  .u64(0)          // prev_term
                                  .u64(0)          // commit
                                  .u32(0)          // quiesce
                                  .u32(0xFFFFFFF)  // entry count
                                  .finish();
  WireReader r = payload_reader(poison);
  EXPECT_THROW((void)AppendEntries::decode(r), WireError);
}

TEST(RaftWireFuzz, V1SnapshotIsRejectedWhole) {
  // The pre-scheduler v1 snapshot layout (no placement, memory, priorities
  // or tickets) has no writer in the build. A well-formed v1 frame is an
  // unknown version: restore() throws before decoding anything, so a
  // replica assigning its result keeps its state untouched.
  LeaseMachine replica({{1, "c1060"}, {2, "c1060"}}, QueuePolicy::kFcfs);
  const std::uint64_t before = replica.fingerprint();
  WireWriter w;
  w.u32(1);  // version
  w.u32(static_cast<std::uint32_t>(QueuePolicy::kFcfs));
  // next lease, acquisitions, heartbeats, revocations, replacements
  w.u64(7).u64(3).u64(0).u32(0).u32(0);
  // One free slot: rank, device, kind, state, job, lease, owner, assigned
  // since, assigned total, last beat.
  w.u32(1);
  w.u64(1).str("c1060").str("gpu").u32(0).u64(0).u64(0).u64(~0ull);
  w.u64(0).u64(0).u64(0);
  w.u32(0).u32(0).u32(0);  // queue, revoked leases, reply cache
  const util::Buffer v1 = w.finish();
  WireReader r(v1.view());
  EXPECT_THROW(replica = LeaseMachine::restore(r), WireError);
  EXPECT_EQ(replica.fingerprint(), before);
  EXPECT_EQ(replica.stats().free, 2u);
}

TEST(RaftWireFuzz, RandomBytesNeverCrashTheDecoders) {
  util::Rng rng(0x4a77);
  int clean_throws = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> junk(rng.next_below(96));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
    WireReader r(util::Buffer::backed(std::move(junk)));
    try {
      switch (round % 6) {
        case 0: (void)AppendEntries::decode(r); break;
        case 1: (void)RequestVote::decode(r); break;
        case 2: (void)VoteReply::decode(r); break;
        case 3: (void)AppendReply::decode(r); break;
        case 4: (void)InstallSnapshot::decode(r); break;
        case 5: (void)SnapshotReply::decode(r); break;
      }
    } catch (const WireError&) {
      ++clean_throws;
    }
  }
  EXPECT_GT(clean_throws, 0);
}

// ---------------------------------------------------------------------------
// Live replica under attack: stale replays, garbage, absurd indices
// ---------------------------------------------------------------------------

/// Reads one consensus frame the driver received back from the replica.
template <typename M>
M recv_reply(dmpi::Mpi& mpi, const dmpi::Comm& comm, RaftOp expect) {
  util::Buffer frame = mpi.recv(comm, 0, kArmRequestTag);
  WireReader r(frame.view());
  EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(expect));
  (void)r.u32();  // reply tag (0: one-way consensus frame)
  return M::decode(r);
}

TEST(RaftWireFuzz, LiveReplicaDropsPoisonWhole) {
  // Rank 0 runs a single-replica group (it elects itself); rank 1 plays a
  // byzantine peer: stale-term replays, truncated frames, random garbage
  // and absurd indices. The replica must answer protocol rejections for
  // well-formed-but-stale frames, drop malformed ones whole, and keep
  // serving clients with its lease table untouched.
  dacc::testing::MpiBed bed(2);
  RaftParams params;
  params.seed = 0x5EED'F00Dull;
  RaftNode node(bed.world(), /*self=*/0, /*replica=*/0, {0},
                {{1, "c1060"}, {1, "c1060"}}, QueuePolicy::kFcfs, params,
                HeartbeatParams{});

  bed.run({
      [&node](dmpi::Mpi&, sim::Context& ctx) { node.run(ctx); },
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {
        const dmpi::Comm& comm = bed.comm();
        ctx.wait_until(10_ms);  // the lone replica elected itself by now
        ArmClient client(mpi, comm, {0});
        const PoolStats before = client.stats();
        EXPECT_EQ(before.total, 2u);
        EXPECT_EQ(before.free, 2u);

        // Stale-term AppendEntries replay: protocol rejection, not a crash;
        // the reply names the replica's real (higher) term.
        AppendEntries stale;
        stale.term = 0;
        stale.leader = 1;
        mpi.send(comm, 0, kArmRequestTag, stale.encode());
        const auto ae_rep =
            recv_reply<AppendReply>(mpi, comm, RaftOp::kAppendReply);
        EXPECT_FALSE(ae_rep.success);
        EXPECT_GE(ae_rep.term, 1u);

        // Stale-term vote replay: never granted.
        RequestVote rv;
        rv.term = 0;
        rv.candidate = 1;
        rv.last_log_index = ~0ull;  // absurd index changes nothing at term 0
        mpi.send(comm, 0, kArmRequestTag, rv.encode());
        const auto vote = recv_reply<VoteReply>(mpi, comm, RaftOp::kVoteReply);
        EXPECT_FALSE(vote.granted);

        // Corrupted InstallSnapshot at a huge term: restore() throws inside
        // the replica, which must drop the frame with its machine intact
        // (the no-partial-application rule).
        InstallSnapshot poison;
        poison.term = 1'000'000;
        poison.leader = 1;
        poison.last_index = ~0ull / 2;
        poison.last_term = 999;
        poison.snapshot =
            WireWriter{}.u64(0xDEAD).u64(0xBEEF).u32(7).finish();
        mpi.send(comm, 0, kArmRequestTag, poison.encode());

        // Truncations of a valid AppendEntries at every payload boundary,
        // then bursts of random garbage. All dropped silently.
        const util::Buffer full = sample_append().encode();
        for (std::uint64_t cut = 1; cut < full.size(); ++cut) {
          mpi.send(comm, 0, kArmRequestTag, full.slice(0, cut));
        }
        util::Rng rng(0xBAD5EED);
        for (int i = 0; i < 64; ++i) {
          std::vector<std::byte> junk(1 + rng.next_below(64));
          for (auto& b : junk) {
            b = static_cast<std::byte>(rng.next_below(256));
          }
          mpi.send(comm, 0, kArmRequestTag,
                   util::Buffer::backed(std::move(junk)));
        }

        // The replica took a term bump from the poison snapshot's header,
        // re-elected itself, and still serves the unchanged lease table.
        // Two endpoints (both the same replica) put the client on the
        // failover ladder, which rides out the re-election window.
        ArmClient survivor(mpi, comm, std::vector<dmpi::Rank>{0, 0});
        const PoolStats after = survivor.stats();
        EXPECT_EQ(after.total, 2u);
        EXPECT_EQ(after.free, 2u);
        survivor.shutdown();  // lets the replica's service loop return
      },
  });

  EXPECT_EQ(node.machine().stats().free, 2u);
  EXPECT_GE(node.term(), 1'000'000u);  // the poison term was adopted
  EXPECT_EQ(node.last_applied(), node.commit_index());
}

}  // namespace
}  // namespace dacc::arm::raft
