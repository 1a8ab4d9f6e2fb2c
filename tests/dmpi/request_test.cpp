// Request lifecycle semantics: what a handle reports and how waiting,
// cancelling and completion behave for eager sends, rendezvous sends and
// receives, and how communicators translate world ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "common/testbed.hpp"
#include "util/units.hpp"

namespace dacc::dmpi {
namespace {

using testing::TestBed;

TEST(RequestSemantics, EagerSendIsDoneWhenPosted) {
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             Status st;
             EXPECT_EQ(mpi.recv(bed.comm(), 1, 7, &st).size(), 1_KiB);
             EXPECT_EQ(st.source, 1);
           },
           [&](Mpi& mpi, sim::Context& ctx) {
             Request s = mpi.isend(bed.comm(), 0, 7,
                                   util::Buffer::phantom(1_KiB));
             const SimTime posted = ctx.now();
             const std::uint64_t switches = ctx.engine().process_switches();
             EXPECT_TRUE(s.valid());
             EXPECT_TRUE(s.done());
             EXPECT_TRUE(mpi.test(s));
             EXPECT_EQ(s.status().source, 1);
             EXPECT_EQ(s.status().tag, 7);
             EXPECT_EQ(s.status().bytes, 1_KiB);
             // Waiting, testing and cancelling a finished send are no-ops:
             // nothing blocks, the clock stands still, the status stays.
             mpi.wait(s);
             EXPECT_TRUE(mpi.wait_until(s, posted + 1'000'000));
             EXPECT_TRUE(mpi.wait_until(s, kSimTimeNever));
             EXPECT_TRUE(mpi.wait_for(s, 0));
             mpi.cancel(s);
             EXPECT_TRUE(mpi.test(s));
             EXPECT_EQ(ctx.now(), posted);
             EXPECT_EQ(ctx.engine().process_switches(), switches);
             EXPECT_EQ(s.status().source, 1);
             EXPECT_EQ(s.status().tag, 7);
             EXPECT_EQ(s.status().bytes, 1_KiB);
             EXPECT_EQ(s.take_payload().size(), 0u);
             // Copies refer to the same finished send.
             Request copy = s;
             EXPECT_TRUE(copy.done());
             EXPECT_EQ(copy.status().bytes, 1_KiB);
           }});
}

/// What both ranks of the cancelled-rendezvous scenario observed.
struct CancelledRendezvous {
  bool send_done_after_cancel = true;
  bool send_done_after_cts = true;
  bool reserved_recv_finished = true;
  std::uint64_t big_bytes = 0;
  std::uint64_t small_bytes = 0;
  std::uint64_t reply_bytes = 0;
  bool big_intact = false;
  SimTime big_at = 0;
  SimTime reply_at = 0;
  std::uint64_t events = 0;

  bool operator==(const CancelledRendezvous&) const = default;
};

/// Rank 0 posts a rendezvous send and withdraws it while its RTS is on the
/// wire. Rank 1's receive, posted first, matches the RTS and answers with a
/// CTS, which reaches rank 0 after the cancel and must be ignored: the send
/// never completes and rank 1's reserved receive stays pending until its
/// owner gives up. The same pair then exchanges a rendezvous and an eager
/// message, and a reply the other way. Each rank's process is homed on its
/// rank's node; `pool` widens the run past the pool crossover, so a
/// parallel engine runs it on its worker pool.
CancelledRendezvous run_cancelled_rendezvous(sim::ExecBackend backend,
                                             bool pool) {
  sim::Engine engine(backend, /*shards=*/2);
  net::Fabric fabric(engine, 2);
  engine.set_lookahead(net::FabricParams{}.wire_latency);
  World world(engine, fabric, {0, 1});
  const Comm& comm = world.world_comm();
  std::vector<std::byte> pattern(64_KiB);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::byte>((i * 13 + 5) & 0xff);
  }

  CancelledRendezvous out;
  engine.spawn_on(0, "sender", [&](sim::Context& ctx) {
    Mpi mpi(world, ctx, 0);
    Request s = mpi.isend(comm, 1, 1, util::Buffer::phantom(64_KiB));
    mpi.cancel(s);
    out.send_done_after_cancel = s.done();
    ctx.wait_for(100'000);  // the CTS arrived long ago
    out.send_done_after_cts = mpi.test(s);
    mpi.send(comm, 1, 2, util::Buffer::backed(pattern));
    mpi.send(comm, 1, 3, util::Buffer::phantom(8));
    out.reply_bytes = mpi.recv(comm, 1, 4).size();
    out.reply_at = ctx.now();
  });
  engine.spawn_on(1, "receiver", [&](sim::Context& ctx) {
    Mpi mpi(world, ctx, 1);
    Request r = mpi.irecv(comm, 0, 1);
    out.reserved_recv_finished = mpi.wait_for(r, 1'000'000);
    mpi.cancel(r);
    const util::Buffer big = mpi.recv(comm, 0, 2);
    out.big_at = ctx.now();
    out.big_bytes = big.size();
    out.big_intact = std::equal(pattern.begin(), pattern.end(),
                                big.bytes().begin(), big.bytes().end());
    out.small_bytes = mpi.recv(comm, 0, 3).size();
    mpi.send(comm, 0, 4, util::Buffer::phantom(256_KiB));
  });
  if (pool) dacc::testing::widen_past_pool_crossover(engine);
  engine.run();
  if (pool && backend == sim::ExecBackend::kParallel) {
    EXPECT_TRUE(dacc::testing::ran_all_eras_on_pool(engine));
  }
  out.events = engine.events_executed();
  return out;
}

void expect_cancelled_rendezvous(const CancelledRendezvous& r) {
  EXPECT_FALSE(r.send_done_after_cancel);
  EXPECT_FALSE(r.send_done_after_cts);
  EXPECT_FALSE(r.reserved_recv_finished);
  EXPECT_EQ(r.big_bytes, 64_KiB);
  EXPECT_TRUE(r.big_intact);
  EXPECT_EQ(r.small_bytes, 8u);
  EXPECT_EQ(r.reply_bytes, 256_KiB);
  EXPECT_GT(r.big_at, SimTime{1'000'000});
  EXPECT_GT(r.reply_at, r.big_at);
}

TEST(RequestSemantics, CancelledRendezvousSendIgnoresTheLateCts) {
  const CancelledRendezvous serial =
      run_cancelled_rendezvous(sim::ExecBackend::kCoroutine, false);
  expect_cancelled_rendezvous(serial);
}

TEST(RequestSemantics, CancelledRendezvousSendIgnoresTheLateCtsOnThePool) {
  const CancelledRendezvous serial =
      run_cancelled_rendezvous(sim::ExecBackend::kCoroutine, true);
  const CancelledRendezvous pool =
      run_cancelled_rendezvous(sim::ExecBackend::kParallel, true);
  expect_cancelled_rendezvous(pool);
  EXPECT_EQ(pool, serial);
}

TEST(RequestSemantics, TwoProcessesWaitingOnOneRequestBothWake) {
  TestBed bed(2);
  std::string woke;
  SimTime a_at = 0;
  SimTime b_at = 0;
  bed.run({[&](Mpi& mpi, sim::Context& ctx) {
             ctx.wait_for(10'000);
             mpi.send(bed.comm(), 1, 5, util::Buffer::phantom(64));
           },
           [&](Mpi& mpi, sim::Context& ctx) {
             Request r = mpi.irecv(bed.comm(), 0, 5);
             // A second process on the same rank waits on a copy.
             ctx.engine().spawn("rank1-b", [&, copy = r](
                                               sim::Context& c) mutable {
               Mpi other(bed.world(), c, 1);
               EXPECT_TRUE(other.wait_until(copy, kSimTimeNever));
               woke += 'B';
               b_at = c.now();
               EXPECT_EQ(copy.status().bytes, 64u);
             });
             mpi.wait(r);
             woke += 'A';
             a_at = ctx.now();
             EXPECT_EQ(r.take_payload().size(), 64u);
           }});
  EXPECT_EQ(woke, "AB");  // in the order they started waiting
  EXPECT_GT(a_at, SimTime{10'000});
  EXPECT_EQ(a_at, b_at);
}

TEST(RequestSemantics, WaitersWakeInRegistrationOrderAfterATimeout) {
  // A waits first but gives up; B waited before C arrived, so B wakes
  // first when the message lands.
  TestBed bed(2);
  std::string woke;
  bed.run({[&](Mpi& mpi, sim::Context& ctx) {
             ctx.wait_for(20'000);
             mpi.send(bed.comm(), 1, 5, util::Buffer::phantom(64));
           },
           [&](Mpi& mpi, sim::Context& ctx) {
             Request r = mpi.irecv(bed.comm(), 0, 5);
             sim::Engine& eng = ctx.engine();
             eng.spawn("rank1-b", [&, copy = r](sim::Context& c) mutable {
               Mpi other(bed.world(), c, 1);
               other.wait(copy);
               woke += 'B';
             });
             eng.spawn("rank1-c", [&, copy = r](sim::Context& c) mutable {
               c.wait_for(10'000);  // after A timed out
               Mpi other(bed.world(), c, 1);
               other.wait(copy);
               woke += 'C';
             });
             EXPECT_FALSE(mpi.wait_for(r, 5'000));
             woke += 'a';  // A's timeout
           }});
  EXPECT_EQ(woke, "aBC");
}

TEST(RequestSemantics, WaitAnyOverEagerAndRendezvousRequests) {
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context& ctx) {
             std::vector<Request> sends;
             sends.push_back(
                 mpi.isend(bed.comm(), 1, 1, util::Buffer::phantom(1_MiB)));
             sends.push_back(
                 mpi.isend(bed.comm(), 1, 2, util::Buffer::phantom(16)));
             // The eager send finished when posted; the rendezvous one waits
             // for its CTS.
             const SimTime before = ctx.now();
             EXPECT_EQ(mpi.wait_any(sends), 1u);
             EXPECT_EQ(ctx.now(), before);
             EXPECT_FALSE(sends[0].done());
             std::vector<Request> pending{sends[0]};
             EXPECT_EQ(mpi.wait_any(pending), 0u);
             EXPECT_TRUE(sends[0].done());
             EXPECT_EQ(sends[0].status().bytes, 1_MiB);
             EXPECT_GT(ctx.now(), before);
           },
           [&](Mpi& mpi, sim::Context&) {
             std::vector<Request> recvs;
             recvs.push_back(mpi.irecv(bed.comm(), 0, 1));
             recvs.push_back(mpi.irecv(bed.comm(), 0, 2));
             EXPECT_EQ(mpi.wait_any(recvs), 1u);  // eager lands first
             EXPECT_FALSE(recvs[0].done());
             EXPECT_EQ(recvs[1].take_payload().size(), 16u);
             EXPECT_EQ(mpi.wait_any(recvs), 1u);  // still done: lowest index
             mpi.wait(recvs[0]);
             EXPECT_EQ(recvs[0].take_payload().size(), 1_MiB);
           }});
}

TEST(RequestSemantics, SpuriouslyWokenWaiterKeepsItsPlace) {
  // Three processes on rank 0 wait on copies of one receive, in the order
  // 0, 1, 2; waiter 1 is then woken for no reason. It must go back to
  // waiting in its old place, so the completion wakes them 0, 1, 2.
  TestBed bed(2);
  std::vector<int> woke;
  bed.run({[&](Mpi& mpi, sim::Context& ctx) {
             Request r = mpi.irecv(bed.comm(), 1, 5);
             std::vector<sim::Process*> waiters;
             for (int w = 0; w < 3; ++w) {
               waiters.push_back(&ctx.engine().spawn(
                   "waiter" + std::to_string(w),
                   [&, r, w](sim::Context& wctx) mutable {
                     Mpi view(bed.world(), wctx, 0);
                     wctx.wait_for(1'000 * static_cast<SimDuration>(w));
                     view.wait(r);
                     woke.push_back(w);
                   }));
             }
             ctx.wait_for(10'000);
             ctx.engine().wake(*waiters[1]);
             mpi.wait(r);  // the fourth waiter, so it runs after the three
             EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
             EXPECT_EQ(r.take_payload().size(), 1_KiB);
           },
           [&](Mpi& mpi, sim::Context& ctx) {
             ctx.wait_for(50'000);
             mpi.send(bed.comm(), 0, 5, util::Buffer::phantom(1_KiB));
           }});
  EXPECT_EQ(woke.size(), 3u);
}

TEST(CommRanks, CommRankMatchesALinearScanOfTheMembers) {
  const int n = 16;
  TestBed bed(n);
  std::mt19937 rng(2012);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<Rank> members(static_cast<std::size_t>(n));
    std::iota(members.begin(), members.end(), 0);
    std::shuffle(members.begin(), members.end(), rng);
    members.resize(1 + rng() % static_cast<unsigned>(n));
    const Comm& comm = bed.world().create_comm(members);
    for (Rank w = -3; w < n + 3; ++w) {
      Rank scan = kAnySource;
      for (Rank r = 0; r < comm.size(); ++r) {
        if (comm.world_rank(r) == w) {
          scan = r;
          break;
        }
      }
      EXPECT_EQ(comm.comm_rank(w), scan) << "trial " << trial << " w " << w;
      EXPECT_EQ(comm.contains_world_rank(w), scan != kAnySource);
    }
  }
  EXPECT_EQ(bed.comm().comm_rank(kAnySource), kAnySource);
  EXPECT_EQ(bed.comm().comm_rank(n), kAnySource);
}

}  // namespace
}  // namespace dacc::dmpi
