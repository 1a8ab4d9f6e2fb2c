// Heap-allocation gate for dmpi's point-to-point path: once warm, a stream
// of eager messages and a pipelined rendezvous stream between two ranks
// allocate no heap block (DESIGN.md §5.1). This binary replaces the global
// operator new with a counting one (common/counting_new.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/counting_new.hpp"
#include "common/testbed.hpp"
#include "util/units.hpp"

namespace dacc::dmpi {
namespace {

using dacc::testing::heap_blocks;
using dacc::testing::MpiBed;

/// Both ranks run their round twice: a warm-up from time 0, then the
/// measured round from kMeasured; each round ends idle at its start plus
/// kRoundSpan, after its messages and deadline timers. So every time in the
/// measured round is its warm-up twin plus 2^30, and the event queue's radix
/// buckets see the same offsets and need no more room. Returns the heap
/// blocks allocated from kMeasured until both ranks finished the measured
/// round; their exits, which return their stacks to the engine's pool, come
/// after.
constexpr SimTime kMeasured = SimTime{1} << 30;
constexpr SimTime kRoundSpan = SimTime{1} << 29;

template <typename Sender, typename Receiver>
std::uint64_t blocks_in_measured_round(Sender sender, Receiver receiver) {
  MpiBed bed(2);
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  // Scheduled before the ranks start, so it runs first at kMeasured.
  bed.engine().schedule_at(kMeasured, [&] { begin = heap_blocks(); });
  auto twice = [&](auto round) {
    return [&, round](Mpi& mpi, sim::Context& ctx) mutable {
      for (const SimTime start : {SimTime{0}, kMeasured}) {
        ctx.wait_until(start);
        round(mpi, ctx);
        if (start == kMeasured) end = std::max(end, heap_blocks());
        ctx.wait_until(start + kRoundSpan);
      }
    };
  };
  bed.run({twice(sender), twice(receiver)});
  EXPECT_GT(begin, 0u);
  return end - begin;
}

TEST(P2PAllocations, WarmEagerStreamAllocatesNothing) {
  constexpr int kMessages = 1000;
  std::uint64_t bytes = 0;
  const std::uint64_t blocks = blocks_in_measured_round(
      [](Mpi& mpi, sim::Context&) {
        for (int i = 0; i < kMessages; ++i) {
          mpi.send(mpi.world().world_comm(), 1, 3,
                   util::Buffer::phantom(1_KiB));
        }
      },
      [&](Mpi& mpi, sim::Context&) {
        for (int i = 0; i < kMessages; ++i) {
          bytes += mpi.recv(mpi.world().world_comm(), 0, 3).size();
        }
      });
  EXPECT_EQ(bytes, 2 * kMessages * 1_KiB);
  EXPECT_EQ(blocks, 0u) << "heap blocks allocated by " << kMessages
                        << " warm eager messages";
}

TEST(P2PAllocations, WarmRendezvousPipelineAllocatesNothing) {
  // The bulk-copy pattern of proto::send_blocks / recv_blocks: every block
  // posted at once on both sides, the receives waited on with a deadline.
  constexpr std::size_t kBlocks = 512;
  std::vector<Request> sends;
  std::vector<Request> recvs;
  sends.reserve(kBlocks);
  recvs.reserve(kBlocks);
  std::uint64_t bytes = 0;
  std::size_t late = 0;
  const std::uint64_t blocks = blocks_in_measured_round(
      [&](Mpi& mpi, sim::Context&) {
        for (std::size_t i = 0; i < kBlocks; ++i) {
          sends.push_back(mpi.isend(mpi.world().world_comm(), 1, 9,
                                    util::Buffer::phantom(64_KiB)));
        }
        mpi.wait_all(sends);
        sends.clear();
      },
      [&](Mpi& mpi, sim::Context& ctx) {
        const SimTime deadline = ctx.now() + kRoundSpan;
        for (std::size_t i = 0; i < kBlocks; ++i) {
          recvs.push_back(mpi.irecv(mpi.world().world_comm(), 0, 9));
        }
        for (Request& r : recvs) {
          if (!mpi.wait_until(r, deadline)) ++late;
          bytes += r.take_payload().size();
        }
        recvs.clear();
      });
  EXPECT_EQ(late, 0u);
  EXPECT_EQ(bytes, 2 * kBlocks * 64_KiB);
  EXPECT_EQ(blocks, 0u) << "heap blocks allocated by a warm " << kBlocks
                        << "-block rendezvous stream";
}

}  // namespace
}  // namespace dacc::dmpi
