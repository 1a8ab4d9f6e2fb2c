// Heap-allocation gate for the blocking primitives (DESIGN.md §5.1): once
// warm, a Mailbox round trip between two processes and a Completion's
// whole life (built, waited on, completed) allocate no heap block. This
// binary replaces the global operator new with a counting one
// (common/counting_new.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/counting_new.hpp"
#include "sim/sync.hpp"

namespace dacc::sim {
namespace {

using dacc::testing::heap_blocks;

/// Each process runs its round twice, a warm-up from time 0 and the
/// measured round from kMeasured, as in the dmpi gate: every time in the
/// measured round is its warm-up twin plus 2^30, so the event queue needs
/// no more room, and each round ends idle at its start plus kRoundSpan.
/// Returns the heap blocks allocated from kMeasured until every process
/// finished the measured round; their exits, which return their stacks to
/// the engine's pool, come after.
constexpr SimTime kMeasured = SimTime{1} << 30;
constexpr SimTime kRoundSpan = SimTime{1} << 29;

template <typename... Rounds>
std::uint64_t blocks_in_measured_round(Engine& engine, Rounds... rounds) {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  engine.schedule_at(kMeasured, [&] { begin = heap_blocks(); });
  auto twice = [&](auto round) {
    return [&, round](Context& ctx) mutable {
      for (const SimTime start : {SimTime{0}, kMeasured}) {
        ctx.wait_until(start);
        round(ctx);
        if (start == kMeasured) end = std::max(end, heap_blocks());
        ctx.wait_until(start + kRoundSpan);
      }
    };
  };
  (engine.spawn("p", twice(rounds)), ...);
  engine.run();
  EXPECT_GT(begin, 0u);
  return end - begin;
}

TEST(SyncAllocations, WarmMailboxRoundTripsAllocateNothing) {
  constexpr int kTrips = 1000;
  Engine engine;
  Mailbox<int> ping(engine);
  Mailbox<int> pong(engine);
  int sum = 0;
  const std::uint64_t blocks = blocks_in_measured_round(
      engine,
      [&](Context& ctx) {
        for (int i = 0; i < kTrips; ++i) {
          ping.put(i);
          sum += pong.get(ctx);
        }
      },
      [&](Context& ctx) {
        for (int i = 0; i < kTrips; ++i) pong.put(ping.get(ctx) + 1);
      });
  EXPECT_EQ(sum, 2 * (kTrips * (kTrips - 1) / 2 + kTrips));
  EXPECT_EQ(blocks, 0u) << "heap blocks allocated by " << kTrips
                        << " warm mailbox round trips";
}

TEST(SyncAllocations, WarmCompletionsAllocateNothing) {
  constexpr int kCompletions = 1000;
  Engine engine;
  int completed = 0;
  const std::uint64_t blocks = blocks_in_measured_round(
      engine, [&](Context& ctx) {
        for (int i = 0; i < kCompletions; ++i) {
          Completion done(engine);
          engine.schedule_in(100, [&done] { done.complete(); });
          done.wait(ctx);
          completed += done.done() ? 1 : 0;
        }
      });
  EXPECT_EQ(completed, 2 * kCompletions);
  EXPECT_EQ(blocks, 0u) << "heap blocks allocated by " << kCompletions
                        << " warm completions";
}

}  // namespace
}  // namespace dacc::sim
