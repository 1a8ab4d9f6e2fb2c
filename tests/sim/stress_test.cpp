// Engine stress: many processes, many events, deterministic outcome.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/stack_pool.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace dacc::sim {
namespace {

TEST(EngineStress, HundredProcessesTokenRing) {
  // A token circulates a ring of 100 processes 50 times.
  Engine engine;
  const int n = 100;
  const int laps = 50;
  std::vector<std::unique_ptr<Mailbox<int>>> boxes;
  for (int i = 0; i < n; ++i) {
    boxes.push_back(std::make_unique<Mailbox<int>>(engine));
  }
  int final_hops = 0;
  for (int i = 0; i < n; ++i) {
    engine.spawn("ring" + std::to_string(i), [&, i](Context& ctx) {
      const int rounds = laps + (i == 0 ? 1 : 0);
      for (int r = 0; r < rounds; ++r) {
        if (i == 0 && r == 0) {
          boxes[1]->put(1);  // inject the token
          continue;
        }
        const int hops = boxes[static_cast<std::size_t>(i)]->get(ctx);
        if (i == 0 && r == rounds - 1) {
          final_hops = hops;
          return;
        }
        ctx.wait_for(10);
        boxes[static_cast<std::size_t>((i + 1) % n)]->put(hops + 1);
      }
    });
  }
  engine.run();
  EXPECT_EQ(final_hops, n * laps);
  EXPECT_GT(engine.events_executed(), static_cast<std::uint64_t>(n * laps));
}

TEST(EngineStress, RandomWorkloadIsDeterministic) {
  auto run_once = [] {
    Engine engine;
    util::Rng rng(12345);
    Semaphore sem(engine, 3);
    std::uint64_t checksum = 0;
    for (int i = 0; i < 60; ++i) {
      const auto start = static_cast<SimDuration>(rng.next_below(10'000));
      const auto work = static_cast<SimDuration>(1 + rng.next_below(5'000));
      engine.spawn("w" + std::to_string(i), [&, start, work, i](Context& ctx) {
        ctx.wait_for(start);
        sem.acquire(ctx);
        ctx.wait_for(work);
        checksum ^= ctx.now() * static_cast<std::uint64_t>(i + 1);
        sem.release();
      });
    }
    engine.run();
    return std::pair(checksum, engine.now());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(EngineStress, TenThousandProcessesSteadyState) {
  // Two identical waves of processes on one engine. The second wave must
  // run entirely out of recycled resources: no new event-pool chunks, no
  // new coroutine stacks, no heap-boxed callbacks, and no growth in the
  // live-event high-water mark — the "zero allocations per event in steady
  // state" contract of the pooled queue.
  Engine engine;
  // ThreadSanitizer gives each live coroutine a fiber that costs ~0.9 MB
  // of its own state and counts as a thread (the runtime dies past 8128),
  // so its build runs a tenth of the processes.
#if defined(__SANITIZE_THREAD__)
  const int n = 1'000;
#else
  const int n = 10'000;
#endif

  std::uint64_t done = 0;
  const auto wave = [&](int salt) {
    for (int i = 0; i < n; ++i) {
      engine.spawn("p" + std::to_string(salt) + "-" + std::to_string(i),
                   [&done, i, salt](Context& ctx) {
                     for (int hop = 0; hop < 4; ++hop) {
                       ctx.wait_for(1 + (i * 7 + salt + hop) % 97);
                     }
                     ctx.yield();
                     ++done;
                   });
    }
    engine.run();
  };

  // Earlier engines in this process may have left stacks in the shared
  // pool; wave 0 maps only what they do not cover.
  const std::size_t pooled_before = StackPool::shared().free_count();
  wave(0);
  EXPECT_EQ(done, static_cast<std::uint64_t>(n));
  const EventQueue::Stats after_first = engine.event_stats();
  const std::uint64_t stacks_first = engine.stacks_created();
  EXPECT_EQ(after_first.heap_fallbacks, 0u);
  EXPECT_EQ(after_first.live, 0u);

  engine.reset_event_high_water();
  wave(1);
  EXPECT_EQ(done, static_cast<std::uint64_t>(2 * n));
  const EventQueue::Stats after_second = engine.event_stats();
  EXPECT_EQ(after_second.pool_nodes, after_first.pool_nodes);
  EXPECT_LE(after_second.high_water, after_first.high_water);
  EXPECT_EQ(after_second.heap_fallbacks, 0u);
  EXPECT_EQ(engine.stacks_created(), stacks_first);
  EXPECT_GE(stacks_first + pooled_before, static_cast<std::uint64_t>(n));
}

TEST(EngineStress, DeepEventChains) {
  // 100k chained events: the queue must not degrade or overflow.
  Engine engine;
  std::uint64_t count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100'000) engine.schedule_in(1, chain);
  };
  engine.schedule_at(0, chain);
  engine.run();
  EXPECT_EQ(count, 100'000u);
  EXPECT_EQ(engine.now(), 99'999u);
}

}  // namespace
}  // namespace dacc::sim
