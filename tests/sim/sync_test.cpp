#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dacc::sim {
namespace {

TEST(Mailbox, DeliversInFifoOrder) {
  Engine engine;
  Mailbox<int> box(engine);
  std::vector<int> got;
  engine.spawn("rx", [&](Context& ctx) {
    for (int i = 0; i < 3; ++i) got.push_back(box.get(ctx));
  });
  engine.spawn("tx", [&](Context& ctx) {
    ctx.wait_for(10);
    box.put(1);
    box.put(2);
    box.put(3);
  });
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, ReceiverBlocksUntilMessage) {
  Engine engine;
  Mailbox<int> box(engine);
  SimTime got_at = 0;
  engine.spawn("rx", [&](Context& ctx) {
    (void)box.get(ctx);
    got_at = ctx.now();
  });
  engine.spawn("tx", [&](Context& ctx) {
    ctx.wait_for(500);
    box.put(7);
  });
  engine.run();
  EXPECT_EQ(got_at, 500u);
}

TEST(Mailbox, TryGetDoesNotBlock) {
  Engine engine;
  Mailbox<int> box(engine);
  engine.spawn("p", [&](Context&) {
    EXPECT_FALSE(box.try_get().has_value());
    box.put(42);
    auto v = box.try_get();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
  });
  engine.run();
}

TEST(Mailbox, MultipleReceiversServedFifo) {
  Engine engine;
  Mailbox<int> box(engine);
  std::vector<std::string> served;
  for (int r = 0; r < 3; ++r) {
    engine.spawn("rx" + std::to_string(r), [&, r](Context& ctx) {
      const int v = box.get(ctx);
      served.push_back("rx" + std::to_string(r) + ":" + std::to_string(v));
    });
  }
  engine.spawn("tx", [&](Context& ctx) {
    for (int i = 0; i < 3; ++i) {
      ctx.wait_for(10);
      box.put(i);
    }
  });
  engine.run();
  EXPECT_EQ(served, (std::vector<std::string>{"rx0:0", "rx1:1", "rx2:2"}));
}

TEST(Semaphore, LimitsConcurrency) {
  Engine engine;
  Semaphore sem(engine, 2);
  int active = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    engine.spawn("w" + std::to_string(i), [&](Context& ctx) {
      sem.acquire(ctx);
      ++active;
      peak = std::max(peak, active);
      ctx.wait_for(100);
      --active;
      sem.release();
    });
  }
  engine.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
}

TEST(Semaphore, TryAcquire) {
  Engine engine;
  Semaphore sem(engine, 1);
  engine.spawn("p", [&](Context&) {
    EXPECT_TRUE(sem.try_acquire());
    EXPECT_FALSE(sem.try_acquire());
    sem.release();
    EXPECT_TRUE(sem.try_acquire());
    sem.release();
  });
  engine.run();
}

TEST(Completion, ReleasesAllWaiters) {
  Engine engine;
  Completion done(engine);
  std::vector<SimTime> woke;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("w" + std::to_string(i), [&](Context& ctx) {
      done.wait(ctx);
      woke.push_back(ctx.now());
    });
  }
  engine.spawn("signaller", [&](Context& ctx) {
    ctx.wait_for(250);
    done.complete();
  });
  engine.run();
  ASSERT_EQ(woke.size(), 3u);
  for (SimTime t : woke) EXPECT_EQ(t, 250u);
}

TEST(Completion, WaitAfterCompleteReturnsImmediately) {
  Engine engine;
  Completion done(engine);
  engine.spawn("p", [&](Context& ctx) {
    done.complete();
    const SimTime before = ctx.now();
    done.wait(ctx);
    EXPECT_EQ(ctx.now(), before);
  });
  engine.run();
}

TEST(Completion, WaitUntilReturnsFalseAtTheDeadline) {
  Engine engine;
  Completion done(engine);
  engine.spawn("p", [&](Context& ctx) {
    EXPECT_FALSE(done.wait_until(ctx, 1'000));
    EXPECT_EQ(ctx.now(), 1'000u);
    EXPECT_EQ(done.waiters().waiting(), 0u);
    EXPECT_FALSE(done.wait_until(ctx, 500));  // already past: no wait
    EXPECT_EQ(ctx.now(), 1'000u);
  });
  engine.run();
}

TEST(Completion, LaterCompletionWakesTheWaitersThatStayed) {
  // w1 and w3 wait for good; w0, the oldest, gives up at 1,000 and w2 at
  // 2,000. The completion still wakes w1 and w3, in the order they began
  // waiting.
  Engine engine;
  Completion done(engine);
  const SimTime deadlines[] = {1'000, kSimTimeNever, 2'000, kSimTimeNever};
  struct Woke {
    int waiter;
    SimTime at;
    bool completed;
    bool operator==(const Woke&) const = default;
  };
  std::vector<Woke> woke;
  for (int i = 0; i < 4; ++i) {
    engine.spawn("w" + std::to_string(i), [&, i](Context& ctx) {
      ctx.wait_for(10 * static_cast<SimDuration>(i));
      const bool completed = done.wait_until(ctx, deadlines[i]);
      woke.push_back({i, ctx.now(), completed});
    });
  }
  engine.spawn("signaller", [&](Context& ctx) {
    ctx.wait_for(5'000);
    EXPECT_EQ(done.waiters().waiting(), 2u);
    done.complete();
  });
  engine.run();
  EXPECT_EQ(woke, (std::vector<Woke>{{0, 1'000, false},
                                     {2, 2'000, false},
                                     {1, 5'000, true},
                                     {3, 5'000, true}}));
}

TEST(Completion, StrayDeadlineWakeMovesNoSimulatedTime) {
  // p's first wait ends early, so its deadline timer fires later, as a
  // stray wake while p waits on a second completion. p must stay queued
  // in its place and wake exactly when that completion does.
  Engine engine;
  Completion first(engine);
  Completion second(engine);
  std::vector<int> order;
  SimTime p_woke = 0;
  engine.spawn("p", [&](Context& ctx) {
    EXPECT_TRUE(first.wait_until(ctx, 10'000));
    EXPECT_EQ(ctx.now(), 1'000u);
    second.wait(ctx);
    p_woke = ctx.now();
    order.push_back(0);
  });
  engine.spawn("q", [&](Context& ctx) {
    ctx.wait_for(2'000);
    second.wait(ctx);
    order.push_back(1);
  });
  engine.spawn("signaller", [&](Context& ctx) {
    ctx.wait_for(1'000);
    first.complete();
    ctx.wait_for(19'000);
    second.complete();
  });
  engine.run();
  EXPECT_EQ(p_woke, 20'000u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(engine.now(), 20'000u);
}

TEST(WaitQueue, NotifyOneWakesInFifoOrder) {
  Engine engine;
  WaitQueue q(engine);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("w" + std::to_string(i), [&, i](Context& ctx) {
      q.wait(ctx);
      order.push_back(i);
    });
  }
  engine.spawn("n", [&](Context& ctx) {
    ctx.wait_for(10);
    EXPECT_EQ(q.waiting(), 3u);
    q.notify_one();
    ctx.wait_for(10);
    q.notify_all();
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace dacc::sim
