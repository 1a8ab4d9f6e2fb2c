#include "sim/engine.hpp"

#include <gtest/gtest.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>

#include <algorithm>
#include <cerrno>
#include <cfenv>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/pool.hpp"
#include "sim/stack_pool.hpp"

namespace dacc::sim {
namespace {

// Makes every later `nr` system call of this process fail with `err`. For
// death-test children only: a seccomp filter cannot be removed.
void fail_syscall(long nr, int err) {
  sock_filter filter[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, static_cast<std::uint32_t>(nr), 0,
               1),
      BPF_STMT(BPF_RET | BPF_K,
               SECCOMP_RET_ERRNO | (static_cast<std::uint32_t>(err) &
                                    SECCOMP_RET_DATA)),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
  };
  sock_fprog prog{static_cast<unsigned short>(std::size(filter)), filter};
  if (::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0 ||
      ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &prog) != 0) {
    std::_Exit(2);
  }
}

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0u);
}

TEST(Engine, CallbackRunsAtScheduledTime) {
  Engine engine;
  SimTime observed = kSimTimeNever;
  engine.schedule_at(1500, [&] { observed = engine.now(); });
  engine.run();
  EXPECT_EQ(observed, 1500u);
  EXPECT_EQ(engine.now(), 1500u);
}

TEST(Engine, CallbacksRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(300, [&] { order.push_back(3); });
  engine.schedule_at(100, [&] { order.push_back(1); });
  engine.schedule_at(200, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SimultaneousEventsRunInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule_at(100, [&] {
    EXPECT_THROW(engine.schedule_at(50, [] {}), SimError);
  });
  engine.run();
}

TEST(Engine, ProcessWaitForAdvancesClock) {
  Engine engine;
  SimTime after = 0;
  engine.spawn("p", [&](Context& ctx) {
    ctx.wait_for(2500);
    after = ctx.now();
  });
  engine.run();
  EXPECT_EQ(after, 2500u);
}

TEST(Engine, WaitUntilPastIsNoop) {
  Engine engine;
  engine.schedule_at(1000, [] {});
  engine.spawn("p", [&](Context& ctx) {
    ctx.wait_for(5000);
    const SimTime before = ctx.now();
    ctx.wait_until(10);  // already past
    EXPECT_EQ(ctx.now(), before);
  });
  engine.run();
}

TEST(Engine, NestedWaitsAccumulate) {
  Engine engine;
  engine.spawn("p", [&](Context& ctx) {
    for (int i = 0; i < 10; ++i) ctx.wait_for(100);
    EXPECT_EQ(ctx.now(), 1000u);
  });
  engine.run();
}

TEST(Engine, TwoProcessesInterleaveDeterministically) {
  Engine engine;
  std::vector<std::string> trace;
  engine.spawn("a", [&](Context& ctx) {
    for (int i = 0; i < 3; ++i) {
      ctx.wait_for(100);
      trace.push_back("a" + std::to_string(ctx.now()));
    }
  });
  engine.spawn("b", [&](Context& ctx) {
    for (int i = 0; i < 3; ++i) {
      ctx.wait_for(150);
      trace.push_back("b" + std::to_string(ctx.now()));
    }
  });
  engine.run();
  // At t=300 both processes resume; ties resolve by schedule order, and b's
  // resume was scheduled (at t=150) before a's (at t=200).
  EXPECT_EQ(trace, (std::vector<std::string>{"a100", "b150", "a200", "b300",
                                             "a300", "b450"}));
}

TEST(Engine, WakePermitsAreBanked) {
  Engine engine;
  Process* sleeper = nullptr;
  int wakeups = 0;
  sleeper = &engine.spawn("sleeper", [&](Context& ctx) {
    ctx.wait_for(100);  // let the waker run first
    // Two permits were banked while we were sleeping; both suspends return
    // immediately without blocking.
    ctx.suspend();
    ++wakeups;
    ctx.suspend();
    ++wakeups;
  });
  engine.spawn("waker", [&](Context& ctx) {
    ctx.engine().wake(*sleeper);
    ctx.engine().wake(*sleeper);
    (void)ctx;
  });
  engine.run();
  EXPECT_EQ(wakeups, 2);
}

TEST(Engine, SuspendBlocksUntilWake) {
  Engine engine;
  Process* sleeper = nullptr;
  SimTime woke_at = 0;
  sleeper = &engine.spawn("sleeper", [&](Context& ctx) {
    ctx.suspend();
    woke_at = ctx.now();
  });
  engine.spawn("waker", [&](Context& ctx) {
    ctx.wait_for(777);
    ctx.engine().wake(*sleeper);
  });
  engine.run();
  EXPECT_EQ(woke_at, 777u);
}

TEST(Engine, YieldRunsAfterSameTimeEvents) {
  Engine engine;
  std::vector<int> order;
  engine.spawn("p", [&](Context& ctx) {
    ctx.engine().schedule_at(ctx.now(), [&] { order.push_back(1); });
    order.push_back(0);
    ctx.yield();
    order.push_back(2);
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// A timed wait whose resume would be the next event run() pops runs in
// place (DESIGN.md §5.1): the clock moves without a stack switch, and the
// resume still counts as one event and one slice.
TEST(InPlaceWait, LoneSleeperWaitsInPlace) {
  Engine engine;
  std::vector<SimTime> woke;
  engine.spawn("p", [&](Context& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.wait_for(5);
      woke.push_back(ctx.now());
    }
  });
  engine.run();
  EXPECT_EQ(woke, (std::vector<SimTime>{5, 10, 15, 20, 25, 30, 35, 40, 45,
                                        50}));
  EXPECT_EQ(engine.now(), 50u);
  EXPECT_EQ(engine.fast_forwards(), 10u);
  // The start event and ten resumes, each a slice.
  EXPECT_EQ(engine.events_executed(), 11u);
  EXPECT_EQ(engine.process_switches(), 11u);
}

TEST(InPlaceWait, EarlierEventRunsFirst) {
  Engine engine;
  std::vector<SimTime> event_at;
  std::vector<SimTime> woke;
  engine.schedule_at(5, [&] { event_at.push_back(engine.now()); });
  engine.spawn("p", [&](Context& ctx) {
    ctx.wait_for(10);  // the event at 5 is due first: a queued resume
    woke.push_back(ctx.now());
    EXPECT_EQ(event_at, (std::vector<SimTime>{5}));
    ctx.wait_for(10);  // nothing else queued: in place
    woke.push_back(ctx.now());
  });
  engine.run();
  EXPECT_EQ(woke, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(engine.fast_forwards(), 1u);
  EXPECT_EQ(engine.events_executed(), 4u);  // event, start, two resumes
  EXPECT_EQ(engine.process_switches(), 3u);
}

TEST(InPlaceWait, SameTimeTieTakesTheQueuedPath) {
  // An event the other node scheduled is due when the process on `home`
  // wakes. Same-time keys order by the scheduling node, so the lower node
  // runs first either way; the tie is never run in place.
  for (const std::int32_t home : {0, 1}) {
    SCOPED_TRACE("process on node " + std::to_string(home));
    Engine engine;
    engine.set_node_count(2);
    std::string order;
    engine.post(1 - home, 0, [&] {
      engine.schedule_at(10, [&] { order += 'e'; });
    });
    engine.spawn_on(home, "p", [&](Context& ctx) {
      ctx.wait_until(10);
      order += 'p';
      EXPECT_EQ(ctx.now(), 10u);
    });
    engine.run();
    EXPECT_EQ(order, home == 1 ? "ep" : "pe");
    EXPECT_EQ(engine.fast_forwards(), 0u);
    EXPECT_EQ(engine.events_executed(), 4u);  // post, event, start, resume
    EXPECT_EQ(engine.process_switches(), 2u);
  }
}

TEST(InPlaceWait, RunUntilNeverRunsAProcessPastItsLimit) {
  Engine engine;
  std::vector<SimTime> woke;
  engine.spawn("p", [&](Context& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.wait_for(3);
      woke.push_back(ctx.now());
    }
  });
  EXPECT_TRUE(engine.run_until(10));
  EXPECT_EQ(woke, (std::vector<SimTime>{3, 6, 9}));
  EXPECT_EQ(engine.now(), 9u);  // the resume at 12 is still queued
  EXPECT_EQ(engine.fast_forwards(), 0u);
  EXPECT_EQ(engine.events_executed(), 4u);
  // run() pops the queued resume at 12; the six waits after it run in
  // place.
  engine.run();
  EXPECT_EQ(woke.size(), 10u);
  EXPECT_EQ(woke.back(), 30u);
  EXPECT_EQ(engine.fast_forwards(), 6u);
  EXPECT_EQ(engine.events_executed(), 11u);
  EXPECT_EQ(engine.process_switches(), 11u);
}

TEST(InPlaceWait, YieldAlwaysSwitches) {
  Engine engine;
  engine.spawn("p", [](Context& ctx) {
    for (int i = 0; i < 5; ++i) ctx.yield();
  });
  engine.run();
  EXPECT_EQ(engine.fast_forwards(), 0u);
  EXPECT_EQ(engine.events_executed(), 6u);
  EXPECT_EQ(engine.process_switches(), 6u);
}

TEST(Engine, DeadlockedProcessIsReported) {
  Engine engine;
  engine.spawn("stuck", [](Context& ctx) { ctx.suspend(); });
  EXPECT_THROW(engine.run(), SimError);
}

TEST(Engine, DaemonMayRemainBlocked) {
  Engine engine;
  Process& d = engine.spawn("daemon", [](Context& ctx) {
    while (true) ctx.suspend();
  });
  engine.set_daemon(d);
  engine.spawn("worker", [](Context& ctx) { ctx.wait_for(10); });
  EXPECT_NO_THROW(engine.run());
}

TEST(Engine, ProcessExceptionSurfacesAsSimError) {
  Engine engine;
  engine.spawn("bad", [](Context& ctx) {
    ctx.wait_for(1);
    throw std::runtime_error("boom");
  });
  try {
    engine.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bad"), std::string::npos);
  }
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(100, [&] { ++fired; });
  engine.schedule_at(200, [&] { ++fired; });
  EXPECT_TRUE(engine.run_until(150));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.run_until(1000));
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilThenEarlierEventRunsFirst) {
  // run_until() stops after peeking at the event at 200. Work scheduled
  // between the last executed event (100) and that peeked minimum must
  // still be accepted and run first: on the serial loop, and on the worker
  // pool, whose coordinator peeks the band and shard queues the same way.
  for (const bool pool : {false, true}) {
    SCOPED_TRACE(pool ? "worker pool" : "serial loop");
    Engine engine(pool ? ExecBackend::kParallel : ExecBackend::kCoroutine, 4);
    engine.set_node_count(8);
    engine.set_lookahead(10);
    if (pool) testing::widen_past_pool_crossover(engine);
    std::vector<SimTime> ran;
    engine.post(1, 100, [&] { ran.push_back(engine.now()); });
    engine.post(1, 200, [&] { ran.push_back(engine.now()); });
    EXPECT_TRUE(engine.run_until(150));
    engine.schedule_at(170, [&] { ran.push_back(engine.now()); });
    engine.spawn_on(1, "p", [&](Context& ctx) {
      ctx.wait_until(160);
      ran.push_back(ctx.now());
    });
    engine.run();
    EXPECT_EQ(ran, (std::vector<SimTime>{100, 160, 170, 200}));
    EXPECT_EQ(testing::ran_all_eras_on_pool(engine), pool);
  }
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(5000);
  EXPECT_EQ(engine.now(), 5000u);
}

TEST(Engine, SpawnFromProcessContext) {
  Engine engine;
  SimTime child_ran_at = kSimTimeNever;
  engine.spawn("parent", [&](Context& ctx) {
    ctx.wait_for(100);
    ctx.engine().spawn("child", [&](Context& cctx) {
      child_ran_at = cctx.now();
    });
    ctx.wait_for(100);
  });
  engine.run();
  EXPECT_EQ(child_ran_at, 100u);
}

TEST(Engine, EventsExecutedCounts) {
  Engine engine;
  for (int i = 0; i < 7; ++i) engine.schedule_at(i, [] {});
  engine.run();
  EXPECT_EQ(engine.events_executed(), 7u);
}

TEST(Engine, BlockingOutsideProcessContextThrows) {
  Engine engine;
  Process& p = engine.spawn("p", [](Context& ctx) { ctx.wait_for(1); });
  Context bogus(engine, p);
  engine.schedule_at(0, [&] { EXPECT_THROW(bogus.suspend(), SimError); });
  engine.run();
}

TEST(Engine, ShutdownUnwindsBlockedProcessesCleanly) {
  bool unwound = false;
  {
    Engine engine;
    Process& d = engine.spawn("svc", [&](Context& ctx) {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } guard{&unwound};
      while (true) ctx.suspend();
    });
    engine.set_daemon(d);
    engine.spawn("w", [](Context& ctx) { ctx.wait_for(5); });
    engine.run();
  }  // ~Engine delivers Shutdown to the blocked daemon
  EXPECT_TRUE(unwound);
}

// Determinism: identical scenarios produce identical event traces.
TEST(Engine, DeterministicReplay) {
  auto run_once = [] {
    Engine engine;
    std::vector<std::string> trace;
    Process* svc = nullptr;
    svc = &engine.spawn("svc", [&](Context& ctx) {
      for (int i = 0; i < 5; ++i) {
        ctx.suspend();
        trace.push_back("svc@" + std::to_string(ctx.now()));
        ctx.wait_for(13);
      }
    });
    engine.spawn("gen", [&](Context& ctx) {
      for (int i = 0; i < 5; ++i) {
        ctx.wait_for(31);
        ctx.engine().wake(*svc);
        trace.push_back("gen@" + std::to_string(ctx.now()));
      }
    });
    engine.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// A process switch stays in user space. swapcontext calls rt_sigprocmask on
// every swap; with that call failing, all 10,000 yields must still run.
TEST(Engine, StrandSwitchMakesNoSystemCall) {
  EXPECT_EXIT(
      {
        fail_syscall(SYS_rt_sigprocmask, EPERM);
        Engine engine(ExecBackend::kCoroutine);
        int yields = 0;
        engine.spawn("p", [&](Context& ctx) {
          for (int i = 0; i < 10'000; ++i) {
            ctx.yield();
            ++yields;
          }
        });
        engine.run();
        std::_Exit(yields == 10'000 && engine.process_switches() == 10'001
                       ? 0
                       : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// A new strand's entry frame leaves its body 16-byte aligned, and every
// switch keeps each side's rounding mode (x87 control word and MXCSR) its
// own: a process that rounds upward does not leak that to the engine or to
// another process.
TEST(Engine, StrandKeepsStackAlignmentAndFpControl) {
  Engine engine(ExecBackend::kCoroutine);
  // The volatile reads keep the compiler from assuming the declared
  // alignment (and the default rounding mode) instead of measuring them.
  auto misalignment = [] {
    alignas(16) char local[16] = {};
    volatile std::uintptr_t at = reinterpret_cast<std::uintptr_t>(local);
    return at % 16;
  };
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest_third = one / three;

  std::vector<std::uintptr_t> offsets;
  int upward_mode = -1;
  double upward_third = 0;
  std::vector<int> other_modes;
  int engine_mode = -1;
  engine.spawn("upward", [&](Context& ctx) {
    offsets.push_back(misalignment());
    std::fesetround(FE_UPWARD);
    ctx.yield();
    offsets.push_back(misalignment());
    upward_mode = std::fegetround();
    upward_third = one / three;
  });
  engine.spawn("default", [&](Context& ctx) {
    other_modes.push_back(std::fegetround());
    ctx.yield();
    other_modes.push_back(std::fegetround());
  });
  engine.schedule_at(0, [&] { engine_mode = std::fegetround(); });
  engine.run();

  EXPECT_EQ(offsets, (std::vector<std::uintptr_t>{0, 0}));
  EXPECT_EQ(upward_mode, FE_UPWARD);
  EXPECT_GT(upward_third, nearest_third);
  EXPECT_EQ(other_modes, (std::vector<int>{FE_TONEAREST, FE_TONEAREST}));
  EXPECT_EQ(engine_mode, FE_TONEAREST);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// Protecting the guard page splits the stack's mapping, which can fail near
// vm.max_map_count; the pool must then refuse the stack, not hand it out
// unguarded.
TEST(StackPool, AcquireThrowsWhenGuardPageFails) {
  EXPECT_EXIT(
      {
        StackPool pool;
        fail_syscall(SYS_mprotect, ENOMEM);
        bool threw = false;
        try {
          pool.acquire();
        } catch (const std::bad_alloc&) {
          threw = true;
        }
        // A refused stack was never mapped, so it is not counted.
        std::_Exit(threw && pool.created() == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// Spawns `n` processes that each yield once, so all `n` hold a stack at the
// same time, and counts the ones that finish in `done`.
void spawn_yielders(Engine& engine, int n, int& done) {
  for (int i = 0; i < n; ++i) {
    engine.spawn("p" + std::to_string(i), [&done](Context& ctx) {
      ctx.yield();
      ++done;
    });
  }
}

// Stacks outlive their engine: once one engine's processes have returned
// theirs, a later engine of the same size maps none.
TEST(StackPool, WarmEngineMapsNoStack) {
  int done = 0;
  {
    Engine first;
    spawn_yielders(first, 256, done);
    first.run();
  }
  Engine second;
  spawn_yielders(second, 256, done);
  second.run();
  EXPECT_EQ(done, 2 * 256);
  EXPECT_EQ(second.stacks_created(), 0u);
}

// Engines on two threads draw from and return to the one pool: warmed by
// an engine of 400 live processes, two engines of 200 running at once map
// nothing. scripts/check_tsan.sh runs this on real threads.
TEST(StackPool, EnginesOnTwoThreadsShareTheWarmPool) {
  int warm_done = 0;
  {
    Engine warm;
    spawn_yielders(warm, 400, warm_done);
    warm.run();
  }
  EXPECT_EQ(warm_done, 400);
  int done[2] = {0, 0};
  std::uint64_t mapped[2] = {1, 1};
  const auto run_engine = [&done, &mapped](int i) {
    Engine engine;
    spawn_yielders(engine, 200, done[i]);
    engine.run();
    mapped[i] = engine.stacks_created();
  };
  std::thread a(run_engine, 0);
  std::thread b(run_engine, 1);
  a.join();
  b.join();
  EXPECT_EQ(done[0], 200);
  EXPECT_EQ(done[1], 200);
  EXPECT_EQ(mapped[0], 0u);
  EXPECT_EQ(mapped[1], 0u);
}

// A destroyed engine trims the pool to kMaxFree: the longest-free stacks
// beyond the cap are unmapped, the rest stay for the next engine.
TEST(StackPool, TrimKeepsTheCapAndUnmapsTheRest) {
  constexpr std::size_t kExcess = 3;
  StackPool pool;
  std::vector<StackPool::Stack> stacks;
  for (std::size_t i = 0; i < StackPool::kMaxFree + kExcess; ++i) {
    stacks.push_back(pool.acquire());
  }
  for (const StackPool::Stack& s : stacks) pool.release(s);
  EXPECT_EQ(pool.free_count(), StackPool::kMaxFree + kExcess);
  pool.trim();
  EXPECT_EQ(pool.free_count(), StackPool::kMaxFree);
  EXPECT_EQ(pool.created(), StackPool::kMaxFree + kExcess);
  // msync fails with ENOMEM on a range that is no longer mapped.
  std::vector<bool> unmapped;
  for (const StackPool::Stack& s : stacks) {
    unmapped.push_back(::msync(s.map_base, s.map_size, MS_ASYNC) != 0 &&
                       errno == ENOMEM);
  }
  std::vector<bool> expected(stacks.size(), false);
  std::fill_n(expected.begin(), kExcess, true);
  EXPECT_EQ(unmapped, expected);
}

// Engine teardown is what trims the shared pool: stacks a 10,000-process
// engine returned do not stay mapped beyond the cap once it is gone.
TEST(StackPool, DestroyedEngineTrimsTheSharedPool) {
  StackPool& shared = StackPool::shared();
  std::vector<StackPool::Stack> stacks;
  for (std::size_t i = 0; i < StackPool::kMaxFree + 3; ++i) {
    stacks.push_back(shared.acquire());
  }
  for (const StackPool::Stack& s : stacks) shared.release(s);
  EXPECT_GT(shared.free_count(), StackPool::kMaxFree);
  { Engine engine; }
  EXPECT_EQ(shared.free_count(), StackPool::kMaxFree);
}

// Recurses until the stack runs out. Every frame writes its own bytes and
// reads them after the call, so nothing folds the recursion into a loop.
[[gnu::noinline]] std::uint64_t recurse(std::uint64_t depth) {
  volatile char frame[256];
  frame[0] = static_cast<char>(depth);
  if (depth == UINT64_MAX) return 0;
  return recurse(depth + 1) + static_cast<std::uint64_t>(frame[0]);
}

// Takes every stack the shared pool holds (what earlier tests left), so
// the pool's next acquire maps a fresh one.
std::vector<StackPool::Stack> take_pooled_stacks() {
  std::vector<StackPool::Stack> held;
  while (StackPool::shared().free_count() > 0) {
    held.push_back(StackPool::shared().acquire());
  }
  return held;
}

// A runaway body dies, whether its stack is freshly mapped or handed down
// from an engine that is gone. The matcher is empty: ASan reports a stack
// overflow, other builds die of SIGSEGV. A child whose stack is not the
// kind under test exits 0, which fails the death test.
TEST(StackPoolDeathTest, GuardStopsAnOverflowOnAFreshStack) {
  EXPECT_DEATH(
      {
        const auto held = take_pooled_stacks();
        Engine engine;
        engine.spawn("runaway", [](Context& ctx) {
          if (ctx.engine().stacks_created() != 1) std::_Exit(0);
          recurse(0);
        });
        engine.run();
      },
      "");
}

TEST(StackPoolDeathTest, GuardStopsAnOverflowOnAReusedStack) {
  EXPECT_DEATH(
      {
        const auto held = take_pooled_stacks();
        {
          Engine first;
          first.spawn("short", [](Context&) {});
          first.run();
        }
        Engine second;
        second.spawn("runaway", [](Context& ctx) {
          if (ctx.engine().stacks_created() != 0) std::_Exit(0);
          recurse(0);
        });
        second.run();
      },
      "");
}

// What stops the overflow above is the guard page, not whatever lies below
// the mapping: a write just under a reused stack's usable range faults.
TEST(StackPoolDeathTest, WriteBelowAReusedStackFaults) {
  StackPool pool;
  pool.release(pool.acquire());
  const StackPool::Stack s = pool.acquire();
  ASSERT_EQ(pool.created(), 1u);
  EXPECT_DEATH(static_cast<volatile char*>(s.base)[-1] = 1, "");
  pool.release(s);
}

}  // namespace
}  // namespace dacc::sim
