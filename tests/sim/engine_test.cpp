#include "sim/engine.hpp"

#include <gtest/gtest.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/prctl.h>
#include <sys/syscall.h>

#include <cerrno>
#include <cfenv>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
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
        std::_Exit(threw ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace dacc::sim
