// The in-place timed wait (DESIGN.md §5.1) against the worker pool. On the
// serial loop, a wait_until() whose resume would be the next event popped
// moves the clock without a stack switch; the pool has no such path, so it
// is the reference. Seeded random models mix timed waits, yields, posts
// across nodes into mailboxes, and wakes of suspended processes. Each runs
// on the coroutine backend's serial loop and on the parallel backend's
// worker pool, and both must log the same (time, process, step) sequence
// and count the same events and process switches: an in-place wait still
// counts as the resume event and the slice it stands for.
//
// scripts/check_tsan.sh reruns this suite with a four-worker pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace dacc::sim {
namespace {

struct Entry {
  SimTime time = 0;
  int step = 0;
  std::uint64_t value = 0;
  bool operator==(const Entry&) const = default;
};

struct Outcome {
  std::vector<std::vector<Entry>> logs;  ///< one per process, spawn order
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  std::uint64_t fast_forwards = 0;
  bool on_pool = false;
};

/// Per node: a mailbox server and a sleeper, both daemons, and one to
/// three workers that take random steps. Every piece of state is touched
/// only from its node's events: a worker logs into its own log, a mailbox
/// is filled by events posted to its node, and a sleeper is reached
/// through Engine::wake, so the model is legal on the pool.
Outcome run_model(std::uint64_t seed, bool pool) {
  std::mt19937_64 shape(seed);
  const int nodes = 2 + static_cast<int>(shape() % 4);
  const SimDuration lookahead = SimDuration{5} << (shape() % 3);
  Engine engine(pool ? ExecBackend::kParallel : ExecBackend::kCoroutine,
                /*shards=*/nodes);
  engine.set_node_count(nodes);
  engine.set_lookahead(lookahead);

  std::vector<int> workers(static_cast<std::size_t>(nodes));
  int processes = 2 * nodes;
  for (int& w : workers) {
    w = 1 + static_cast<int>(shape() % 3);
    processes += w;
  }
  // One log per process, in spawn order; a process writes only its own.
  Outcome out;
  out.logs.resize(static_cast<std::size_t>(processes));
  std::vector<Entry>* next_log = out.logs.data();
  std::vector<std::unique_ptr<Mailbox<std::uint64_t>>> mailboxes;
  std::vector<Process*> sleepers;
  for (int n = 0; n < nodes; ++n) {
    mailboxes.push_back(std::make_unique<Mailbox<std::uint64_t>>(engine));
    Mailbox<std::uint64_t>& mb = *mailboxes.back();
    std::vector<Entry>* server_log = next_log++;
    engine.set_daemon(engine.spawn_on(n, "server", [&mb, server_log](
                                                       Context& ctx) {
      for (int step = 0;; ++step) {
        const std::uint64_t v = mb.get(ctx);
        server_log->push_back({ctx.now(), step, v});
        if (v % 2 == 1) ctx.wait_for(static_cast<SimDuration>(1 + v % 7));
      }
    }));
    std::vector<Entry>* sleeper_log = next_log++;
    Process& sleeper = engine.spawn_on(n, "sleeper", [sleeper_log](
                                                         Context& ctx) {
      for (int step = 0;; ++step) {
        ctx.suspend();
        sleeper_log->push_back({ctx.now(), step, 0});
        if (step % 3 == 0) ctx.wait_for(2);
      }
    });
    engine.set_daemon(sleeper);
    sleepers.push_back(&sleeper);
  }
  for (int n = 0; n < nodes; ++n) {
    for (int w = 0; w < workers[static_cast<std::size_t>(n)]; ++w) {
      std::vector<Entry>* log = next_log++;
      const std::uint64_t worker_seed = shape();
      engine.spawn_on(n, "worker", [&, n, log, worker_seed](Context& ctx) {
        std::mt19937_64 rng(worker_seed);
        const int steps = 5 + static_cast<int>(rng() % 20);
        for (int step = 0; step < steps; ++step) {
          const std::uint64_t v = rng();
          const auto to = static_cast<std::int32_t>(v % nodes);
          switch (rng() % 6) {
            case 0:
            case 1: {
              // Durations that tie with the lookahead, with each other and
              // with the other nodes' waits, and some that do not.
              const SimDuration ds[] = {1, 2, 3, lookahead, 2 * lookahead,
                                        static_cast<SimDuration>(v % 50)};
              ctx.wait_for(ds[rng() % 6]);
              break;
            }
            case 2: {
              Mailbox<std::uint64_t>& mb =
                  *mailboxes[static_cast<std::size_t>(to)];
              ctx.engine().post(to, ctx.now() + v % 30,
                                [&mb, v] { mb.put(v); });
              break;
            }
            case 3:
              ctx.engine().wake(*sleepers[static_cast<std::size_t>(to)]);
              break;
            case 4:
              ctx.yield();
              break;
            default:
              mailboxes[static_cast<std::size_t>(n)]->put(v);
              break;
          }
          log->push_back({ctx.now(), step, v});
        }
      });
    }
  }
  // Queued under both backends, so the event counts stay comparable; only
  // the parallel engine moves to its pool.
  testing::widen_past_pool_crossover(engine);
  engine.run();
  out.events = engine.events_executed();
  out.switches = engine.process_switches();
  out.fast_forwards = engine.fast_forwards();
  out.on_pool = testing::ran_all_eras_on_pool(engine);
  return out;
}

TEST(InPlaceWait, SerialLoopMatchesThePoolOnRandomModels) {
  std::uint64_t in_place = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Outcome serial = run_model(seed, /*pool=*/false);
    const Outcome pool = run_model(seed, /*pool=*/true);
    ASSERT_TRUE(pool.on_pool);
    EXPECT_FALSE(serial.on_pool);
    EXPECT_EQ(pool.fast_forwards, 0u);
    ASSERT_EQ(serial.logs, pool.logs);
    ASSERT_EQ(serial.events, pool.events);
    ASSERT_EQ(serial.switches, pool.switches);
    in_place += serial.fast_forwards;
  }
  // The models exercise the fast path, not only the queued one.
  EXPECT_GT(in_place, 200u);
}

}  // namespace
}  // namespace dacc::sim
