// sim::EventQueue against a reference model: seeded streams of pushes,
// peeks, pops, requeues, staged events and node-homed moves, checked
// against a std::set of (time, ord) per queue, plus the monotone-push
// contract and a staging thread racing the owner.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace dacc::sim {
namespace {

using Key = std::pair<SimTime, std::uint64_t>;

/// Counts callables made and destroyed, and records the ords that fired.
struct Tally {
  std::uint64_t made = 0;
  std::uint64_t destroyed = 0;
  std::vector<std::uint64_t> fired;
};

/// A move-only callable that counts its own destruction once, wherever it
/// was moved to. Pad > 0 pushes it past the queue's inline buffer.
template <std::size_t Pad>
class Probe {
 public:
  Probe(Tally* tally, std::uint64_t ord) : tally_(tally), ord_(ord) {
    ++tally_->made;
  }
  Probe(Probe&& o) noexcept : tally_(o.tally_), ord_(o.ord_), armed_(o.armed_) {
    o.armed_ = false;
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (armed_) ++tally_->destroyed;
  }
  void operator()() const { tally_->fired.push_back(ord_); }

 private:
  Tally* tally_;
  std::uint64_t ord_;
  bool armed_ = true;
  std::array<std::byte, Pad> pad_{};
};
static_assert(sizeof(Probe<0>) <= EventQueue::kInlineBytes);
static_assert(sizeof(Probe<160>) > EventQueue::kInlineBytes);

constexpr std::uint64_t kChunk = 256;  // the queue's node-pool chunk

/// What one queue should hold and report.
struct Model {
  std::set<Key> keys;
  SimTime base = 0;  // time of the last pop
  std::uint64_t high_water = 0;
  std::uint64_t pool_nodes = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t free_nodes = 0;  // owner free list
  std::vector<Key> staged;       // not yet absorbed
  std::uint64_t staged_free = 0;
  std::uint64_t staged_pool = 0;       // not yet reported
  std::uint64_t staged_fallbacks = 0;  // not yet reported

  void add(const Key& k) {
    keys.insert(k);
    if (keys.size() > high_water) high_water = keys.size();
  }
  void take_node() {
    if (free_nodes == 0) {
      free_nodes += kChunk;
      pool_nodes += kChunk;
    }
    --free_nodes;
  }
  void take_staged_node() {
    if (staged_free == 0) {
      staged_free += kChunk;
      staged_pool += kChunk;
    }
    --staged_free;
  }
  SimTime staged_min() const {
    SimTime t = kSimTimeNever;
    for (const Key& k : staged) t = std::min(t, k.first);
    return t;
  }
};

std::int32_t node_of(std::uint64_t ord) {
  return static_cast<std::int32_t>(ord >> 48) - 1;
}

void expect_matches(const EventQueue& q, const Model& m) {
  const EventQueue::Stats& s = q.stats();
  EXPECT_EQ(s.live, m.keys.size());
  EXPECT_EQ(s.high_water, m.high_water);
  EXPECT_EQ(s.pool_nodes, m.pool_nodes);
  EXPECT_EQ(s.heap_fallbacks, m.fallbacks);
  EXPECT_EQ(q.empty(), m.keys.empty());
  if (!m.keys.empty()) {
    EXPECT_EQ(q.top_time(), m.keys.begin()->first);
  }
}

/// One seeded stream over a source queue and two receivers. Ops draw a
/// node in -1..3 (ords from per-node counters, so events at one time
/// arrive out of ord order) and a time at the base, near it or far from
/// it, up to the top of the time range. Some streams move the source's
/// node-homed events to the receivers (odd nodes to one, even to the
/// other) partway and then drive all three queues.
void run_stream(std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  util::Rng rng(seed);
  Tally tally;
  std::uint64_t rejected = 0;  // callables refused by a throwing push
  std::array<std::uint64_t, 5> seq{};
  const auto next_ord = [&](std::int32_t node) {
    return (static_cast<std::uint64_t>(node + 1) << 48) |
           ++seq[static_cast<std::size_t>(node + 1)];
  };
  const auto later = [&](SimTime base) -> SimTime {
    static constexpr std::array<SimTime, 6> spans = {
        0, 16, 5'000, 1'000'000'000, SimTime{1} << 62, kSimTimeNever};
    const std::uint64_t pick = rng.next_below(100);
    const std::size_t span = pick < 25   ? 0
                             : pick < 50 ? 1
                             : pick < 75 ? 2
                             : pick < 90 ? 3
                             : pick < 98 ? 4
                                         : 5;
    if (span == 0) return base;
    const SimTime room = kSimTimeNever - base;
    if (room == 0) return base;
    return base + 1 + rng.next_below(std::min(spans[span], room));
  };

  {
    EventQueue src;  // receivers hold its nodes: they die first
    std::array<EventQueue, 2> recv;
    std::array<EventQueue*, 3> queues = {&src, &recv[0], &recv[1]};
    std::array<Model, 3> models;
    bool moved = false;
    const std::uint64_t move_at =
        rng.next_below(2) == 0 ? rng.next_below(300) : ~std::uint64_t{0};

    const auto push = [&](std::size_t qi, SimTime t) {
      const std::int32_t node =
          static_cast<std::int32_t>(rng.next_below(5)) - 1;
      const std::uint64_t ord = next_ord(node);
      Model& m = models[qi];
      m.take_node();
      if (rng.next_below(10) == 0) {
        queues[qi]->push(t, ord, node, Probe<160>(&tally, ord));
        ++m.fallbacks;
      } else {
        queues[qi]->push(t, ord, node, Probe<0>(&tally, ord));
      }
      m.add({t, ord});
    };
    const auto absorb = [&](std::size_t qi) {
      Model& m = models[qi];
      EXPECT_EQ(queues[qi]->absorb_staged(), m.staged.size());
      for (const Key& k : m.staged) m.add(k);
      m.staged.clear();
      m.pool_nodes += m.staged_pool;
      m.staged_pool = 0;
      m.fallbacks += m.staged_fallbacks;
      m.staged_fallbacks = 0;
    };

    const std::uint64_t ops = 50 + rng.next_below(350);
    for (std::uint64_t op = 0; op < ops; ++op) {
      if (op == move_at) {
        src.move_node_homed([&](std::int32_t node) -> EventQueue& {
          return recv[static_cast<std::size_t>(node & 1)];
        });
        std::set<Key> kept;
        for (const Key& k : models[0].keys) {
          const std::int32_t node = node_of(k.second);
          if (node < 0) {
            kept.insert(k);
          } else {
            models[1 + static_cast<std::size_t>(node & 1)].add(k);
          }
        }
        models[0].keys = std::move(kept);
        moved = true;
      }
      const std::size_t qi = moved ? rng.next_below(3) : 0;
      EventQueue& q = *queues[qi];
      Model& m = models[qi];
      const std::uint64_t kind = rng.next_below(100);
      if (kind < 35) {
        push(qi, later(m.base));
      } else if (kind < 45) {
        // Peek without popping, then schedule between the last popped
        // time and the peeked minimum.
        if (m.keys.empty()) continue;
        const SimTime top = q.top_time();
        EXPECT_EQ(top, m.keys.begin()->first);
        const SimTime span = top - m.base;
        push(qi, m.base + (span == kSimTimeNever ? rng.next_u64()
                                                 : rng.next_below(span + 1)));
      } else if (kind < 80) {
        if (m.keys.empty()) continue;
        // A staged event earlier than the next pop must be absorbed
        // first, as the horizon protocol guarantees on the shards.
        if (m.staged_min() < m.keys.begin()->first) absorb(qi);
        const Key want = *m.keys.begin();
        EventQueue::Node* n = q.pop();
        ASSERT_EQ(Key(n->time, n->ord), want);
        m.keys.erase(m.keys.begin());
        m.base = want.first;
        // Cross-queue requeues go from the source to a receiver only, as
        // the engine's promotion does: the source owns the receivers'
        // borrowed nodes and outlives them.
        const std::uint64_t fate = rng.next_below(10);
        const std::size_t other = 1 + rng.next_below(2);
        if (fate == 0) {
          q.requeue(n);
          m.add(want);
        } else if (fate == 1 && moved && qi == 0 &&
                   models[other].base <= want.first) {
          queues[other]->requeue(n);
          models[other].add(want);
        } else {
          q.run_and_recycle(n);
          ++m.free_nodes;
          ASSERT_FALSE(tally.fired.empty());
          EXPECT_EQ(tally.fired.back(), want.second);
        }
      } else if (kind < 88) {
        const SimTime t = later(m.base);
        const std::int32_t node =
            static_cast<std::int32_t>(rng.next_below(5)) - 1;
        const std::uint64_t ord = next_ord(node);
        m.take_staged_node();
        if (rng.next_below(10) == 0) {
          q.stage(t, ord, node, Probe<160>(&tally, ord));
          ++m.staged_fallbacks;
        } else {
          q.stage(t, ord, node, Probe<0>(&tally, ord));
        }
        m.staged.push_back({t, ord});
      } else if (kind < 94) {
        absorb(qi);
      } else if (kind < 96) {
        q.reset_high_water();
        m.high_water = m.keys.size();
      } else if (kind < 98) {
        std::uint64_t homed = 0;
        for (const Key& k : m.keys) homed += node_of(k.second) >= 0 ? 1 : 0;
        EXPECT_EQ(q.node_homed(), homed);
      } else if (m.base > 0) {
        const std::uint64_t ord = next_ord(-1);
        EXPECT_THROW(q.push(m.base - 1, ord, -1, Probe<0>(&tally, ord)),
                     std::logic_error);
        ++rejected;
      }
      expect_matches(q, m);
      if (testing::Test::HasFatalFailure()) return;
    }
    for (std::size_t i = 0; i < queues.size(); ++i) {
      expect_matches(*queues[i], models[i]);
    }
    // Every callable so far was destroyed exactly once: by firing, or by
    // the throwing push that refused it.
    EXPECT_EQ(tally.destroyed, tally.fired.size() + rejected);
  }
  // The queues died with events queued and staged: each of those
  // callables was destroyed exactly once more.
  EXPECT_EQ(tally.destroyed, tally.made);
}

TEST(EventQueue, SeededStreamsMatchTheReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 1'000; ++seed) {
    run_stream(seed);
    if (HasFailure()) return;
  }
}

TEST(EventQueue, PushBeforeTheLastPoppedTimeThrows) {
  Tally tally;
  {
    EventQueue q;
    q.push(100, 1, 0, Probe<0>(&tally, 1));
    q.push(200, 2, 0, Probe<0>(&tally, 2));
    q.run_and_recycle(q.pop());
    const std::uint64_t pool = q.stats().pool_nodes;
    EXPECT_THROW(q.push(99, 3, 0, Probe<0>(&tally, 3)), std::logic_error);
    EXPECT_EQ(q.stats().live, 1u);
    EXPECT_EQ(q.stats().pool_nodes, pool);
    // At the base and between it and the peeked minimum stay legal.
    EXPECT_EQ(q.top_time(), 200u);
    q.push(100, 4, 0, Probe<0>(&tally, 4));
    q.push(150, 5, 0, Probe<0>(&tally, 5));
    EXPECT_EQ(q.top_time(), 100u);

    // requeue() holds a popped event to the receiving queue's base.
    EventQueue later;
    later.push(300, 6, 0, Probe<0>(&tally, 6));
    later.run_and_recycle(later.pop());
    EventQueue::Node* n = q.pop();
    EXPECT_EQ(n->time, 100u);
    EXPECT_THROW(later.requeue(n), std::logic_error);
    q.requeue(n);
    EXPECT_EQ(q.stats().live, 3u);

    // A staged event before the base makes the absorb throw; it stays
    // staged and dies with the queue.
    q.stage(50, 7, 1, Probe<0>(&tally, 7));
    q.stage(400, 8, 1, Probe<0>(&tally, 8));
    EXPECT_THROW(q.absorb_staged(), std::logic_error);
    EXPECT_EQ(q.stats().live, 4u);
    EXPECT_EQ(q.top_time(), 100u);

    // move_node_homed() checks every receiver first and moves nothing.
    EXPECT_THROW(q.move_node_homed([&](std::int32_t) -> EventQueue& {
      return later;
    }),
                 std::logic_error);
    EXPECT_EQ(q.stats().live, 4u);
    EXPECT_EQ(later.stats().live, 0u);
  }
  EXPECT_EQ(tally.destroyed, tally.made);
}

TEST(EventQueue, EventsAtTheBaseKeepOrdOrderAcrossNodes) {
  // Same-time events from several nodes arrive out of ord order, also
  // while the time is being drained; each pop takes the least remaining.
  Tally tally;
  EventQueue q;
  const std::array<std::uint64_t, 4> first = {30, 10, 40, 20};
  for (std::uint64_t ord : first) q.push(5, ord, 0, Probe<0>(&tally, ord));
  q.run_and_recycle(q.pop());  // 10
  q.push(5, 15, 0, Probe<0>(&tally, 15));
  q.push(5, 5, 0, Probe<0>(&tally, 5));  // below a fired ord: next anyway
  q.push(6, 1, 0, Probe<0>(&tally, 1));
  while (!q.empty()) q.run_and_recycle(q.pop());
  EXPECT_EQ(tally.fired,
            (std::vector<std::uint64_t>{10, 5, 15, 20, 30, 40, 1}));
}

TEST(EventQueue, LongRunAtOneTimePopsInOrdOrder) {
  // Two events always pending at one time, so bucket 0 never empties and
  // drops its consumed prefix as it fills. Node 0's ords sort below node
  // 1's, so its pushes land before a pending node-1 event, not at the end.
  Tally tally;
  EventQueue q;
  std::set<std::uint64_t> pending;
  std::array<std::uint64_t, 2> seq{};
  const auto push = [&](std::int32_t node) {
    const std::size_t i = static_cast<std::size_t>(node);
    const std::uint64_t ord = (static_cast<std::uint64_t>(node + 1) << 48) |
                              ++seq[i];
    q.push(7, ord, node, Probe<0>(&tally, ord));
    pending.insert(ord);
  };
  push(0);
  push(1);
  for (int i = 0; i < 100'000; ++i) {
    EventQueue::Node* n = q.pop();
    ASSERT_EQ(n->ord, *pending.begin()) << "at " << i;
    pending.erase(pending.begin());
    q.run_and_recycle(n);
    push(i % 3 == 0 ? 1 : 0);
  }
  EXPECT_EQ(q.stats().live, 2u);
  EXPECT_EQ(q.stats().pool_nodes, kChunk);
}

TEST(EventQueue, StageFromAnotherThreadWhileTheOwnerAbsorbsAndPops) {
  // A foreign worker stages ascending times and publishes each one after
  // staging it (release), the way a shard publishes its horizon. The owner
  // reads the published time (acquire), absorbs, and pops only up to it,
  // so nothing staged later is earlier than its base; each fired event
  // pushes a follow-up of its own between the staged times.
  constexpr std::uint64_t kStaged = 20'000;
  EventQueue q;
  std::atomic<SimTime> published{0};
  std::vector<Key> order;
  order.reserve(3 * kStaged);
  std::uint64_t own_seq = 0;
  std::thread stager([&] {
    for (std::uint64_t i = 1; i <= kStaged; ++i) {
      const SimTime t = 10 * i;
      const std::uint64_t ord = (std::uint64_t{2} << 48) | i;
      q.stage(t, ord, 1, [&order, t, ord] { order.emplace_back(t, ord); });
      published.store(t, std::memory_order_release);
      if (i % 64 == 0) std::this_thread::yield();
    }
  });
  const auto drain_to = [&](SimTime bound) {
    while (!q.empty() && q.top_time() <= bound) {
      EventQueue::Node* n = q.pop();
      const SimTime t = n->time;
      q.run_and_recycle(n);
      if (t % 10 == 0) {
        const std::uint64_t ord = (std::uint64_t{1} << 48) | ++own_seq;
        q.push(t + 5, ord, 0, [&order, t, ord] {
          order.emplace_back(t + 5, ord);
        });
      }
    }
  };
  for (SimTime seen = 0; seen < 10 * kStaged;) {
    seen = published.load(std::memory_order_acquire);
    q.absorb_staged();
    drain_to(seen);
  }
  stager.join();
  q.absorb_staged();
  drain_to(kSimTimeNever);
  ASSERT_EQ(order.size(), 2 * kStaged);
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_LT(order[i - 1], order[i]) << "at " << i;
  }
  EXPECT_EQ(q.stats().live, 0u);
}

}  // namespace
}  // namespace dacc::sim
