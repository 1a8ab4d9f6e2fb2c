// Pooled discrete-event priority queue.
//
// The engine executes hundreds of thousands of events per simulated second
// of a paper-scale sweep, and the original std::priority_queue<Event> paid
// one heap allocation per event for its std::function callback. This queue
// removes that cost from the steady-state path:
//
//  * event nodes come from a chunked free list that is recycled after each
//    event fires — once warm, pushing an event allocates nothing;
//  * callbacks are constructed in place in a fixed inline buffer (move-only
//    callables welcome — this is what lets the message layer move payload
//    buffers through events instead of wrapping them in shared_ptrs);
//    oversized callables fall back to the heap and are counted, so tests can
//    assert the hot path stays allocation-free;
//  * events pop in (time, ord) order — ord packs the scheduling node and a
//    per-node sequence number (see Engine), so it is unique, the order is
//    total and independent of node addresses, and — because the per-node
//    counters advance identically under every execution backend — the order
//    is also independent of backend and shard count (determinism);
//  * the order is kept by a monotone radix queue on the time (Ahuja,
//    Mehlhorn, Orlin and Tarjan, J. ACM 37(2), 1990). The base is the time
//    of the last popped event. Bucket 0 holds the events at the base,
//    ascending by ord behind a cursor; bucket i >= 1 holds those whose time
//    first differs from the base at bit i-1, unsorted, with its minimum time
//    kept beside it. A 64-bit mask finds the lowest occupied bucket. Only
//    pop() moves the base: when bucket 0 runs dry it moves the base to the
//    lowest bucket's minimum and redistributes that bucket into lower ones.
//    A push appends to its bucket, or inserts by ord into bucket 0 when it
//    is at the base, and an event moves down at most 64 times;
//  * the radix order needs monotone pushes: no event may be earlier than
//    the base. The serial loop guarantees it because Engine::route refuses
//    a time before now(), which is never before the last popped event; a
//    shard guarantees it by the horizon argument at Engine::advance_shard,
//    which puts every staged event at or above the bound the shard last
//    drained below. A push before the base throws std::logic_error instead
//    of misordering. top_time() never moves the base: run_until() peeks,
//    and its caller may then schedule between now() and the peeked minimum;
//  * for the parallel backend, stage() enqueues an event from a foreign
//    worker thread into a mutex-protected side list with its own node pool
//    (the owner's free list stays uncontended); the owner files staged
//    events straight into the buckets with absorb_staged().
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace dacc::sim {

class EventQueue {
 public:
  /// Inline callback storage. Sized for the largest steady-state callback in
  /// the message layer (a moved-in payload buffer plus two shared_ptrs and
  /// addressing scalars).
  static constexpr std::size_t kInlineBytes = 128;

  /// Cache-line aligned: the scheduling header (time, ord, vtable, free
  /// link, node) fills the first line; the callback storage starts on its
  /// own line so constructing the callable never dirties the header line of
  /// a neighboring node.
  struct alignas(64) Node {
    SimTime time = 0;
    std::uint64_t ord = 0;      ///< canonical tie-break: (node+1)<<48 | seq
    void (*invoke)(Node&) = nullptr;
    void (*destroy)(Node&) = nullptr;
    Node* next_free = nullptr;
    std::int32_t node = -1;     ///< execution affinity (-1 = global context)
    alignas(64) std::byte storage[kInlineBytes];
  };

  struct Stats {
    std::uint64_t live = 0;            ///< events currently queued
    std::uint64_t high_water = 0;      ///< max live since last reset
    std::uint64_t pool_nodes = 0;      ///< nodes ever allocated (capacity)
    std::uint64_t heap_fallbacks = 0;  ///< callbacks too big for inline
  };

  EventQueue() = default;
  ~EventQueue() {
    for_each_queued([](const Slot& s) { s.n->destroy(*s.n); });
    for (Node* n = staged_; n != nullptr; n = n->next_free) n->destroy(*n);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const { return stats_.live == 0; }

  /// Time of the earliest event; the queue must not be empty. Never moves
  /// the base, so a push between the last popped time and this one stays
  /// legal.
  SimTime top_time() const {
    if (!at_base_.empty()) return base_;
    return far_min_[static_cast<std::size_t>(std::countr_zero(far_mask_))];
  }

  template <typename F>
  void push(SimTime time, std::uint64_t ord, std::int32_t node, F&& fn) {
    check_not_before_base(time);
    Node* n = allocate();
    n->time = time;
    n->ord = ord;
    n->node = node;
    if (bind(*n, std::forward<F>(fn))) ++stats_.heap_fallbacks;
    adopt(Slot{time, ord, n});
  }

  /// Number of queued events homed on a node rather than the global
  /// context. A linear scan.
  std::uint64_t node_homed() const {
    std::uint64_t count = 0;
    for_each_queued([&](const Slot& s) { count += s.n->node >= 0 ? 1 : 0; });
    return count;
  }

  /// Queues a popped event again, here or in another queue; the same
  /// ownership rule as for move_node_homed applies.
  void requeue(Node* n) {
    check_not_before_base(n->time);
    adopt(Slot{n->time, n->ord, n});
  }

  /// Hands every queued event homed on a node to the queue `dest(node)`
  /// returns; global-context events stay. A moved node is recycled into
  /// the receiving queue's free list once it fires, while its memory stays
  /// owned here, so every receiver must be destroyed before this queue.
  /// Throws, moving nothing, when an event is earlier than its receiver's
  /// base.
  template <typename Dest>
  void move_node_homed(Dest&& dest) {
    for_each_queued([&](const Slot& s) {
      if (s.n->node >= 0) dest(s.n->node).check_not_before_base(s.time);
    });
    std::vector<Slot> all;
    all.reserve(stats_.live);
    for_each_queued([&](const Slot& s) { all.push_back(s); });
    at_base_.clear();
    cursor_ = 0;
    for (std::vector<Slot>& bucket : far_) bucket.clear();
    far_mask_ = 0;
    stats_.live = 0;
    for (const Slot& s : all) {
      EventQueue& q = s.n->node < 0 ? *this : dest(s.n->node);
      q.adopt(s);
    }
  }

  /// Thread-safe enqueue from a foreign worker: the event lands in a staged
  /// side list (LIFO; order is irrelevant because absorb_staged() files each
  /// event by its key) built from a separate node pool so the owner's
  /// hot-path free list is never contended.
  template <typename F>
  void stage(SimTime time, std::uint64_t ord, std::int32_t node, F&& fn) {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    Node* n = staged_allocate();
    n->time = time;
    n->ord = ord;
    n->node = node;
    if (bind(*n, std::forward<F>(fn))) ++staged_fallbacks_;
    n->next_free = staged_;
    staged_ = n;
  }

  /// Owner-side: files every staged event into the buckets, as a push
  /// would. The horizon protocol puts every staged event at or above the
  /// bound the shard last drained below, so none is earlier than the base;
  /// if one is, it and the events not yet filed go back to the staged list
  /// (the destructor still destroys them) and the call throws
  /// std::logic_error. Safe to run concurrently with stage() callers (the
  /// conservative horizon protocol guarantees anything staged after this
  /// call executes in a later drain). Returns the number of events filed.
  std::size_t absorb_staged() {
    Node* head = nullptr;
    {
      std::lock_guard<std::mutex> lock(stage_mutex_);
      head = staged_;
      staged_ = nullptr;
      stats_.heap_fallbacks += staged_fallbacks_;
      staged_fallbacks_ = 0;
      stats_.pool_nodes += staged_pool_nodes_;
      staged_pool_nodes_ = 0;
    }
    std::size_t count = 0;
    for (; head != nullptr; ++count) {
      Node* n = head;
      if (n->time < base_) [[unlikely]] {
        std::lock_guard<std::mutex> lock(stage_mutex_);
        Node* tail = n;
        while (tail->next_free != nullptr) tail = tail->next_free;
        tail->next_free = staged_;
        staged_ = n;
        throw std::logic_error(
            "EventQueue: staged event earlier than the last popped event");
      }
      head = n->next_free;
      adopt(Slot{n->time, n->ord, n});
    }
    return count;
  }

  /// Removes the earliest event. Invoke it with run_and_recycle().
  Node* pop() {
    --stats_.live;
    if (at_base_.empty()) refill();
    Node* n = at_base_[cursor_].n;
    if (++cursor_ == at_base_.size()) {
      at_base_.clear();
      cursor_ = 0;
    }
    return n;
  }

  /// Calls the node's callback, then returns the node to the free list —
  /// also on exception. The callback may push further events.
  void run_and_recycle(Node* n) {
    struct Recycle {
      EventQueue* q;
      Node* n;
      ~Recycle() {
        n->destroy(*n);
        q->free(n);
      }
    } recycle{this, n};
    n->invoke(*n);
  }

  const Stats& stats() const { return stats_; }
  void reset_high_water() { stats_.high_water = stats_.live; }

 private:
  static constexpr std::size_t kChunkNodes = 256;

  /// Bucket entry: the ordering key lives next to the pointer, so filing,
  /// redistributing and sorting a bucket never touch the nodes themselves.
  struct Slot {
    SimTime time;
    std::uint64_t ord;
    Node* n;
  };

  void check_not_before_base(SimTime time) const {
    if (time < base_) [[unlikely]] {
      throw std::logic_error(
          "EventQueue: push earlier than the last popped event");
    }
  }

  /// Files `s` (at or after the base) and counts it as queued.
  void adopt(const Slot& s) {
    if (s.time == base_) {
      insert_at_base(s);
    } else {
      file_far(s);
    }
    ++stats_.live;
    if (stats_.live > stats_.high_water) stats_.high_water = stats_.live;
  }

  /// Bucket 0 stays sorted by ord from the cursor on: an event at the base
  /// appends when its ord is the largest there and is otherwise inserted
  /// behind the cursor, never before it. When the lane is full and at
  /// least half consumed, the consumed prefix is dropped instead of
  /// growing, so over a long run of events at one time the lane's capacity
  /// stays within four times the most events pending there at once.
  void insert_at_base(const Slot& s) {
    if (at_base_.size() == at_base_.capacity() &&
        2 * cursor_ >= at_base_.size()) {
      at_base_.erase(at_base_.begin(),
                     at_base_.begin() + static_cast<std::ptrdiff_t>(cursor_));
      cursor_ = 0;
    }
    if (at_base_.empty() || at_base_.back().ord < s.ord) {
      at_base_.push_back(s);
      return;
    }
    at_base_.insert(
        std::upper_bound(
            at_base_.begin() + static_cast<std::ptrdiff_t>(cursor_),
            at_base_.end(), s, ord_before),
        s);
  }

  /// Files an event later than the base into bucket i = bit_width(time ^
  /// base), kept in far_[i - 1] under mask bit i - 1.
  void file_far(const Slot& s) {
    const auto k = static_cast<std::size_t>(std::bit_width(s.time ^ base_) - 1);
    std::vector<Slot>& bucket = far_[k];
    if (bucket.empty()) {
      far_mask_ |= std::uint64_t{1} << k;
      far_min_[k] = s.time;
    } else if (s.time < far_min_[k]) {
      far_min_[k] = s.time;
    }
    bucket.push_back(s);
  }

  /// Bucket 0 is empty: moves the base to the lowest occupied bucket's
  /// minimum and redistributes that bucket. Every event in it agrees with
  /// the new base above its bit, so each lands in a lower bucket, and the
  /// events at the new base are sorted into bucket 0. Higher buckets keep
  /// their events: the new base agrees with the old one above that bit.
  void refill() {
    const auto k = static_cast<std::size_t>(std::countr_zero(far_mask_));
    far_mask_ &= far_mask_ - 1;
    base_ = far_min_[k];
    std::vector<Slot>& from = far_[k];
    for (const Slot& s : from) {
      if (s.time == base_) {
        at_base_.push_back(s);
      } else {
        file_far(s);
      }
    }
    from.clear();
    if (at_base_.size() > 1) {
      std::sort(at_base_.begin(), at_base_.end(), ord_before);
    }
  }

  static bool ord_before(const Slot& a, const Slot& b) { return a.ord < b.ord; }

  template <typename Fn>
  void for_each_queued(Fn&& fn) const {
    for (std::size_t i = cursor_; i < at_base_.size(); ++i) fn(at_base_[i]);
    for (const std::vector<Slot>& bucket : far_) {
      for (const Slot& s : bucket) fn(s);
    }
  }

  /// Returns true when the callable spilled to the heap (too big for the
  /// inline buffer) so callers can account the fallback against the right
  /// counter — push() owns stats_, stage() must not touch it.
  template <typename F>
  bool bind(Node& n, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= 64) {
      ::new (static_cast<void*>(n.storage)) Fn(std::forward<F>(fn));
      n.invoke = [](Node& m) {
        (*std::launder(reinterpret_cast<Fn*>(m.storage)))();
      };
      n.destroy = [](Node& m) {
        std::launder(reinterpret_cast<Fn*>(m.storage))->~Fn();
      };
      return false;
    } else {
      auto* boxed = new Fn(std::forward<F>(fn));
      std::memcpy(n.storage, &boxed, sizeof(boxed));
      n.invoke = [](Node& m) { (*unbox<Fn>(m))(); };
      n.destroy = [](Node& m) { delete unbox<Fn>(m); };
      return true;
    }
  }

  template <typename Fn>
  static Fn* unbox(Node& n) {
    Fn* p;
    std::memcpy(&p, n.storage, sizeof(p));
    return p;
  }

  Node* allocate() {
    if (free_list_ == nullptr) grow();
    Node* n = free_list_;
    free_list_ = n->next_free;
    return n;
  }

  void free(Node* n) {
    n->next_free = free_list_;
    free_list_ = n;
  }

  /// Called with stage_mutex_ held. Staged nodes migrate to the owner's
  /// free list after they fire, so this pool only grows while staging
  /// outpaces the churn of previously absorbed nodes.
  Node* staged_allocate() {
    if (staged_free_ == nullptr) {
      staged_chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
      Node* chunk = staged_chunks_.back().get();
      for (std::size_t i = 0; i < kChunkNodes; ++i) {
        chunk[i].next_free = staged_free_;
        staged_free_ = &chunk[i];
      }
      staged_pool_nodes_ += kChunkNodes;
    }
    Node* n = staged_free_;
    staged_free_ = n->next_free;
    return n;
  }

  void grow() {
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    Node* chunk = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkNodes; ++i) {
      chunk[i].next_free = free_list_;
      free_list_ = &chunk[i];
    }
    stats_.pool_nodes += kChunkNodes;
  }

  // Radix buckets; every bucket keeps its capacity.
  SimTime base_ = 0;               // time of the last popped event
  std::vector<Slot> at_base_;      // bucket 0: ascending ord from cursor_
  std::size_t cursor_ = 0;         // consumed prefix of at_base_
  std::uint64_t far_mask_ = 0;     // bit i-1 set: bucket i occupied
  std::array<std::vector<Slot>, 64> far_;  // buckets 1..64
  std::array<SimTime, 64> far_min_{};      // minimum time per occupied bucket

  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_list_ = nullptr;
  Stats stats_;

  // Staged inbox (parallel backend). Guarded by stage_mutex_; the owner
  // only takes the mutex briefly in absorb_staged().
  std::mutex stage_mutex_;
  Node* staged_ = nullptr;
  Node* staged_free_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> staged_chunks_;
  std::uint64_t staged_fallbacks_ = 0;
  std::uint64_t staged_pool_nodes_ = 0;
};

}  // namespace dacc::sim
