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
//  * ordering is a binary heap over (time, ord) — ord packs the scheduling
//    node and a per-node sequence number (see Engine), so it is unique, the
//    order is total and independent of node addresses, and — because the
//    per-node counters advance identically under every execution backend —
//    the order is also independent of backend and shard count (determinism);
//  * the heap stores (time, ord, node*) slots, not node pointers: sift
//    operations compare keys held in the heap array itself, so re-ordering
//    never dereferences event nodes (one cache line of slots covers two
//    full heap levels). Nodes themselves are cache-line aligned with the
//    hot header fields packed into the first line;
//  * for the parallel backend, stage() enqueues an event from a foreign
//    worker thread into a mutex-protected side list with its own node pool
//    (the owner's free list stays uncontended); the owner folds staged
//    events into a sorted inbox lane with absorb_staged() — one sort of the
//    batch plus a linear merge with the unconsumed remainder, cheaper than
//    per-event heap pushes, and the canonical (time, ord) key makes the
//    lane's order identical under every backend. top()/pop() read the min
//    of the heap front and the inbox cursor.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
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
    for (const Slot& s : heap_) s.n->destroy(*s.n);
    for (std::size_t i = inbox_pos_; i < inbox_.size(); ++i) {
      inbox_[i].n->destroy(*inbox_[i].n);
    }
    for (Node* n = staged_; n != nullptr; n = n->next_free) n->destroy(*n);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const { return heap_.empty() && inbox_pos_ == inbox_.size(); }

  SimTime top_time() const { return top_slot().time; }

  template <typename F>
  void push(SimTime time, std::uint64_t ord, std::int32_t node, F&& fn) {
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
    for (const Slot& s : heap_) count += s.n->node >= 0 ? 1 : 0;
    for (std::size_t i = inbox_pos_; i < inbox_.size(); ++i) {
      count += inbox_[i].n->node >= 0 ? 1 : 0;
    }
    return count;
  }

  /// Queues a popped event again, here or in another queue; the same
  /// ownership rule as for move_node_homed applies.
  void requeue(Node* n) { adopt(Slot{n->time, n->ord, n}); }

  /// Hands every queued event homed on a node to the queue `dest(node)`
  /// returns; global-context events stay. A moved node is recycled into
  /// the receiving queue's free list once it fires, while its memory stays
  /// owned here, so every receiver must be destroyed before this queue.
  template <typename Dest>
  void move_node_homed(Dest&& dest) {
    std::vector<Slot> all(heap_.begin(), heap_.end());
    all.insert(all.end(),
               inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_pos_),
               inbox_.end());
    heap_.clear();
    inbox_.clear();
    inbox_pos_ = 0;
    stats_.live = 0;
    for (const Slot& s : all) {
      EventQueue& q = s.n->node < 0 ? *this : dest(s.n->node);
      q.adopt(s);
    }
  }

  /// Thread-safe enqueue from a foreign worker: the event lands in a staged
  /// side list (LIFO; order is irrelevant because absorb_staged() sorts by
  /// the canonical key) built from a separate node pool so the owner's
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

  /// Owner-side: folds every staged event into the sorted inbox lane — one
  /// batch sort plus a linear merge with the unconsumed remainder, instead
  /// of a heap push per event. Safe to run concurrently with stage()
  /// callers (the conservative horizon protocol guarantees anything staged
  /// after this call executes in a later drain). Returns the batch size.
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
    if (head == nullptr) return 0;
    // Drop the consumed prefix so the merge below touches live slots only.
    if (inbox_pos_ > 0) {
      inbox_.erase(inbox_.begin(),
                   inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_pos_));
      inbox_pos_ = 0;
    }
    const std::size_t old_size = inbox_.size();
    std::size_t count = 0;
    while (head != nullptr) {
      Node* n = head;
      head = head->next_free;
      inbox_.push_back(Slot{n->time, n->ord, n});
      ++count;
    }
    std::sort(inbox_.begin() + static_cast<std::ptrdiff_t>(old_size),
              inbox_.end(), slot_before);
    std::inplace_merge(inbox_.begin(),
                       inbox_.begin() + static_cast<std::ptrdiff_t>(old_size),
                       inbox_.end(), slot_before);
    stats_.live += count;
    if (stats_.live > stats_.high_water) stats_.high_water = stats_.live;
    return count;
  }

  /// Removes the earliest event. Invoke it with run_and_recycle().
  Node* pop() {
    --stats_.live;
    if (inbox_pos_ != inbox_.size() &&
        (heap_.empty() || slot_before(inbox_[inbox_pos_], heap_.front()))) {
      return inbox_[inbox_pos_++].n;
    }
    Node* top = heap_.front().n;
    const Slot last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return top;
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

  /// Heap/inbox entry: the ordering key lives next to the pointer so heap
  /// maintenance never touches the nodes themselves.
  struct Slot {
    SimTime time;
    std::uint64_t ord;
    Node* n;
  };

  static bool slot_before(const Slot& a, const Slot& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.ord < b.ord;
  }

  void adopt(const Slot& s) {
    heap_.push_back(s);
    sift_up(heap_.size() - 1);
    ++stats_.live;
    if (stats_.live > stats_.high_water) stats_.high_water = stats_.live;
  }

  const Slot& top_slot() const {
    if (inbox_pos_ != inbox_.size() &&
        (heap_.empty() || slot_before(inbox_[inbox_pos_], heap_.front()))) {
      return inbox_[inbox_pos_];
    }
    return heap_.front();
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

  void sift_up(std::size_t i) {
    const Slot s = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!slot_before(s, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = s;
  }

  void sift_down(std::size_t i) {
    const Slot s = heap_[i];
    const std::size_t size = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && slot_before(heap_[child + 1], heap_[child])) {
        ++child;
      }
      if (!slot_before(heap_[child], s)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = s;
  }

  std::vector<Slot> heap_;  // binary min-heap; capacity is retained
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_list_ = nullptr;
  Stats stats_;

  // Sorted inbox lane: absorbed cross-shard events, ascending (time, ord);
  // entries before inbox_pos_ are consumed.
  std::vector<Slot> inbox_;
  std::size_t inbox_pos_ = 0;

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
