// The stack's blocking primitives for simulated processes, built on the
// engine's suspend()/wake() permits: a wait list (WaitQueue), a counting
// Semaphore, a typed Mailbox and a one-shot Completion. Every blocking job
// in the stack is one of these: dmpi requests and front-end futures wait
// on a Completion, the proxies' op queues are Mailboxes. Waiters wake in
// the order they began waiting, and the queues sit on util::Fifo rings, so
// once warm they allocate nothing. The blocking calls may only be made from
// process context (they block the calling process, never the engine).
#pragma once

#include <cstddef>
#include <optional>

#include "sim/engine.hpp"
#include "util/fifo.hpp"

namespace dacc::sim {

/// Processes waiting for a notification, woken in the order they began
/// waiting. The oldest waiter sits inline and the rest in a ring, so a
/// queue with one waiter never allocates.
class WaitQueue {
 public:
  explicit WaitQueue(Engine& engine) : engine_(engine) {}

  /// Blocks the calling process until notified. May return spuriously (if a
  /// wake permit was banked elsewhere), so callers must re-check their
  /// condition in a loop; a spurious return never leaves a stale entry here.
  void wait(Context& ctx) {
    add(ctx.self());
    ctx.suspend();
    // If we were woken by an unrelated permit, our entry is still queued;
    // remove it so notify_one never wakes a process that has moved on.
    remove(ctx.self());
  }

  /// Registers `p` as the newest waiter, for a wait that spans several
  /// suspends or several queues: `p` suspends itself, and remove()s itself
  /// if it stops waiting before a notify reaches it.
  void add(Process& p) {
    if (first_ == nullptr) {
      first_ = &p;
    } else {
      rest_.push_back(&p);
    }
  }

  /// Drops `p` if it is still waiting; the others keep their order.
  void remove(Process& p) {
    if (first_ == &p) {
      first_ = rest_.empty() ? nullptr : rest_.take(0);
      return;
    }
    for (std::size_t i = 0; i < rest_.size(); ++i) {
      if (rest_[i] == &p) {
        rest_.take(i);
        return;
      }
    }
  }

  /// Wakes the longest-waiting process, if any. Safe from any sim context.
  void notify_one() {
    if (first_ == nullptr) return;
    Process* p = first_;
    first_ = rest_.empty() ? nullptr : rest_.take(0);
    engine_.wake(*p);
  }

  void notify_all() {
    while (first_ != nullptr) notify_one();
  }

  std::size_t waiting() const {
    return rest_.size() + (first_ != nullptr ? 1 : 0);
  }

 private:
  Engine& engine_;
  Process* first_ = nullptr;   // the oldest waiter; null when none
  util::Fifo<Process*> rest_;  // the others, oldest first
};

/// Counting semaphore for simulated processes.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t initial)
      : count_(initial), waiters_(engine) {}

  void acquire(Context& ctx) {
    while (count_ == 0) waiters_.wait(ctx);
    --count_;
  }

  bool try_acquire() {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  void release() {
    ++count_;
    waiters_.notify_one();
  }

  std::size_t available() const { return count_; }

 private:
  std::size_t count_;
  WaitQueue waiters_;
};

/// Unbounded typed mailbox: the basic inter-process communication channel.
/// Delivery is instantaneous (timing is modelled by the network layer, not
/// here); receive order is FIFO.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : waiters_(engine) {}

  /// Deposits a message; wakes one waiting receiver. Any sim context.
  void put(T msg) {
    queue_.push_back(std::move(msg));
    waiters_.notify_one();
  }

  /// Blocks until a message is available, then removes and returns it.
  T get(Context& ctx) {
    while (queue_.empty()) waiters_.wait(ctx);
    return queue_.take(0);
  }

  /// Non-blocking receive.
  std::optional<T> try_get() {
    if (queue_.empty()) return std::nullopt;
    return queue_.take(0);
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  util::Fifo<T> queue_;
  WaitQueue waiters_;
};

/// One-shot completion flag: a producer completes it once; any number of
/// consumers may wait for it, and wake in the order they began waiting. A
/// waiter woken spuriously (by a permit banked elsewhere) keeps its place.
class Completion {
 public:
  explicit Completion(Engine& engine) : waiters_(engine) {}

  void complete() {
    done_ = true;
    waiters_.notify_all();
  }

  void wait(Context& ctx) {
    if (done_) return;
    waiters_.add(ctx.self());
    while (!done_) ctx.suspend();
  }

  /// Waits until complete or until the clock reaches `deadline`
  /// (kSimTimeNever waits forever); returns whether it completed. A waiter
  /// that times out leaves the queue; the others keep their places.
  bool wait_until(Context& ctx, SimTime deadline) {
    if (deadline == kSimTimeNever) {
      wait(ctx);
      return true;
    }
    if (done_ || ctx.now() >= deadline) return done_;
    // One wake event at the deadline; if the completion comes first, the
    // event fires as a harmless spurious wake (a banked permit).
    Process& self = ctx.self();
    Engine& engine = ctx.engine();
    engine.schedule_at(deadline, [&engine, &self] { engine.wake(self); });
    waiters_.add(self);
    while (!done_ && ctx.now() < deadline) ctx.suspend();
    if (!done_) waiters_.remove(self);
    return done_;
  }

  bool done() const { return done_; }

  /// The wait list, for a process that waits on several completions at
  /// once: it add()s itself to each, suspends until one is done, and
  /// remove()s itself from the rest.
  WaitQueue& waiters() { return waiters_; }

 private:
  bool done_ = false;
  WaitQueue waiters_;
};

}  // namespace dacc::sim
