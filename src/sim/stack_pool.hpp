// Coroutine stack allocator with free-list recycling, shared by every engine
// in the process.
//
// Stacks are mmap'd with a PROT_NONE guard page below the usable range, so a
// runaway process body faults instead of silently corrupting a neighbouring
// stack. Anonymous mappings are committed lazily by the kernel, so a large
// stack costs only the pages a process actually touches — which is what lets
// a single engine host tens of thousands of simulated processes.
// Finished processes return their stack to the pool, and the pool outlives
// every engine (StackPool::shared()), so once it is warm, spawning performs
// no new mappings in this engine or in any later one: no mmap, mprotect or
// munmap, and no first-touch fault on a page an earlier process touched.
// A destroyed engine trims the pool to kMaxFree free stacks, so an engine of
// 10,000 processes does not pin their address space for the rest of the
// process.
// Coroutines start and finish on whichever thread drives their shard, and
// engines on different threads share the pool, so acquire/release take a
// mutex; both are off the steady-state switch path (a stack is acquired
// once per process lifetime).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace dacc::sim {

class StackPool {
 public:
  /// Usable bytes per stack (excluding the guard page).
  static constexpr std::size_t kStackBytes = 512 * 1024;
  /// Free stacks trim() keeps; it unmaps the rest.
  static constexpr std::size_t kMaxFree = 4096;

  struct Stack {
    void* base = nullptr;       ///< lowest usable address
    std::size_t size = 0;       ///< usable bytes
    void* map_base = nullptr;   ///< mmap base (guard page included)
    std::size_t map_size = 0;
  };

  /// The pool every engine draws from. Leaked on purpose: strands can
  /// release their stacks during static teardown.
  static StackPool& shared();

  StackPool() = default;
  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// A free stack, or a newly mapped one; sets `*mapped` when it mapped.
  Stack acquire(bool* mapped = nullptr);
  void release(Stack stack);
  /// Unmaps the free stacks beyond kMaxFree, the longest-free first.
  /// Engine::~Engine calls it once its processes have returned their
  /// stacks; a live engine's free stacks are never unmapped, so its later
  /// processes reuse every stack its earlier ones had.
  void trim();

  /// Stacks ever mapped (monotonic; stable once the pool is warm).
  std::uint64_t created() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return created_;
  }
  std::size_t free_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return free_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Stack> free_;
  std::uint64_t created_ = 0;
};

}  // namespace dacc::sim
