#include "sim/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace dacc::sim {

namespace {

// A coroutine stack can come back with ASan redzones still poisoned (frames
// left by unwinding or by the final switch away from a finished body). Clear
// them before the range is reused or unmapped. A no-op without ASan.
void unpoison(const StackPool::Stack& s) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(s.base, s.size);
#else
  (void)s;
#endif
}

std::size_t page_size() {
  static const std::size_t size =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

}  // namespace

StackPool& StackPool::shared() {
  static StackPool* pool = new StackPool();
  return *pool;
}

StackPool::~StackPool() {
  for (const Stack& s : free_) ::munmap(s.map_base, s.map_size);
}

StackPool::Stack StackPool::acquire(bool* mapped) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      Stack s = free_.back();
      free_.pop_back();
      return s;
    }
  }
  const std::size_t page = page_size();
  const std::size_t map_size = kStackBytes + page;  // +1 guard page
  void* map = ::mmap(nullptr, map_size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  // Guard at the low end: stacks grow downward on every platform we target.
  // Protecting it splits the mapping in two, which fails with ENOMEM near
  // vm.max_map_count; a stack must never go out without its guard.
  if (::mprotect(map, page, PROT_NONE) != 0) {
    ::munmap(map, map_size);
    throw std::bad_alloc();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++created_;
  }
  if (mapped != nullptr) *mapped = true;
  Stack s;
  s.map_base = map;
  s.map_size = map_size;
  s.base = static_cast<std::byte*>(map) + page;
  s.size = kStackBytes;
  return s;
}

void StackPool::release(Stack stack) {
  if (stack.map_base == nullptr) return;
  unpoison(stack);
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(stack);
}

void StackPool::trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.size() <= kMaxFree) return;
  // acquire() pops from the back, so the front holds the coldest stacks.
  const auto excess = free_.begin() + static_cast<std::ptrdiff_t>(
                                          free_.size() - kMaxFree);
  for (auto it = free_.begin(); it != excess; ++it) {
    ::munmap(it->map_base, it->map_size);
  }
  free_.erase(free_.begin(), excess);
}

}  // namespace dacc::sim
