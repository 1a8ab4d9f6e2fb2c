// Replaces the global operator new with one that counts every heap block it
// hands out, for the allocation gates. Include it from exactly one source
// file of a test binary, and give that binary nothing else: every suite in
// it pays for the counter.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace dacc::testing {

inline std::atomic<std::uint64_t> g_heap_blocks{0};

inline std::uint64_t heap_blocks() {
  return g_heap_blocks.load(std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size, std::size_t align) {
  g_heap_blocks.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace dacc::testing

void* operator new(std::size_t size) {
  return dacc::testing::counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return dacc::testing::counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
